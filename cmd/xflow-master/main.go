// Command xflow-master runs the coordinating node of a distributed
// Crossflow deployment: it connects to a broker, waits for the expected
// number of workers, streams -runs workflow sessions of the selected
// workload through one long-lived master (or, with -shards, the sharded
// control plane), mediates allocation under the chosen scheduler, and
// prints a report per session.
//
// Usage:
//
//	xflow-master -broker localhost:7070 -scheduler bidding -workers 5 \
//	    -workload 80%_large -jobs 120 -time-scale 100
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/metrics"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

func main() {
	var (
		brokerAddr = flag.String("broker", "localhost:7070", "broker address")
		scheduler  = flag.String("scheduler", "bidding", "allocation policy (bidding|baseline|spark-like|bidding-fast|bidding-topk|matchmaking|delay|random)")
		workers    = flag.Int("workers", 2, "number of workers to wait for")
		wlName     = flag.String("workload", "all_diff_equal", "job configuration")
		jobs       = flag.Int("jobs", 24, "number of jobs to stream")
		seed       = flag.Int64("seed", 1, "workload seed")
		scale      = flag.Float64("time-scale", 100, "clock compression factor (1 = real time)")
		runs       = flag.Int("runs", 1, "workflow sessions to stream back to back over the one long-lived master")
		shards     = flag.Int("shards", 0, "contest shards (0 or 1 = single master)")
	)
	flag.Parse()

	pol, ok := core.PolicyByName(*scheduler)
	if !ok {
		fmt.Fprintf(os.Stderr, "xflow-master: unknown scheduler %q\n", *scheduler)
		os.Exit(1)
	}
	jc, err := workload.ParseJobConfig(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-master:", err)
		os.Exit(1)
	}

	clk := vclock.NewScaledReal(*scale)
	port, err := transport.Dial(*brokerAddr, engine.MasterName, 0, clk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-master: dial:", err)
		os.Exit(1)
	}
	defer port.Close()

	rng := rand.New(rand.NewSource(*seed))
	var master *engine.Plane
	if *shards > 1 {
		// Each contest shard is its own broker endpoint; the frontend
		// router keeps the MasterName port the workers already address.
		shardPorts := make([]engine.Port, *shards)
		for i := range shardPorts {
			sp, err := transport.Dial(*brokerAddr, engine.ShardName(i), 0, clk)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xflow-master: dial shard:", err)
				os.Exit(1)
			}
			defer sp.Close()
			shardPorts[i] = sp
		}
		master = &engine.NewShardedClusterMaster(clk, port, shardPorts, pol.NewAllocator, *workers, rng).Plane
	} else {
		master = &engine.NewClusterMaster(clk, port, pol.NewAllocator(), *workers, rng).Plane
	}
	fmt.Printf("xflow-master: %s scheduler, %d contest shard(s), %d runs x %d jobs (%s), waiting for %d workers…\n",
		pol.Name, max(*shards, 1), *runs, *jobs, jc, *workers)
	master.Start()

	start := time.Now()
	clk.Go(func() {
		master.WaitReady()
		for r := 0; r < *runs; r++ {
			arrivals := workload.Generate(jc, workload.Options{Jobs: *jobs, Seed: *seed + int64(r)})
			sess := master.OpenSession(fmt.Sprintf("run-%d", r), workload.Workflow())
			sess.Schedule(arrivals)
			if rep := sess.Wait(); rep != nil {
				printReport(fmt.Sprintf("Session %s", sess.ID()), rep, time.Since(start))
			}
		}
		master.Shutdown()
	})
	clk.Wait()
}

func printReport(title string, rep *engine.Report, wall time.Duration) {
	t := &metrics.Table{
		Title:  title,
		Header: []string{"metric", "value"},
	}
	t.AddRow("scheduler", rep.Allocator)
	t.AddRow("jobs completed", fmt.Sprintf("%d", rep.JobsCompleted))
	t.AddRow("makespan (engine time)", rep.Makespan.Round(time.Millisecond).String())
	t.AddRow("wall time", wall.Round(time.Millisecond).String())
	t.AddRow("contests", fmt.Sprintf("%d", rep.Contests))
	t.AddRow("contest msgs", fmt.Sprintf("%d", rep.ContestMsgs))
	t.AddRow("bids", fmt.Sprintf("%d", rep.Bids))
	t.AddRow("offers", fmt.Sprintf("%d", rep.Offers))
	t.AddRow("rejections", fmt.Sprintf("%d", rep.Rejections))
	t.AddRow("mean allocation latency", rep.MeanAllocLatency.Round(time.Microsecond).String())
	t.Render(os.Stdout)
}
