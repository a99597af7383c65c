// Command xflow-master runs the coordinating node of a distributed
// Crossflow deployment: it connects to a broker, waits for the expected
// number of workers, streams the selected workload in, mediates
// allocation under the chosen scheduler, and prints the run report.
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
		scheduler  = flag.String("scheduler", "bidding", "allocation policy (bidding|baseline|spark-like|matchmaking|random)")
		workers    = flag.Int("workers", 2, "number of workers to wait for")
		wlName     = flag.String("workload", "all_diff_equal", "job configuration")
		jobs       = flag.Int("jobs", 24, "number of jobs to stream")
		seed       = flag.Int64("seed", 1, "workload seed")
		scale      = flag.Float64("time-scale", 100, "clock compression factor (1 = real time)")
		runs       = flag.Int("runs", 1, "workflow runs to stream over one long-lived master (serve mode when > 1)")
		shards     = flag.Int("shards", 0, "contest shards in serve mode (0 or 1 = single master; requires -runs > 1)")
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
	if *shards > 1 && *runs <= 1 {
		fmt.Fprintln(os.Stderr, "xflow-master: -shards needs serve mode (-runs > 1)")
		os.Exit(1)
	}
	if *runs > 1 {
		// Each contest shard is its own broker endpoint; the frontend
		// router keeps the MasterName port the workers already address.
		var shardPorts []engine.Port
		for i := 0; i < *shards; i++ {
			sp, err := transport.Dial(*brokerAddr, engine.ShardName(i), 0, clk)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xflow-master: dial shard:", err)
				os.Exit(1)
			}
			defer sp.Close()
			shardPorts = append(shardPorts, sp)
		}
		serve(clk, port, shardPorts, pol, jc, *jobs, *seed, *workers, *runs, rng)
		return
	}

	arrivals := workload.Generate(jc, workload.Options{Jobs: *jobs, Seed: *seed})
	master := engine.NewMaster(clk, port, pol.NewAllocator(), workload.Workflow(),
		arrivals, *workers, rng)
	fmt.Printf("xflow-master: %s scheduler, %d jobs (%s), waiting for %d workers…\n",
		pol.Name, *jobs, jc, *workers)

	start := time.Now()
	master.Start()
	clk.Wait()
	printReport("Run report (master view)", master.Report(), time.Since(start))
}

// serve runs a long-lived cluster master: one fleet, *runs* workflow
// sessions streamed through it back to back, a per-session report each.
// With shard ports it runs the sharded control plane instead: the
// frontend router on the master port, one contest shard per shard port.
func serve(clk vclock.Clock, port engine.Port, shardPorts []engine.Port, pol core.Policy,
	jc workload.JobConfig, jobs int, seed int64, workers, runs int, rng *rand.Rand) {
	var master *engine.Plane
	if len(shardPorts) > 1 {
		master = &engine.NewShardedClusterMaster(clk, port, shardPorts, pol.NewAllocator, workers, rng).Plane
		fmt.Printf("xflow-master: serve mode, %s scheduler, %d contest shards, %d runs x %d jobs (%s), waiting for %d workers…\n",
			pol.Name, len(shardPorts), runs, jobs, jc, workers)
	} else {
		master = &engine.NewClusterMaster(clk, port, pol.NewAllocator(), workers, rng).Plane
		fmt.Printf("xflow-master: serve mode, %s scheduler, %d runs x %d jobs (%s), waiting for %d workers…\n",
			pol.Name, runs, jobs, jc, workers)
	}
	master.Start()

	start := time.Now()
	clk.Go(func() {
		master.WaitReady()
		for r := 0; r < runs; r++ {
			arrivals := workload.Generate(jc, workload.Options{Jobs: jobs, Seed: seed + int64(r)})
			sess := master.OpenSession(fmt.Sprintf("run-%d", r), workload.Workflow())
			var last time.Duration
			for _, arr := range arrivals {
				if arr.At > last {
					clk.Sleep(arr.At - last)
					last = arr.At
				}
				sess.Submit(arr.Job)
			}
			sess.Close()
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
