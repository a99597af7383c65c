// Command xflow-sim executes a single simulated workflow run and prints
// its report — the quick way to poke at one scheduler/workload/fleet
// combination without the full experiment harness.
//
// Usage:
//
//	xflow-sim -scheduler bidding -workload 80%_large -workers fast-slow \
//	    -jobs 120 -iterations 1 -seed 1
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/metrics"
	"crossflow/internal/workload"
)

func main() {
	var (
		scheduler  = flag.String("scheduler", "bidding", "allocation policy (bidding|baseline|spark-like|bidding-fast|bidding-topk|matchmaking|delay|random)")
		wlName     = flag.String("workload", "all_diff_equal", "job configuration")
		profName   = flag.String("workers", "all-equal", "worker configuration")
		jobs       = flag.Int("jobs", 120, "jobs per run")
		iterations = flag.Int("iterations", 1, "consecutive runs with warm caches")
		seed       = flag.Int64("seed", 1, "seed for workload and noise")
		verbose    = flag.Bool("v", false, "print per-worker breakdown")
		dumpTrace  = flag.Bool("trace", false, "dump the allocation event trace")
	)
	flag.Parse()

	pol, ok := core.PolicyByName(*scheduler)
	if !ok {
		fmt.Fprintf(os.Stderr, "xflow-sim: unknown scheduler %q\n", *scheduler)
		os.Exit(1)
	}
	jc, err := workload.ParseJobConfig(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-sim:", err)
		os.Exit(1)
	}
	prof, err := cluster.ParseProfile(*profName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-sim:", err)
		os.Exit(1)
	}

	states := cluster.Build(prof, cluster.Options{Seed: *seed}, nil)
	wallStart := time.Now()
	for it := 1; it <= *iterations; it++ {
		var trace *engine.TraceLog
		// The effective seed is per iteration; re-running with -seed set
		// to the printed value and -iterations 1 replays that iteration's
		// master decisions (minus the warmed cache state).
		effSeed := *seed + int64(it-1)
		cfg := engine.Config{
			Workers:   states,
			Allocator: pol.NewAllocator(),
			NewAgent:  pol.NewAgent,
			Workflow:  workload.Workflow(),
			Arrivals:  workload.Generate(jc, workload.Options{Jobs: *jobs, Seed: *seed}),
			Rand:      rand.New(rand.NewSource(effSeed)),
		}
		if *dumpTrace {
			trace = engine.NewTraceLog()
			cfg.Tracer = trace
		}
		rep, err := engine.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xflow-sim:", err)
			os.Exit(1)
		}
		t := &metrics.Table{
			Title: fmt.Sprintf("Iteration %d/%d — %s on %s / %s (seed %d)",
				it, *iterations, pol.Name, jc, prof, effSeed),
			Header: []string{"metric", "value"},
		}
		t.AddRow("makespan", rep.Makespan.Round(time.Millisecond).String())
		t.AddRow("jobs completed", fmt.Sprintf("%d", rep.JobsCompleted))
		t.AddRow("cache hits / misses", fmt.Sprintf("%d / %d", rep.CacheHits, rep.CacheMisses))
		t.AddRow("data load", metrics.MB(rep.DataLoadMB)+" MB")
		t.AddRow("contests / bids / fallbacks",
			fmt.Sprintf("%d / %d / %d", rep.Contests, rep.Bids, rep.Fallbacks))
		t.AddRow("contest msgs", fmt.Sprintf("%d", rep.ContestMsgs))
		t.AddRow("offers / rejections", fmt.Sprintf("%d / %d", rep.Offers, rep.Rejections))
		t.AddRow("mean allocation latency", rep.MeanAllocLatency.Round(time.Microsecond).String())
		flow := metrics.Flow(rep.Records)
		t.AddRow("job flow time p50/p90/p99",
			fmt.Sprintf("%v / %v / %v", flow.P50.Round(time.Millisecond),
				flow.P90.Round(time.Millisecond), flow.P99.Round(time.Millisecond)))
		t.Render(os.Stdout)
		if *verbose {
			wt := &metrics.Table{
				Header: []string{"worker", "jobs", "hits", "misses", "downloaded (MB)", "utilization"},
			}
			for _, w := range rep.Workers {
				wt.AddRow(w.Name, fmt.Sprintf("%d", w.JobsDone), fmt.Sprintf("%d", w.CacheHits),
					fmt.Sprintf("%d", w.CacheMisses), metrics.MB(w.DataLoadMB),
					metrics.Percent(w.Utilization))
			}
			wt.Render(os.Stdout)
		}
		if trace != nil {
			fmt.Println("allocation trace:")
			trace.Dump(os.Stdout)
		}
		fmt.Println()
	}
	fmt.Printf("(simulated %d iteration(s) in %v of wall time)\n",
		*iterations, time.Since(wallStart).Round(time.Millisecond))
}
