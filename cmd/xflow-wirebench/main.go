// Command xflow-wirebench measures wire-protocol throughput with a real
// deployment: a loopback broker in this process, a cluster master
// dialing it, and N worker OS processes (re-executions of this binary
// with -role worker) bidding over TCP. Each fleet size's wall-clock
// jobs/s and bytes/job become the checked-in wire_w* rows (group "wire"
// in the BENCH_*.json schema).
//
// Usage:
//
//	xflow-wirebench -out wire.json
//	xflow-wirebench -baseline BENCH_3.json -threshold 0.35
//
// With -baseline the run is compared against the "wire" group of a
// previous result file and the process exits 1 on regression, mirroring
// cmd/xflow-bench (which gates every group but "wire").
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/perf"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

func main() {
	var (
		role      = flag.String("role", "bench", "internal: bench (parent) or worker (spawned)")
		out       = flag.String("out", "", "write results as xflow-bench/v1 JSON to this path")
		baseline  = flag.String("baseline", "", "compare the wire group against this bench JSON; exit 1 on regression")
		threshold = flag.Float64("threshold", 0.35, "relative growth a gating metric may show before it fails the comparison")
		jobs      = flag.Int("jobs", 800, "jobs per measured run")
		fleets    = flag.String("fleets", "8,32", "comma-separated worker counts to measure")
		shardRows = flag.String("shard-ladder", "2,4", "shard counts for the sharded-control-plane rows on the largest fleet (empty = skip)")
		repeat    = flag.Int("repeat", 2, "runs per fleet; the fastest is kept")
		scale     = flag.Float64("time-scale", 1000, "clock compression factor for the engine clocks")

		// worker-role flags, set by the parent when re-executing itself.
		brokerAddr = flag.String("broker", "", "worker: broker address")
		name       = flag.String("name", "", "worker: unique worker name")

		cpuprofile = flag.String("cpuprofile", "", "write a parent-process CPU profile to this path")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}

	if *role == "worker" {
		runWorker(*brokerAddr, *name, *scale)
		return
	}
	if *repeat < 1 {
		*repeat = 1
	}

	var sizes []int
	for _, s := range strings.Split(*fleets, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatalf("bad -fleets entry %q", s)
		}
		sizes = append(sizes, n)
	}

	file := &perf.File{Schema: perf.Schema, Go: runtime.Version()}
	// measure runs one (fleet, shards) configuration -repeat times and
	// records the fastest as a wire-group row.
	measure := func(name string, w, shards int) {
		best := runResult{elapsed: 1<<63 - 1}
		for i := 0; i < *repeat; i++ {
			if r := runOnce(w, shards, *jobs, *scale); r.elapsed < best.elapsed {
				best = r
			}
		}
		res := perf.Result{
			Name:       name,
			Group:      "wire",
			Iterations: *jobs,
			NsPerOp:    float64(best.elapsed.Nanoseconds()) / float64(*jobs),
			Metrics: map[string]float64{
				"wire_jobs_per_sec":  float64(*jobs) / best.elapsed.Seconds(),
				"wire_bytes_per_job": float64(best.bytes) / float64(*jobs),
			},
		}
		file.Results = append(file.Results, res)
		fmt.Printf("%-16s %8d jobs %14.1f ns/job  wire_bytes_per_job=%.2f  wire_jobs_per_sec=%.2f\n",
			res.Name, res.Iterations, res.NsPerOp,
			res.Metrics["wire_bytes_per_job"], res.Metrics["wire_jobs_per_sec"])
	}
	for _, w := range sizes {
		measure(fmt.Sprintf("wire_w%d", w), w, 1)
	}

	// Sharded-control-plane rows: the largest fleet again, but with the
	// master split into S contest shards behind the frontend router. On
	// this real deployment the shard loops (and their broker
	// connections) run on parallel OS threads, so these rows are where a
	// control-plane-bound fleet shows sharding's throughput win — the
	// simulated-clock ladder in cmd/xflow-bench can only price the extra
	// hop, since its kernel serializes every delivery.
	if *shardRows != "" && len(sizes) > 0 {
		w := sizes[len(sizes)-1]
		for _, s := range strings.Split(*shardRows, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 {
				fatalf("bad -shard-ladder entry %q", s)
			}
			measure(fmt.Sprintf("wire_shard_s%d_w%d", n, w), w, n)
		}
	}

	if *out != "" {
		// Merge into an existing bench file: this binary owns only the
		// wire group; cmd/xflow-bench's rows in a shared baseline such as
		// BENCH_3.json must survive a wire refresh.
		merged := file
		if prev, err := perf.Load(*out); err == nil {
			merged = prev.WithoutGroup("wire")
			merged.Go = file.Go
			merged.Results = append(merged.Results, file.Results...)
		}
		if err := merged.Write(*out); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %d results to %s\n", len(merged.Results), *out)
	}

	if *baseline != "" {
		base, err := perf.Load(*baseline)
		if err != nil {
			fatalf("load baseline: %v", err)
		}
		// Only the wire group belongs to this binary; the rest of the
		// baseline is cmd/xflow-bench's to gate.
		rep := perf.Compare(base.Group("wire"), file, *threshold)
		fmt.Printf("\ncomparison vs %s (threshold %.0f%%):\n", *baseline, *threshold*100)
		for _, d := range rep.Deltas {
			fmt.Println(perf.FormatDelta(d))
		}
		for _, missing := range rep.MissingFromCurrent {
			fmt.Printf("%-40s MISSING from current run\n", missing)
		}
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "xflow-wirebench: %d regression(s), %d missing benchmark(s)\n",
				len(rep.Regressions()), len(rep.MissingFromCurrent))
			os.Exit(1)
		}
		fmt.Println("no regressions")
	}
}

type runResult struct {
	elapsed time.Duration
	bytes   uint64
}

// runOnce stands up one full deployment — broker, master, and a fleet of
// worker processes — pushes a job batch through a session, and measures
// wall time from fleet-ready to session report plus the broker's byte
// counters over the same span. shards > 1 replaces the single master
// with the sharded control plane: the frontend router keeps the master
// name, and each contest shard dials its own broker connection.
func runOnce(workers, shards, jobs int, scale float64) runResult {
	srv, err := transport.Serve("127.0.0.1:0")
	if err != nil {
		fatalf("serve: %v", err)
	}
	defer srv.Close()

	exe, err := os.Executable()
	if err != nil {
		fatalf("executable: %v", err)
	}
	procs := make([]*exec.Cmd, 0, workers)
	for i := 0; i < workers; i++ {
		cmd := exec.Command(exe,
			"-role=worker",
			"-broker="+srv.Addr(),
			fmt.Sprintf("-name=w%03d", i),
			fmt.Sprintf("-time-scale=%g", scale),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fatalf("spawn worker %d: %v", i, err)
		}
		procs = append(procs, cmd)
	}

	clk := vclock.NewScaledReal(scale)
	port, err := transport.Dial(srv.Addr(), engine.MasterName, 0, clk)
	if err != nil {
		fatalf("dial: %v", err)
	}
	defer port.Close()

	pol, ok := core.PolicyByName("bidding")
	if !ok {
		fatalf("bidding policy unavailable")
	}
	var master *engine.Plane
	if shards > 1 {
		var shardPorts []engine.Port
		for i := 0; i < shards; i++ {
			sp, err := transport.Dial(srv.Addr(), engine.ShardName(i), 0, clk)
			if err != nil {
				fatalf("dial shard: %v", err)
			}
			defer sp.Close()
			shardPorts = append(shardPorts, sp)
		}
		master = &engine.NewShardedClusterMaster(clk, port, shardPorts,
			pol.NewAllocator, workers, rand.New(rand.NewSource(1))).Plane
	} else {
		master = &engine.NewClusterMaster(clk, port, pol.NewAllocator(), workers, rand.New(rand.NewSource(1))).Plane
	}
	master.Start()

	done := make(chan runResult, 1)
	clk.Go(func() {
		master.WaitReady()
		before := srv.WireStats()
		start := time.Now()
		sess := master.OpenSession("wirebench", workload.Workflow())
		for i := 0; i < jobs; i++ {
			// Small payloads over a modest key space: execution is cheap
			// and mostly cache-hot, so the wall clock is dominated by the
			// bid/assign/report message rounds — the thing under test.
			sess.Submit(&engine.Job{
				ID:         fmt.Sprintf("j%04d", i),
				Stream:     workload.Stream,
				DataKey:    fmt.Sprintf("wire/k%02d", i%workers),
				DataSizeMB: 4,
			})
		}
		sess.Close()
		rep := sess.Wait()
		elapsed := time.Since(start)
		after := srv.WireStats()
		master.Shutdown()
		if rep == nil || rep.JobsCompleted != jobs {
			got := -1
			if rep != nil {
				got = rep.JobsCompleted
			}
			fatalf("w=%d s=%d: completed %d/%d jobs", workers, shards, got, jobs)
		}
		done <- runResult{
			elapsed: elapsed,
			bytes:   (after.BytesIn - before.BytesIn) + (after.BytesOut - before.BytesOut),
		}
	})
	clk.Wait()
	res := <-done

	for _, cmd := range procs {
		waitProc(cmd)
	}
	return res
}

// waitProc reaps a worker process, killing it if the stop broadcast did
// not land within a generous grace period (a hung fleet must fail the
// bench, not wedge it).
func waitProc(cmd *exec.Cmd) {
	ch := make(chan error, 1)
	go func() { ch <- cmd.Wait() }()
	select {
	case err := <-ch:
		if err != nil {
			fatalf("worker %d exited: %v", cmd.Process.Pid, err)
		}
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-ch
		fatalf("worker %d did not stop; killed", cmd.Process.Pid)
	}
}

// runWorker is the spawned-process role: one bidding worker with fast,
// noise-free hardware and a cache big enough that repeat keys hit, so
// the fleet's wall time stays wire-bound.
func runWorker(broker, name string, scale float64) {
	if broker == "" || name == "" {
		fatalf("worker role requires -broker and -name")
	}
	var seed int64
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	clk := vclock.NewScaledReal(scale)
	port, err := transport.Dial(broker, name, 0, clk)
	if err != nil {
		fatalf("worker %s: dial: %v", name, err)
	}
	defer port.Close()

	pol, ok := core.PolicyByName("bidding")
	if !ok {
		fatalf("bidding policy unavailable")
	}
	st := engine.NewWorkerState(engine.WorkerSpec{
		Name:    name,
		Net:     netsim.Speed{BaseMBps: 200},
		RW:      netsim.Speed{BaseMBps: 800},
		CacheMB: 1 << 20,
		Seed:    seed,
	}, nil)
	engine.NewWorker(clk, port, workload.Workflow(), st, nil, pol.NewAgent(st)).Start()
	clk.Wait() // returns when the stop broadcast closes the loops
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xflow-wirebench: "+format+"\n", args...)
	os.Exit(1)
}
