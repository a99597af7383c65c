// Command benchmark is the repository's benchmark: five workloads —
// closed-loop, sharded and paced TCP fleets, a 500-worker simulation and
// the paper's experiment grid — measured end to end with tracing off,
// and layer by layer in a separate traced pass driven from outside the
// program. BENCHMARK.json at the repository root is its contract;
// README.md says what each name means and which layer should move
// which number.
//
// One run, as the contract's driver makes them:
//
//	go run -C benchmark . --workload tcp_sessions_w8 --seed 1 --seconds 10 --trace 0
//
// prints every metric by name and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. --trace 1
// prints the per-layer metrics instead and writes the span tree to
// out/trace_<workload>.json.
//
// Every workload, both passes, each in a fresh process:
//
//	go run -C benchmark . -out out/results.json
//	go run -C benchmark . -workload sim_fleet_w500,sim_paper_grid
//
// Two result files against each metric's bound:
//
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func main() {
	start := time.Now()
	testing.Init() // the probes reuse internal/bench through testing.Benchmark
	var (
		workload = flag.String("workload", "all", "one workload name (a single run), or a comma-separated list or \"all\" (every pass of each, in fresh processes)")
		seed     = flag.Int64("seed", 1, "drives data-key draws, worker seeds and the grid's seed base")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "single run: 0 measures end to end with tracing off, 1 runs the traced pass and the per-layer probes")
		out      = flag.String("out", "", "suite: write the results as JSON to this path (default out/results.json beside the benchmark)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 past a bound")
		contract = flag.Bool("contract", false, "print BENCHMARK.json as generated from the benchmark's tables and exit")
	)
	flag.Parse()

	switch {
	case *contract:
		os.Stdout.Write(buildContract())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatalf("unexpected arguments %v", flag.Args())
	case *seconds <= 0:
		fatalf("-seconds must be positive")
	}

	if w, ok := workloadByName(*workload); ok {
		rc := &runCtx{
			workload: w.Name, seed: *seed, seconds: *seconds, trace: *trace != 0,
			p: full(), boot: time.Since(start), outDir: outDir(), log: os.Stdout, res: newResult(),
		}
		os.Exit(runOne(rc, w))
	}

	names, err := expandWorkloads(*workload)
	if err != nil {
		fatalf("%v", err)
	}
	path := *out
	if path == "" {
		path = outDir() + "/results.json"
	}
	os.Exit(runSuite(names, *seed, *seconds, path))
}

// runOne executes one workload in this process under a watchdog and
// prints its result line. A run that hangs is a failed run, never a
// hung benchmark: the watchdog counts every job still outstanding as
// failed, prints the line and exits.
func runOne(rc *runCtx, w workloadSpec) int {
	mode, specs := "end to end, tracing off", endToEnd
	if rc.trace {
		mode, specs = "traced pass and per-layer probes", perLayer
	}
	rc.logf("%s seed %d, %gs window: %s", rc.workload, rc.seed, rc.seconds, mode)

	done := make(chan error, 1)
	go func() { done <- w.run(rc) }()
	// Four times the expected wall (window, set-ups, reference slice),
	// inside the contract's 180 s.
	limit := min(170*time.Second, time.Duration(4*(rc.seconds+15)*float64(time.Second)))
	select {
	case err := <-done:
		if err != nil {
			rc.res.failf(1, "%v", err)
		}
	case <-time.After(limit):
		rc.res.failf(max(1, rc.res.outstanding()), "hard timeout after %v: the jobs still outstanding count as failed", limit)
	}
	line := rc.res.line(specs, !rc.trace)
	rc.res.report(rc.log, specs)
	rc.logf("%s", marshalLine(line))
	if !line.Correct {
		return 1
	}
	return 0
}

// expandWorkloads resolves "all" or a comma-separated list.
func expandWorkloads(arg string) ([]string, error) {
	if arg == "all" {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return names, nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		if _, ok := workloadByName(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// outDir is where span files and suite results go: out/ beside the
// benchmark's sources, whether the command runs from the benchmark's
// directory (go run -C benchmark .) or from the repository root.
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "benchmark/out"
	}
	return "out"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
