// Command xflow-check exhaustively model-checks the allocation protocol
// on a bounded configuration: it enumerates every interleaving of a
// small fleet and job stream (optionally racing one kill, drain, or
// join) and audits each one against the simtest invariant library.
//
// Where xflow-fuzz samples one interleaving per seed, xflow-check
// explores all of them, driving the simulated clock's scheduling-choice
// hook (see internal/modelcheck). On a violation it prints the
// invariant, the shrunk schedule, and the violating trace, writes a
// replayable counterexample file, and exits 1. Replay one with:
//
//	xflow-check -replay counterexample.json
//
// Pull policies (matchmaking, delay) re-arm their heartbeat timers
// forever and cannot be exhausted; they default to a depth bound and
// the run reports "bounded" instead of "exhausted".
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/modelcheck"
	"crossflow/internal/simtest"
)

func main() {
	var (
		workers  = flag.Int("workers", 2, "fleet size of the bounded configuration")
		jobs     = flag.Int("jobs", 3, "job-stream length of the bounded configuration")
		policy   = flag.String("policy", "", "comma-separated policy names (default: all)")
		depth    = flag.Int("depth", 0, "max scheduling decisions per run (0 = unbounded; pull policies default to 20)")
		maxRuns  = flag.Int("max-runs", 0, "max executions per policy (0 = unbounded)")
		shards   = flag.Int("shards", 0, "contest shards for the sharded control plane (0 or 1 = classic single master)")
		kill     = flag.String("kill", "", "kill this worker at every explored point (e.g. w1)")
		drain    = flag.String("drain", "", "gracefully drain this worker at every explored point")
		join     = flag.Bool("join", false, "add one worker (j0) joining at every explored point")
		noPOR    = flag.Bool("no-por", false, "disable sleep-set partial-order reduction (cross-check mode)")
		out      = flag.String("o", "counterexample.json", "write the counterexample here on violation")
		replay   = flag.String("replay", "", "replay a counterexample file and exit")
		progress = flag.Bool("progress", false, "print running statistics during exploration")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayFile(*replay))
	}

	pols, err := selectPolicies(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xflow-check: %v\n", err)
		os.Exit(2)
	}

	exit := 0
	for _, pol := range pols {
		if !check(pol, *workers, *jobs, *shards, *kill, *drain, *join, *depth, *maxRuns, *noPOR, *out, *progress) {
			exit = 1
			break
		}
	}
	os.Exit(exit)
}

// check explores one policy's bounded state space. It returns false on
// an invariant violation (after writing the counterexample file).
func check(pol core.Policy, workers, jobs, shards int, kill, drain string, join bool,
	depth, maxRuns int, noPOR bool, out string, progress bool) bool {

	sc := modelcheck.BoundedScenario(modelcheck.Bounds{
		Workers: workers, Jobs: jobs, Shards: shards,
		Kill: kill, Drain: drain, Join: join,
	}, pol)
	if modelcheck.UsesPullTimers(pol) {
		// Pull heartbeats re-arm forever; unbounded exploration would
		// never terminate, and even one depth level multiplies the space.
		// Keep the default smoke bounded in both dimensions.
		if depth == 0 {
			depth = 20
		}
		if maxRuns == 0 {
			maxRuns = 20000
		}
		fmt.Printf("%s: pull policy, bounding to -depth %d -max-runs %d\n", pol.Name, depth, maxRuns)
	}
	cfg := modelcheck.Config{
		Scenario:   sc,
		Policy:     pol,
		MaxDepth:   depth,
		MaxRuns:    maxRuns,
		DisablePOR: noPOR,
	}
	if progress {
		last := time.Now()
		cfg.Progress = func(s modelcheck.Stats) {
			if time.Since(last) >= time.Second {
				last = time.Now()
				fmt.Printf("%s: ... %s\n", pol.Name, modelcheck.FormatStats(s))
			}
		}
	}

	began := time.Now()
	res, err := modelcheck.Check(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xflow-check: %v\n", err)
		os.Exit(2)
	}
	secs := time.Since(began).Seconds()

	if res.Violation != nil {
		ce := res.Counterexample
		fmt.Printf("%s: VIOLATION %s: %s\n", pol.Name, ce.Invariant, ce.Detail)
		fmt.Printf("%s: schedule %v\n", pol.Name, ce.Schedule)
		fmt.Printf("%s: %s (%.1fs)\n", pol.Name, modelcheck.FormatStats(res.Stats), secs)
		if data, err := ce.Encode(); err == nil {
			if err := os.WriteFile(out, data, 0o644); err == nil {
				fmt.Printf("%s: counterexample written to %s (replay: xflow-check -replay %s)\n",
					pol.Name, out, out)
			} else {
				fmt.Fprintf(os.Stderr, "xflow-check: writing %s: %v\n", out, err)
			}
		}
		fmt.Printf("\nviolating trace:\n%s\n", ce.Trace)
		return false
	}

	verdict := "exhausted"
	if !res.Exhausted {
		verdict = "bounded"
	}
	fmt.Printf("%s: %s, no violations — %s (%.1fs)\n",
		pol.Name, verdict, modelcheck.FormatStats(res.Stats), secs)
	return true
}

// replayFile re-executes a counterexample file and reports whether it
// still violates. Exits 1 if it reproduces, 0 if the bug is gone.
func replayFile(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xflow-check: %v\n", err)
		return 2
	}
	ce, err := simtest.DecodeCounterexample(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xflow-check: %v\n", err)
		return 2
	}
	r, v, err := ce.Replay()
	if err != nil {
		fmt.Fprintf(os.Stderr, "xflow-check: %v\n", err)
		return 2
	}
	if v == nil {
		fmt.Printf("%s: schedule no longer violates %q (bug fixed, or code drifted)\n",
			ce.Policy, ce.Invariant)
		return 0
	}
	fmt.Printf("%s: reproduced %s: %s\n", ce.Policy, v.Invariant, v.Detail)
	fmt.Printf("\ntrace:\n%s\n", simtest.FormatTrace(r.Events))
	return 1
}

// selectPolicies resolves the -policy flag: a comma-separated list, or
// every registered policy when empty.
func selectPolicies(names string) ([]core.Policy, error) {
	if names == "" {
		return core.Policies(), nil
	}
	var out []core.Policy
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		pol, ok := core.PolicyByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown policy %q", name)
		}
		out = append(out, pol)
	}
	return out, nil
}
