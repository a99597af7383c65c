// Command xflow-fuzz runs seeded simulation-testing scenarios against
// every allocation policy and reports the first invariant violation.
//
// Each scenario is generated deterministically from its seed: a random
// worker fleet, job stream, and fault plan (worker kills, network
// partitions, delay spikes, message loss, cache shrinks), executed on
// the simulated clock. The trace of every run is audited against the
// invariant library in internal/simtest, and each run is repeated to
// check same-seed byte-identity.
//
// On a violation the tool prints the seed, policy, invariant, and a
// greedily shrunk minimal scenario, then exits 1. Replay a reported
// seed with:
//
//	xflow-fuzz -seed N [-short]
//
// The generator draws differently under -short, so replay with the
// same flag the violation was found with.
//
// Scenarios are independent, so the sweep runs -parallel of them
// concurrently (default GOMAXPROCS); output and the reported violation
// are byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/simtest"
	"crossflow/internal/sweep"
)

func main() {
	var (
		scenarios = flag.Int("scenarios", 100, "number of seeded scenarios to run")
		start     = flag.Int64("start", 1, "first seed (seeds are start..start+scenarios-1)")
		seed      = flag.Int64("seed", 0, "replay exactly this seed and exit (0 = fuzz)")
		short     = flag.Bool("short", false, "generate smaller scenarios (CI profile)")
		policy    = flag.String("policy", "", "restrict to one policy name (default: all)")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "scenarios checked concurrently (1 = serial)")
		verbose   = flag.Bool("v", false, "print each scenario as it runs")
	)
	flag.Parse()

	opts := simtest.DefaultOptions()
	if *short {
		opts = simtest.ShortOptions()
	}
	if *policy != "" {
		var found bool
		for _, pol := range core.Policies() {
			if pol.Name == *policy {
				opts.Policies = []core.Policy{pol}
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "xflow-fuzz: unknown policy %q\n", *policy)
			os.Exit(2)
		}
	}

	if *seed != 0 {
		sc := simtest.Generate(*seed, opts.Limits)
		fmt.Printf("replaying seed %d:\n%s\n", *seed, sc)
		if v := simtest.CheckScenario(sc, opts); v != nil {
			report(sc, v, *short)
			os.Exit(1)
		}
		fmt.Printf("seed %d: all invariants hold\n", *seed)
		return
	}

	began := time.Now()
	if sc, v := sweepSeeds(*scenarios, *start, opts, *parallel, *verbose); v != nil {
		report(sc, v, *short)
		os.Exit(1)
	}
	fmt.Printf("xflow-fuzz: %d scenarios (seeds %d..%d), all invariants hold (%.1fs)\n",
		*scenarios, *start, *start+int64(*scenarios)-1, time.Since(began).Seconds())
}

// sweepSeeds checks seeds start..start+scenarios-1 on up to parallel
// goroutines. sweep.Each gives the serial loop's answer — the lowest-seed
// violation and the scenarios up to it — so printing those is
// byte-identical to -parallel 1 whatever the interleaving.
func sweepSeeds(scenarios int, start int64, opts simtest.Options, parallel int, verbose bool) (*simtest.Scenario, *simtest.Violation) {
	scs, err := sweep.Each(parallel, scenarios, func(i int) (*simtest.Scenario, error) {
		sc := simtest.Generate(start+int64(i), opts.Limits)
		if v := simtest.CheckScenario(sc, opts); v != nil {
			return sc, v
		}
		return sc, nil
	})
	if verbose {
		for _, sc := range scs {
			fmt.Printf("seed %d: %d workers, %d jobs, faults=%v\n",
				sc.Seed, len(sc.Workers), len(sc.Jobs), !sc.Faults.Empty())
		}
	}
	if err != nil {
		return scs[len(scs)-1], err.(*simtest.Violation)
	}
	return nil, nil
}

func report(sc *simtest.Scenario, v *simtest.Violation, short bool) {
	fmt.Printf("\nVIOLATION: %s\n\n", v.Error())
	min := simtest.Shrink(sc, v)
	fmt.Printf("shrunk scenario (%d workers, %d jobs):\n%s\n", len(min.Workers), len(min.Jobs), min)
	repro := fmt.Sprintf("go run ./cmd/xflow-fuzz -seed %d -policy %s", v.Seed, v.Policy)
	if short {
		repro += " -short"
	}
	fmt.Printf("replay: %s\n", repro)
}
