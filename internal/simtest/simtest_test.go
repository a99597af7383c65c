package simtest

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/workload"
)

// TestGenerateIsDeterministic: the same seed must yield the same
// scenario, and nearby seeds must not yield the same one.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, DefaultLimits())
		b := Generate(seed, DefaultLimits())
		if a.String() != b.String() {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a, b)
		}
	}
	if Generate(1, DefaultLimits()).String() == Generate(2, DefaultLimits()).String() {
		t.Error("seeds 1 and 2 generated identical scenarios")
	}
}

// TestGeneratedScenariosAreWellFormed spot-checks the generator's
// structural guarantees over a seed range.
func TestGeneratedScenariosAreWellFormed(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed, DefaultLimits())
		if len(sc.Workers) == 0 || len(sc.Jobs) == 0 {
			t.Fatalf("seed %d: empty scenario", seed)
		}
		if sc.Deadline <= 0 {
			t.Fatalf("seed %d: no deadline", seed)
		}
		names := make(map[string]bool)
		for _, w := range sc.Workers {
			names[w.Name] = true
		}
		if len(sc.Faults.Kills) >= len(sc.Workers) {
			t.Fatalf("seed %d: kills %d leave no survivor among %d workers",
				seed, len(sc.Faults.Kills), len(sc.Workers))
		}
		for _, k := range sc.Faults.Kills {
			if !names[k.Worker] {
				t.Fatalf("seed %d: kill of unknown worker %q", seed, k.Worker)
			}
		}
		for _, s := range sc.Faults.Shrinks {
			if !names[s.Worker] {
				t.Fatalf("seed %d: shrink of unknown worker %q", seed, s.Worker)
			}
		}
	}
}

// TestGenerateDrawsBigFleets: with BigFleetWorkers set, a fraction of
// scenarios must land in the scale regime (fleets past MaxWorkers, up
// to the big-fleet cap) — the regime the targeted-contest policy is
// for — and those scenarios must hold every invariant like any other.
func TestGenerateDrawsBigFleets(t *testing.T) {
	lim := ShortLimits()
	var bigSeeds []int64
	for seed := int64(1); seed <= 120; seed++ {
		sc := Generate(seed, lim)
		if n := len(sc.Workers); n > lim.MaxWorkers {
			if n > lim.BigFleetWorkers {
				t.Fatalf("seed %d: %d workers exceeds BigFleetWorkers %d",
					seed, n, lim.BigFleetWorkers)
			}
			bigSeeds = append(bigSeeds, seed)
		}
	}
	if len(bigSeeds) < 5 {
		t.Fatalf("only %d of 120 seeds drew big fleets, want a steady fraction", len(bigSeeds))
	}
	// One full invariant pass on a big fleet with the targeted-contest
	// policy: the index-consistency discipline must hold at scale.
	pol, _ := core.PolicyByName("bidding-topk")
	sc := Generate(bigSeeds[0], lim)
	if v := CheckScenario(sc, Options{Limits: lim, Policies: []core.Policy{pol}}); v != nil {
		t.Fatalf("big fleet (%d workers): %v", len(sc.Workers), v)
	}
}

// TestSeedSweepHoldsInvariants is the in-tree slice of the fuzz sweep:
// every policy, every invariant, over a block of seeds. xflow-fuzz runs
// the same check over much larger ranges.
func TestSeedSweepHoldsInvariants(t *testing.T) {
	n := int64(30)
	if testing.Short() {
		n = 8
	}
	for seed := int64(1); seed <= n; seed++ {
		if v := CheckSeed(seed, ShortOptions()); v != nil {
			t.Fatalf("%v", v)
		}
	}
}

// FuzzScenario is the native fuzz harness over the scenario seed; `go
// test -fuzz=FuzzScenario ./internal/simtest` explores seeds beyond the
// corpus.
func FuzzScenario(f *testing.F) {
	// Corpus: a couple of regular seeds plus the named regression corpus
	// of seeds whose scenarios exposed real engine bugs during
	// development (see regression_test.go).
	for _, seed := range []int64{1, 17} {
		f.Add(seed)
	}
	for _, rc := range regressionCorpus {
		f.Add(rc.seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if seed == 0 {
			seed = 1
		}
		if v := CheckSeed(seed, ShortOptions()); v != nil {
			t.Fatalf("%v", v)
		}
	})
}

// TestCheckTraceFlagsViolations feeds CheckTrace hand-built corrupted
// runs and expects each corruption to be caught by the right invariant.
func TestCheckTraceFlagsViolations(t *testing.T) {
	sc := &Scenario{
		Seed:    99,
		Workers: []WorkerCfg{{Name: "w0", NetMBps: 10, RWMBps: 100, CacheMB: -1}},
		Jobs:    []JobCfg{{ID: "job-000", Key: "key-0", SizeMB: 10}},
	}
	events := func(kinds ...engine.TraceEventKind) []engine.TraceEvent {
		evs := make([]engine.TraceEvent, len(kinds))
		for i, k := range kinds {
			evs[i] = engine.TraceEvent{Kind: k, JobID: "job-000", Node: "w0"}
		}
		return evs
	}
	cases := []struct {
		name      string
		events    []engine.TraceEvent
		invariant string
	}{
		{
			"double finish",
			events(engine.TraceInjected, engine.TraceFinished, engine.TraceFinished),
			"lifecycle-exactly-once",
		},
		{
			"redispatch without kill",
			events(engine.TraceInjected, engine.TraceAssigned, engine.TraceRedispatch),
			"redispatch-after-death",
		},
		{
			"event before injection",
			events(engine.TraceAssigned),
			"timestamps-monotone",
		},
	}
	for _, tc := range cases {
		r := &RunResult{Policy: "random", Events: tc.events, Err: engine.ErrDeadlocked}
		scLossy := sc.clone()
		scLossy.Faults.DropProb = 0.1
		v := CheckTrace(scLossy, r)
		if v == nil {
			t.Errorf("%s: no violation reported", tc.name)
			continue
		}
		if v.Invariant != tc.invariant {
			t.Errorf("%s: flagged %q, want %q (%s)", tc.name, v.Invariant, tc.invariant, v.Detail)
		}
	}
}

// TestExecuteRunsCleanScenario runs one benign scenario end to end for
// every policy and checks the basic shape of the results.
func TestExecuteRunsCleanScenario(t *testing.T) {
	sc := &Scenario{
		Seed: 7,
		Workers: []WorkerCfg{
			{Name: "w0", NetMBps: 20, RWMBps: 100, CacheMB: -1, Link: 5 * time.Millisecond, Seed: 71},
			{Name: "w1", NetMBps: 10, RWMBps: 100, CacheMB: -1, Link: 9 * time.Millisecond, Seed: 72},
		},
		Jobs: []JobCfg{
			{ID: "job-000", Key: "key-0", SizeMB: 40},
			{ID: "job-001", Key: "key-1", SizeMB: 60, At: time.Second},
			{ID: "poison-002", Key: "key-0", SizeMB: 40, At: 2 * time.Second, Poison: true},
		},
		Deadline: 10 * time.Minute,
	}
	for _, pol := range core.Policies() {
		r := Execute(sc, pol)
		if r.Err != nil {
			t.Fatalf("%s: %v", pol.Name, r.Err)
		}
		if r.Report.JobsCompleted != 3 || r.Report.JobsFailed != 1 {
			t.Errorf("%s: completed=%d failed=%d, want 3/1",
				pol.Name, r.Report.JobsCompleted, r.Report.JobsFailed)
		}
		if v := CheckTrace(sc, r); v != nil {
			t.Errorf("%s: %v", pol.Name, v)
		}
	}
}

// TestShrinkKeepsScenarioRunnable: shrinking only keeps reductions that
// reproduce the original (policy, invariant) failure, so on a scenario
// that no longer fails at all it must return the input untouched.
func TestShrinkKeepsScenarioRunnable(t *testing.T) {
	sc := Generate(438, DefaultLimits())
	v := &Violation{Seed: 438, Policy: "bidding", Invariant: "completion"}
	// Seed 438's scenario no longer fails (the bug it exposed is fixed),
	// so Shrink must return the input unchanged: no candidate reproduces.
	min := Shrink(sc, v)
	if min.String() != sc.String() {
		t.Errorf("Shrink reduced a passing scenario:\n%s", min)
	}
}

// TestGoldenFigure3CellDeterminism is the golden regression for
// whole-pipeline determinism (not just simtest scenarios): one mid-size
// Figure-3 cell — Rep80Small workload on the FastSlow profile — run
// twice with the same seed must serialize to byte-identical traces and
// metrics.
func TestGoldenFigure3CellDeterminism(t *testing.T) {
	run := func() (string, string) {
		states := cluster.Build(cluster.FastSlow, cluster.Options{Seed: 11}, nil)
		arrivals := workload.Generate(workload.Rep80Small, workload.Options{Jobs: 40, Seed: 11})
		trace := engine.NewTraceLog()
		pol, _ := core.PolicyByName("bidding")
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      states,
				NewAllocator: pol.NewAllocator,
				NewAgent:     pol.NewAgent,
				Seed:         11,
				Tracer:       trace,
			},
			Workflow: workload.Workflow(),
			Arrivals: arrivals,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return FormatTrace(trace.Events()), FormatReport(rep)
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 {
		t.Errorf("same-seed Figure-3 cell produced different traces:\n%s", firstDiff(t1, t2))
	}
	if r1 != r2 {
		t.Errorf("same-seed Figure-3 cell produced different metrics:\n%s", firstDiff(r1, r2))
	}
	if !strings.Contains(r1, "allocator bidding") {
		t.Errorf("report serialization missing allocator line:\n%s", r1)
	}
}

// sameSeedGolden holds the first transcript TestSameSeedTraceAcrossCPUs
// produced per configuration, so that `go test -cpu 1,2,4` — which
// re-runs the test in this process once per GOMAXPROCS — compares the
// runs with each other and not only with themselves.
var sameSeedGolden = map[string]string{}

// TestSameSeedTraceAcrossCPUs is the determinism regression for the
// goroutine-free message path: on every route the kernel has — clock
// deliveries handled on the advancing goroutine, direct sends into a
// served inbox (the sharded router's forwards, fault injection) on
// drain goroutines, worker self-timers (bid delay, pull retry, register
// retry) — the same seed must give the same trace and report however
// many Ps run it. CI runs it at -cpu 1,2,4.
func TestSameSeedTraceAcrossCPUs(t *testing.T) {
	sc := &Scenario{Seed: 77, Deadline: 10 * time.Minute}
	for i := 0; i < 5; i++ {
		sc.Workers = append(sc.Workers, WorkerCfg{
			Name:      "w" + string(rune('0'+i)),
			NetMBps:   20 + 10*float64(i),
			RWMBps:    80 + 20*float64(i),
			NoiseAmp:  0.2,
			CacheMB:   300,
			Link:      time.Duration(1+i) * time.Millisecond,
			BidDelay:  time.Duration(5*i) * time.Millisecond, // w0 bids inline, the rest by self-timer
			Heartbeat: 200 * time.Millisecond,
			Seed:      int64(100 + i),
		})
	}
	for j := 0; j < 24; j++ {
		sc.Jobs = append(sc.Jobs, JobCfg{
			ID:     "j" + string(rune('a'+j)),
			At:     time.Duration(j/6) * 300 * time.Millisecond, // bursts of six at one instant
			Key:    "key-" + string(rune('0'+j%5)),
			SizeMB: 40,
		})
	}
	sc.Faults.Kills = []engine.Kill{{Worker: "w3", At: 2500 * time.Millisecond}}
	sc.Faults.Drains = []engine.Drain{{Worker: "w1", At: 1200 * time.Millisecond}}

	for _, shards := range []int{0, 2} {
		for _, name := range []string{"bidding", "bidding-topk", "matchmaking"} {
			pol, ok := core.PolicyByName(name)
			if !ok {
				t.Fatalf("unknown policy %q", name)
			}
			sc.Shards = shards
			key := name + "/" + string(rune('0'+shards))
			for rerun := 0; rerun < 3; rerun++ {
				r := Execute(sc, pol)
				if r.Err != nil {
					t.Fatalf("%s: %v", key, r.Err)
				}
				got := FormatTrace(r.Events) + FormatReport(r.Report)
				want, seen := sameSeedGolden[key]
				if !seen {
					sameSeedGolden[key] = got
					continue
				}
				if got != want {
					t.Fatalf("%s: same seed, different run (rerun %d, GOMAXPROCS %d):\n%s",
						key, rerun, runtime.GOMAXPROCS(0), firstDiff(want, got))
				}
			}
		}
	}
}
