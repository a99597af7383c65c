package msr

import (
	"fmt"
	"testing"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/gitsim"
	"crossflow/internal/netsim"
)

func msrCluster(n int) []*engine.WorkerState {
	out := make([]*engine.WorkerState, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, engine.NewWorkerState(engine.WorkerSpec{
			Name: fmt.Sprintf("w%d", i),
			Net:  netsim.Speed{BaseMBps: 50},
			RW:   netsim.Speed{BaseMBps: 200},
			Seed: int64(i + 1),
		}, nil))
	}
	return out
}

func TestPipelineEndToEnd(t *testing.T) {
	catalog := gitsim.GenerateCatalog(8, gitsim.Medium, 42)
	hub := gitsim.NewHub(catalog, 100*time.Millisecond)
	libs := gitsim.Libraries(3)
	// Space libraries beyond a batch's drain time so each search's burst
	// of analysis jobs sees settled queues; the second and third batches
	// should then follow the clones made by the first.
	arrivals := make([]engine.Arrival, len(libs))
	for i, lib := range libs {
		arrivals[i] = engine.Arrival{
			At:  time.Duration(i) * 150 * time.Second,
			Job: &engine.Job{ID: fmt.Sprintf("lib-%d", i), Stream: StreamLibraries, Payload: lib},
		}
	}
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      msrCluster(3),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Hub:          hub,
		},
		Workflow: Pipeline(Config{}),
		Arrivals: arrivals,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 3 library jobs + 3x8 analysis jobs.
	if rep.JobsCompleted != 3+24 {
		t.Fatalf("JobsCompleted = %d, want 27", rep.JobsCompleted)
	}
	if len(rep.Results) != 24 {
		t.Fatalf("Results = %d, want 24 findings", len(rep.Results))
	}
	for _, r := range rep.Results {
		f, ok := r.(Finding)
		if !ok {
			t.Fatalf("result type %T", r)
		}
		if _, ok := catalog.Lookup(f.Repo); !ok {
			t.Errorf("finding for unknown repo %q", f.Repo)
		}
	}
	// Each library triggers a scan of each repo; only 8 distinct repos
	// exist, so at most 8 clones per worker are possible and locality
	// should keep misses well under the 24 analysis jobs.
	if rep.CacheMisses >= 24 {
		t.Errorf("CacheMisses = %d, locality never exploited", rep.CacheMisses)
	}
	if rep.CacheMisses < 8 {
		t.Errorf("CacheMisses = %d, impossible: 8 distinct repos must each be cloned once", rep.CacheMisses)
	}
}

func TestPipelineRejectsWrongPayloads(t *testing.T) {
	catalog := gitsim.GenerateCatalog(2, gitsim.Small, 1)
	hub := gitsim.NewHub(catalog, 0)
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      msrCluster(1),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Hub:          hub,
		},
		Workflow: Pipeline(Config{}),
		Arrivals: []engine.Arrival{{Job: &engine.Job{
			ID: "bad", Stream: StreamLibraries, Payload: 42, // not a string
		}}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", rep.JobsFailed)
	}
}

func TestLibraryArrivals(t *testing.T) {
	libs := []string{"a", "b", "c"}
	arr := LibraryArrivals(libs, 0, 1, 0)
	if len(arr) != 3 {
		t.Fatalf("len = %d", len(arr))
	}
	for i, a := range arr {
		if a.At != 0 {
			t.Errorf("arrival %d at %v, want 0 with zero mean", i, a.At)
		}
		if a.Job.Payload.(string) != libs[i] {
			t.Errorf("arrival %d payload %v", i, a.Job.Payload)
		}
	}
	spaced := LibraryArrivals(libs, time.Second, 1, 0)
	if spaced[2].At == 0 {
		t.Error("spaced arrivals all at t=0")
	}
	same := LibraryArrivals(libs, time.Second, 1, 0)
	for i := range spaced {
		if spaced[i].At != same[i].At {
			t.Error("arrivals not deterministic per seed")
		}
	}
}

func TestDependsOnDeterministicAndMixed(t *testing.T) {
	libs := gitsim.Libraries(20)
	repos := gitsim.GenerateCatalog(20, gitsim.Small, 7).Repos()
	yes, no := 0, 0
	for _, l := range libs {
		for _, r := range repos {
			a := DependsOn(l, r.Name)
			b := DependsOn(l, r.Name)
			if a != b {
				t.Fatal("DependsOn not deterministic")
			}
			if a {
				yes++
			} else {
				no++
			}
		}
	}
	total := yes + no
	if yes < total/5 || yes > total*3/5 {
		t.Errorf("dependency rate %d/%d implausible for a ~40%% target", yes, total)
	}
}

func TestCoOccurrences(t *testing.T) {
	results := []any{
		Finding{Library: "a", Repo: "r1", Depends: true},
		Finding{Library: "b", Repo: "r1", Depends: true},
		Finding{Library: "c", Repo: "r1", Depends: false}, // not a dep
		Finding{Library: "a", Repo: "r2", Depends: true},
		Finding{Library: "b", Repo: "r2", Depends: true},
		Finding{Library: "c", Repo: "r2", Depends: true},
		"garbage", // ignored
	}
	got := CoOccurrences(results)
	want := map[[2]string]int{
		{"a", "b"}: 2,
		{"a", "c"}: 1,
		{"b", "c"}: 1,
	}
	if len(got) != len(want) {
		t.Fatalf("CoOccurrences = %v", got)
	}
	if got[0].LibA != "a" || got[0].LibB != "b" || got[0].Count != 2 {
		t.Errorf("top pair = %+v, want a/b x2", got[0])
	}
	for _, co := range got {
		if want[[2]string{co.LibA, co.LibB}] != co.Count {
			t.Errorf("pair %s/%s = %d, want %d", co.LibA, co.LibB, co.Count,
				want[[2]string{co.LibA, co.LibB}])
		}
	}
}

func TestCoOccurrencesDeduplicatesRepeatedFindings(t *testing.T) {
	results := []any{
		Finding{Library: "a", Repo: "r1", Depends: true},
		Finding{Library: "a", Repo: "r1", Depends: true}, // repeated job
		Finding{Library: "b", Repo: "r1", Depends: true},
	}
	got := CoOccurrences(results)
	if len(got) != 1 || got[0].Count != 1 {
		t.Errorf("CoOccurrences with duplicates = %v", got)
	}
}

func TestScanFractionReducesProcessing(t *testing.T) {
	catalog := gitsim.GenerateCatalog(2, gitsim.Medium, 3)
	hub := gitsim.NewHub(catalog, 0)
	run := func(frac float64) time.Duration {
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      msrCluster(1),
				NewAllocator: func() engine.Allocator { return core.NewBidding() },
				NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
				Hub:          hub,
			},
			Workflow: Pipeline(Config{ScanFraction: frac}),
			Arrivals: LibraryArrivals([]string{"lodash"}, 0, 1, 0),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.Makespan
	}
	full := run(1.0)
	light := run(0.1)
	if light >= full {
		t.Errorf("scan fraction 0.1 (%v) not faster than 1.0 (%v)", light, full)
	}
}

func TestSearchCost(t *testing.T) {
	catalog := gitsim.GenerateCatalog(10, gitsim.Large, 1)
	hub := gitsim.NewHub(catalog, 300*time.Millisecond)
	cfg := Config{ResultInterval: 2 * time.Second} // empty filter matches all 10
	want := 300*time.Millisecond + 10*2*time.Second
	if got := cfg.SearchCost(hub); got != want {
		t.Errorf("SearchCost = %v, want %v", got, want)
	}
	strict := Config{Filter: gitsim.Filter{MinStars: 1 << 30}}
	if got := strict.SearchCost(hub); got != 300*time.Millisecond {
		t.Errorf("SearchCost with empty result = %v", got)
	}
}

func TestLibraryArrivalsCarryCostHint(t *testing.T) {
	arr := LibraryArrivals([]string{"a"}, 0, 1, 42*time.Second)
	if arr[0].Job.CostHint != 42*time.Second {
		t.Errorf("CostHint = %v", arr[0].Job.CostHint)
	}
}
