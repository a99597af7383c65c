package engine_test

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
)

// TestPropertyAllSchedulersConserveJobs drives every policy over
// randomized small configurations — including a random fault plan of
// zero to two worker kills — and checks the engine's conservation
// invariants: every job finishes exactly once, per-worker completions
// sum to the total, every cache miss is one download, and every
// data-bound execution is either a hit or a miss.
func TestPropertyAllSchedulersConserveJobs(t *testing.T) {
	policies := core.Policies()
	prop := func(polRaw, nWorkersRaw, nJobsRaw, nKeysRaw, killsRaw uint8, seed int64) bool {
		pol := policies[int(polRaw)%len(policies)]
		nWorkers := int(nWorkersRaw)%4 + 1
		nJobs := int(nJobsRaw)%25 + 1
		nKeys := int(nKeysRaw)%8 + 1

		// Kill up to two workers, always leaving a survivor; killing this
		// late-ish (seconds in) lets the schedulers allocate first, so the
		// redispatch path actually runs.
		nKills := int(killsRaw) % 3
		if nKills >= nWorkers {
			nKills = nWorkers - 1
		}
		var kills []engine.Kill
		for k := 0; k < nKills; k++ {
			kills = append(kills, engine.Kill{
				Worker: fmt.Sprintf("w%d", k),
				At:     time.Duration(int(seed)&0x3F+1+10*k) * time.Second,
			})
		}

		workers := testCluster(nWorkers, 20, 100, 0)
		arrivals := make([]engine.Arrival, nJobs)
		for i := range arrivals {
			arrivals[i] = engine.Arrival{
				At: time.Duration(i) * 500 * time.Millisecond,
				Job: &engine.Job{
					ID:         fmt.Sprintf("p%03d", i),
					Stream:     "work",
					DataKey:    fmt.Sprintf("k%d", (int(seed)+i)%nKeys),
					DataSizeMB: float64(10 + i%90),
				},
			}
		}
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      workers,
				NewAllocator: pol.NewAllocator,
				NewAgent:     pol.NewAgent,
				Seed:         seed,
			},
			Workflow: dataWorkflow(),
			Arrivals: arrivals,
			Kills:    kills,
		})
		if err != nil {
			t.Logf("%s: %v", pol.Name, err)
			return false
		}
		if rep.JobsCompleted != nJobs || rep.JobsFailed != 0 {
			t.Logf("%s: completed %d/%d failed %d", pol.Name, rep.JobsCompleted, nJobs, rep.JobsFailed)
			return false
		}
		var perWorker int
		for _, w := range rep.Workers {
			perWorker += w.JobsDone
		}
		// A killed worker drains its queue into its own counters but its
		// completions are lost to the master, so under kills the per-worker
		// sum may exceed the master's count; without kills they must match.
		if perWorker != nJobs && nKills == 0 {
			t.Logf("%s: per-worker sum %d != %d", pol.Name, perWorker, nJobs)
			return false
		}
		if perWorker < nJobs {
			t.Logf("%s: per-worker sum %d < %d completed", pol.Name, perWorker, nJobs)
			return false
		}
		if rep.Downloads != rep.CacheMisses {
			t.Logf("%s: downloads %d != misses %d", pol.Name, rep.Downloads, rep.CacheMisses)
			return false
		}
		if rep.CacheHits+rep.CacheMisses != perWorker {
			t.Logf("%s: hits %d + misses %d != executions %d", pol.Name, rep.CacheHits, rep.CacheMisses, perWorker)
			return false
		}
		// Every record finished, with sane timestamps.
		for id, rec := range rep.Records {
			if rec.Status != engine.StatusFinished {
				t.Logf("%s: job %s in %v", pol.Name, id, rec.Status)
				return false
			}
			if rec.Finished.Before(rec.Injected) {
				t.Logf("%s: job %s finished before injection", pol.Name, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBiddingNeverLosesJobsUnderCrashes injects a worker crash
// at a random time and checks that the workflow still completes every
// job exactly once under the bidding policy.
func TestPropertyBiddingNeverLosesJobsUnderCrashes(t *testing.T) {
	prop := func(nJobsRaw, killAtRaw uint8, seed int64) bool {
		nJobs := int(nJobsRaw)%15 + 2
		killAt := time.Duration(int(killAtRaw)%60+1) * time.Second
		workers := testCluster(3, 10, 100, 0)
		arrivals := make([]engine.Arrival, nJobs)
		for i := range arrivals {
			arrivals[i] = engine.Arrival{Job: &engine.Job{
				ID:         fmt.Sprintf("c%03d", i),
				Stream:     "work",
				DataKey:    fmt.Sprintf("k%d", i),
				DataSizeMB: 100,
			}}
		}
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      workers,
				NewAllocator: func() engine.Allocator { return core.NewBidding() },
				NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
				Seed:         seed,
			},
			Workflow: dataWorkflow(),
			Arrivals: arrivals,
			Kills:    []engine.Kill{{Worker: "w1", At: killAt}},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return rep.JobsCompleted == nJobs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertySimulationDeterministic checks that identical
// configurations produce identical makespans and metrics — the property
// the experiment harness relies on for fair scheduler comparisons.
func TestPropertySimulationDeterministic(t *testing.T) {
	prop := func(polRaw uint8, seed int64) bool {
		policies := core.Policies()
		pol := policies[int(polRaw)%len(policies)]
		run := func() *engine.Report {
			arrivals := make([]engine.Arrival, 12)
			for i := range arrivals {
				arrivals[i] = engine.Arrival{
					At: time.Duration(i) * 2 * time.Second,
					Job: &engine.Job{
						ID:         fmt.Sprintf("d%02d", i),
						Stream:     "work",
						DataKey:    fmt.Sprintf("k%d", i%4),
						DataSizeMB: 150,
					},
				}
			}
			rep, err := engine.Run(engine.Config{
				ClusterConfig: engine.ClusterConfig{
					Workers:      testCluster(3, 20, 100, 0),
					NewAllocator: pol.NewAllocator,
					NewAgent:     pol.NewAgent,
					Seed:         seed,
				},
				Workflow: dataWorkflow(),
				Arrivals: arrivals,
			})
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		a, b := run(), run()
		return a.Makespan == b.Makespan &&
			a.CacheMisses == b.CacheMisses &&
			a.DataLoadMB == b.DataLoadMB
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
