package crossflow_test

import (
	"fmt"
	"testing"

	"crossflow"
)

// TestRealClockRaceSmoke runs master + 4 workers on the real clock over
// the in-process channel transport. Races only manifest off the
// simulated clock: under vclock.Sim the discrete-event loop serializes
// progress around clock jumps, so `go test -race` over simulated runs
// exercises almost no true concurrency. On vclock.Real all five nodes
// execute genuinely in parallel and the race detector sees every
// cross-goroutine access. The clock is compressed 20000x, so the test
// stays well under a second and runs in -short mode too.
func TestRealClockRaceSmoke(t *testing.T) {
	for _, s := range []crossflow.Scheduler{crossflow.Bidding(), crossflow.Baseline()} {
		rep, err := crossflow.Run(crossflow.Config{
			Clock:     crossflow.NewRealClock(20000),
			Workers:   demoWorkers(4),
			Scheduler: s,
			Workflow:  demoWorkflow(),
			Arrivals:  demoArrivals(12),
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if rep.JobsCompleted != 12 {
			t.Errorf("%s: JobsCompleted = %d, want 12", s.Name, rep.JobsCompleted)
		}
		if rep.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %v", s.Name, rep.Makespan)
		}
	}
}

// TestShardedMatchmakingRace is the regression test for a data race on
// MatchmakingAgent's strike counter: OnNoWork runs on the worker's comms
// goroutine, OnJobFinished on its executor. A sharded plane fans one
// pull out to every shard, so shard A's assignment is executing while
// shard B's MsgNoWork arrives — on the real clock the two goroutines
// touch the counter in parallel and `go test -race` reported it on every
// run. Small jobs keep completions as frequent as empty pulls.
func TestShardedMatchmakingRace(t *testing.T) {
	arrivals := make([]crossflow.Arrival, 200)
	for i := range arrivals {
		arrivals[i].Job = &crossflow.Job{Stream: "jobs", DataKey: fmt.Sprintf("r%d", i%7), DataSizeMB: 1}
	}
	rep, err := crossflow.Run(crossflow.Config{
		Clock:     crossflow.NewRealClock(50),
		Workers:   demoWorkers(4),
		Scheduler: crossflow.Matchmaking(),
		Shards:    2,
		Workflow:  demoWorkflow(),
		Arrivals:  arrivals,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 200 {
		t.Errorf("JobsCompleted = %d, want 200", rep.JobsCompleted)
	}
}
