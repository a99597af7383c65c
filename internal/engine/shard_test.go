package engine_test

import (
	"fmt"
	"sort"
	"testing"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/locindex"
	"crossflow/internal/vclock"
)

// shardedConfig builds a batch run over the sharded control plane.
func shardedConfig(shards, workers, jobs int) engine.Config {
	keys := make([]string, jobs)
	for i := range keys {
		keys[i] = fmt.Sprintf("r%d", i)
	}
	return engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(workers, 20, 100, 0),
			Shards:       shards,
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: dataJobs(keys, 50),
	}
}

// TestShardedBatchCompletesAllJobs runs the same batch workload over 2,
// 3, and 4 contest shards: every job must finish exactly once, and the
// merged report must conserve the per-worker totals.
func TestShardedBatchCompletesAllJobs(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rep := runOrFail(t, shardedConfig(shards, 5, 30))
			if rep.JobsCompleted != 30 {
				t.Fatalf("JobsCompleted = %d, want 30", rep.JobsCompleted)
			}
			if len(rep.Records) != 30 {
				t.Fatalf("Records = %d, want 30", len(rep.Records))
			}
			for id, rec := range rep.Records {
				if rec.Status != engine.StatusFinished {
					t.Errorf("job %s ended in status %v", id, rec.Status)
				}
			}
			var acrossWorkers int
			for _, w := range rep.Workers {
				acrossWorkers += w.JobsDone
			}
			if acrossWorkers != 30 {
				t.Errorf("per-worker JobsDone sums to %d, want 30", acrossWorkers)
			}
			if rep.Contests != 30 {
				t.Errorf("Contests = %d, want 30 (one per job across all shards)", rep.Contests)
			}
		})
	}
}

// TestShardedMatchesSingleMasterTotals checks the merged cross-shard
// report agrees with an unsharded run of the identical workload on the
// conserved quantities — the job set, completion counts, and the
// fleet-wide work total. Scheduling details (which worker won which
// contest) legitimately differ: each shard sizes contests against its
// own view.
func TestShardedMatchesSingleMasterTotals(t *testing.T) {
	single := runOrFail(t, shardedConfig(1, 4, 24))
	sharded := runOrFail(t, shardedConfig(3, 4, 24))

	if single.JobsCompleted != sharded.JobsCompleted {
		t.Errorf("JobsCompleted: single=%d sharded=%d", single.JobsCompleted, sharded.JobsCompleted)
	}
	ids := func(rep *engine.Report) []string {
		out := make([]string, 0, len(rep.Records))
		for id := range rep.Records {
			out = append(out, id)
		}
		sort.Strings(out)
		return out
	}
	sIDs, shIDs := ids(single), ids(sharded)
	if len(sIDs) != len(shIDs) {
		t.Fatalf("record counts differ: single=%d sharded=%d", len(sIDs), len(shIDs))
	}
	for i := range sIDs {
		if sIDs[i] != shIDs[i] {
			t.Fatalf("record id sets differ at %d: %s vs %s", i, sIDs[i], shIDs[i])
		}
	}
	sum := func(rep *engine.Report) int {
		n := 0
		for _, w := range rep.Workers {
			n += w.JobsDone
		}
		return n
	}
	if sum(single) != sum(sharded) {
		t.Errorf("fleet JobsDone: single=%d sharded=%d", sum(single), sum(sharded))
	}
}

// TestShardedDeterministicRerun runs the same sharded workload twice
// from the same seed and requires identical merged reports — the
// frontend's routing, per-shard rng streams, and report merge must all
// be pure functions of the seed.
func TestShardedDeterministicRerun(t *testing.T) {
	key := func(rep *engine.Report) string {
		ids := make([]string, 0, len(rep.Records))
		for id, rec := range rep.Records {
			ids = append(ids, fmt.Sprintf("%s=%s@%s", id, rec.Worker, rec.Finished))
		}
		sort.Strings(ids)
		return fmt.Sprintf("done=%d failed=%d makespan=%s bids=%d %v",
			rep.JobsCompleted, rep.JobsFailed, rep.Makespan, rep.Bids, ids)
	}
	a := key(runOrFail(t, shardedConfig(3, 5, 30)))
	b := key(runOrFail(t, shardedConfig(3, 5, 30)))
	if a != b {
		t.Errorf("sharded rerun diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestShardedClusterSessions opens two concurrent sessions on a sharded
// cluster and checks each merged session report accounts for exactly
// its own jobs, like sessions on a single master.
func TestShardedClusterSessions(t *testing.T) {
	clk := vclock.NewSim()
	c, err := engine.NewCluster(engine.ClusterConfig{
		Clock:        clk,
		Workers:      testCluster(4, 20, 100, 0),
		Shards:       2,
		NewAllocator: func() engine.Allocator { return core.NewBidding() },
		NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	sessA, err := c.Open("sess-a", dataWorkflow())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sessB, err := c.Open("sess-b", dataWorkflow())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var repA, repB *engine.Report
	c.Start(func() {
		c.WaitReady()
		for i := 0; i < 8; i++ {
			sessA.Submit(&engine.Job{Stream: "work", DataKey: fmt.Sprintf("a%d", i), DataSizeMB: 10})
		}
		for i := 0; i < 5; i++ {
			sessB.Submit(&engine.Job{Stream: "work", DataKey: fmt.Sprintf("b%d", i), DataSizeMB: 10})
		}
		sessA.Close()
		sessB.Close()
		repA = sessA.Wait()
		repB = sessB.Wait()
		c.Stop()
	})
	c.Wait()
	if repA == nil || repB == nil {
		t.Fatal("session reports missing")
	}
	if repA.JobsCompleted != 8 {
		t.Errorf("session a completed %d jobs, want 8", repA.JobsCompleted)
	}
	if repB.JobsCompleted != 5 {
		t.Errorf("session b completed %d jobs, want 5", repB.JobsCompleted)
	}
	if len(repA.Records) != 8 || len(repB.Records) != 5 {
		t.Errorf("record counts: a=%d b=%d, want 8/5", len(repA.Records), len(repB.Records))
	}
}

// TestShardedDownstreamJobsCrossShards runs a two-stage session whose
// stage-1 jobs each return three stage-2 jobs keyed to other data, so
// completions on one shard fan work out to the other. The frontend may
// close the parts' feeds only once every routed job has settled: a part
// whose queue runs dry while a sibling is still about to emit work for
// it must not finish early. One shard and two must both complete all 32
// jobs with the 24 stage-2 results.
func TestShardedDownstreamJobsCrossShards(t *testing.T) {
	wf := engine.NewWorkflow("two-stage")
	wf.MustAddTask(engine.TaskSpec{
		Name:  "split",
		Input: "work",
		Fn: func(ctx *engine.TaskContext, job *engine.Job) ([]*engine.Job, []any, error) {
			ctx.RequireData(job.DataKey, job.DataSizeMB)
			next := make([]*engine.Job, 3)
			for i := range next {
				next[i] = &engine.Job{Stream: "part", DataKey: fmt.Sprintf("%s-%d", job.DataKey, i), DataSizeMB: 10}
			}
			return next, nil, nil
		},
	})
	wf.MustAddTask(engine.TaskSpec{Name: "merge", Input: "part"})

	keys := make([]string, 8)
	crosses := false
	for i := range keys {
		keys[i] = fmt.Sprintf("r%d", i)
		for j := 0; j < 3; j++ {
			child := fmt.Sprintf("%s-%d", keys[i], j)
			crosses = crosses || locindex.ShardOf(child, 2) != locindex.ShardOf(keys[i], 2)
		}
	}
	if !crosses {
		t.Fatal("no stage-2 key lands on another shard than its parent; pick other keys")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := shardedConfig(shards, 4, 0)
			cfg.Workflow = wf
			cfg.Arrivals = dataJobs(keys, 20)
			rep := runOrFail(t, cfg)
			if rep.JobsCompleted != 32 || len(rep.Results) != 24 {
				t.Errorf("completed %d jobs with %d results, want 32 with 24",
					rep.JobsCompleted, len(rep.Results))
			}
		})
	}
}
