package engine_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
)

// faultArrivals builds n data-bound jobs over distinct keys at 1s
// spacing.
func faultArrivals(n int) []engine.Arrival {
	arr := make([]engine.Arrival, n)
	for i := range arr {
		arr[i] = engine.Arrival{
			At: time.Duration(i) * time.Second,
			Job: &engine.Job{
				ID:         fmt.Sprintf("f%02d", i),
				Stream:     "work",
				DataKey:    fmt.Sprintf("k%d", i%3),
				DataSizeMB: 50,
			},
		}
	}
	return arr
}

// TestDroppedCompletionsDoNotHangTermination drops every MsgJobDone in
// transit: the master can never observe completion, so without a bound
// the run would spin forever. With a Deadline it must come back with a
// clean, classifiable error — deadline or detected deadlock — and never
// hang. This is the regression test for bounding termination detection
// under message loss.
func TestDroppedCompletionsDoNotHangTermination(t *testing.T) {
	for _, pol := range core.Policies() {
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      testCluster(2, 20, 100, 0),
				NewAllocator: pol.NewAllocator,
				NewAgent:     pol.NewAgent,
				DropFunc: func(env broker.Envelope, to string) bool {
					_, isDone := env.Payload.(engine.MsgJobDone)
					return isDone
				},
			},
			Workflow: dataWorkflow(),
			Arrivals: faultArrivals(4),
			Deadline: 5 * time.Minute,
		})
		if err == nil {
			t.Errorf("%s: run completed even though every MsgJobDone was dropped", pol.Name)
			continue
		}
		if !errors.Is(err, engine.ErrDeadlineExceeded) && !errors.Is(err, engine.ErrDeadlocked) {
			t.Errorf("%s: unexpected error class: %v", pol.Name, err)
		}
		if errors.Is(err, engine.ErrDeadlineExceeded) && rep == nil {
			t.Errorf("%s: deadline error without a partial report", pol.Name)
		}
	}
}

// TestPermanentPartitionBoundedByDeadline cuts one worker off the
// network for good mid-run. The master is never told (unlike a Kill),
// so jobs queued on the unreachable worker are lost; the run must end
// at the deadline or in a detected deadlock, never hang.
func TestPermanentPartitionBoundedByDeadline(t *testing.T) {
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(2, 20, 100, 0),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: faultArrivals(6),
		Deadline: 10 * time.Minute,
		Partitions: []engine.Partition{
			{Node: "w0", At: 1500 * time.Millisecond}, // Duration 0: never heals
		},
	})
	if err == nil {
		// Legitimate if no job happened to be in flight to w0 at the cut —
		// but with 6 jobs and 2 workers some almost surely were; treat
		// clean completion as suspicious only if w0 did all the work.
		if rep.Workers[0].JobsDone == 6 {
			t.Error("run completed with all jobs on the partitioned worker")
		}
		return
	}
	if !errors.Is(err, engine.ErrDeadlineExceeded) && !errors.Is(err, engine.ErrDeadlocked) {
		t.Errorf("unexpected error class: %v", err)
	}
}

// TestHealedPartitionStillCompletes disconnects a worker briefly
// between arrivals; the bidding protocol's per-job contests start after
// it heals, so the run must complete every job.
func TestHealedPartitionStillCompletes(t *testing.T) {
	arr := faultArrivals(4)
	for i := range arr {
		arr[i].At = time.Duration(i) * 10 * time.Second
	}
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(2, 20, 100, 0),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: arr,
		Deadline: 30 * time.Minute,
		Partitions: []engine.Partition{
			{Node: "w1", At: 14 * time.Second, Duration: 4 * time.Second},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.JobsCompleted != 4 {
		t.Errorf("JobsCompleted = %d, want 4", rep.JobsCompleted)
	}
}

// TestCacheShrinkEvictsMidRun shrinks a warm worker's cache to below
// its working set mid-run and expects evictions and re-downloads.
func TestCacheShrinkEvictsMidRun(t *testing.T) {
	arr := faultArrivals(8) // keys k0..k2, 50MB each, 1s apart
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(1, 50, 100, 0),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: arr,
		Deadline: 30 * time.Minute,
		CacheShrinks: []engine.CacheShrink{
			{Worker: "w0", At: 5 * time.Second, CapacityMB: 60}, // fits one key
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.JobsCompleted != 8 {
		t.Fatalf("JobsCompleted = %d, want 8", rep.JobsCompleted)
	}
	if rep.Evictions == 0 {
		t.Error("no evictions after the cache shrank below its working set")
	}
	// The first three jobs load k0..k2 (3 misses); after the shrink at
	// most one key fits, so later jobs must re-download.
	if rep.CacheMisses <= 3 {
		t.Errorf("CacheMisses = %d, want > 3 (shrink forces re-downloads)", rep.CacheMisses)
	}
}

// TestDeadlineReturnsPartialReport bounds a run that cannot finish in
// time and checks the partial report comes back with the error.
func TestDeadlineReturnsPartialReport(t *testing.T) {
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(1, 1, 1, 0), // 50MB at 1MB/s: ~100s per job
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: faultArrivals(5),
		Deadline: 3 * time.Minute,
	})
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if rep == nil {
		t.Fatal("no partial report")
	}
	if rep.JobsCompleted >= 5 {
		t.Errorf("JobsCompleted = %d, want < 5 at the deadline", rep.JobsCompleted)
	}
}

// TestUnknownFaultTargetsRejected: fault plans naming unknown nodes are
// configuration errors, reported before the run starts.
func TestUnknownFaultTargetsRejected(t *testing.T) {
	base := engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Workers:      testCluster(1, 20, 100, 0),
			NewAllocator: func() engine.Allocator { return core.NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		},
		Workflow: dataWorkflow(),
		Arrivals: faultArrivals(1),
	}
	cfg := base
	cfg.Partitions = []engine.Partition{{Node: "ghost", At: time.Second}}
	if _, err := engine.Run(cfg); err == nil {
		t.Error("partition of unknown node not rejected")
	}
	cfg = base
	cfg.CacheShrinks = []engine.CacheShrink{{Worker: "ghost", At: time.Second}}
	if _, err := engine.Run(cfg); err == nil {
		t.Error("cache shrink of unknown worker not rejected")
	}
}

// TestFleetNeverFormsBoundedByDeadline loses every registration of one
// worker: the quorum never completes, no session ever
// opens, and the run must still come back at the deadline with an
// (empty) report instead of hanging on the readiness wait.
func TestFleetNeverFormsBoundedByDeadline(t *testing.T) {
	for _, shards := range []int{0, 2} {
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      testCluster(2, 20, 100, 0),
				Shards:       shards,
				NewAllocator: func() engine.Allocator { return core.NewBidding() },
				NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
				DropFunc: func(env broker.Envelope, to string) bool {
					_, isRegister := env.Payload.(engine.MsgRegister)
					return isRegister && env.From == "w0"
				},
			},
			Workflow: dataWorkflow(),
			Arrivals: faultArrivals(3),
			Deadline: time.Minute,
		})
		if !errors.Is(err, engine.ErrDeadlineExceeded) {
			t.Fatalf("shards=%d: err = %v, want ErrDeadlineExceeded", shards, err)
		}
		if rep == nil || rep.JobsCompleted != 0 || len(rep.Workers) != 2 {
			t.Errorf("shards=%d: report = %+v, want an empty report over 2 workers", shards, rep)
		}
	}
}
