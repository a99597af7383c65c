package engine

import (
	"testing"

	"crossflow/internal/broker"
	"crossflow/internal/vclock"
)

type stubAlloc struct{ NopAllocator }

func (stubAlloc) Name() string            { return "stub" }
func (stubAlloc) JobReady(AllocCtx, *Job) {}

// openMaster builds a master expecting n workers with one open session
// consuming wf — what Run sets up, minus the fleet — for tests that call
// the master's handlers directly.
func openMaster(alloc Allocator, wf *Workflow, n int) (*Master, *session) {
	sim := vclock.NewSim()
	m := NewClusterMaster(sim, broker.New(sim).Register(MasterName, 0), alloc, n, nil)
	s := &session{wf: wf, feedOpen: true}
	m.addSession(s)
	return m, s
}

// TestWorkersReturnsCopy is a regression test: Workers() used to hand
// out the master's internal slice, which onWorkerDead splices in place —
// an allocator holding the alias would see a snapshot it captured
// mutate underneath it (and, worse, lose a different worker than the
// one that died, since the splice shifts later elements left).
func TestWorkersReturnsCopy(t *testing.T) {
	m, _ := openMaster(stubAlloc{}, NewWorkflow("t"), 3)

	for _, w := range []string{"w0", "w1", "w2"} {
		m.onRegister(w)
	}
	snapshot := m.Workers()
	if got := len(snapshot); got != 3 {
		t.Fatalf("Workers() = %v, want 3 workers", snapshot)
	}

	m.onWorkerDead("w1")

	want := []string{"w0", "w1", "w2"}
	for i, w := range want {
		if snapshot[i] != w {
			t.Fatalf("snapshot mutated by onWorkerDead: got %v, want %v", snapshot, want)
		}
	}
	if live := m.Workers(); len(live) != 2 || live[0] != "w0" || live[1] != "w2" {
		t.Fatalf("live Workers() = %v, want [w0 w2]", live)
	}

	// Mutating the returned slice must not corrupt the master either.
	live := m.Workers()
	live[0] = "corrupted"
	if again := m.Workers(); again[0] != "w0" {
		t.Fatalf("caller mutation leaked into master: %v", again)
	}
}
