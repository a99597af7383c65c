package engine

import (
	"reflect"
	"testing"
	"time"

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

// TestEmitFoldsEveryDecision: each decision kind reaches the session's
// Tally, and only the eight trace kinds reach the tracer — a targeted
// contest once per target.
func TestEmitFoldsEveryDecision(t *testing.T) {
	m, s := openMaster(stubAlloc{}, NewWorkflow("t"), 0)
	log := NewTraceLog()
	m.tracer = log
	for _, d := range []decision{
		{kind: TraceInjected, job: "j", results: []any{"payload"}},
		{kind: TraceContest, job: "j", msgs: 5},
		{kind: TraceContest, job: "j", msgs: 2, targets: []string{"w0", "w1"}},
		{kind: decBid, job: "j", worker: "w0"},
		{kind: TraceOffered, job: "j", worker: "w0"},
		{kind: decStaleReject, job: "j", worker: "w1"},
		{kind: TraceRejected, job: "j", worker: "w0"},
		{kind: TraceAssigned, job: "j", worker: "w1", latency: 4 * time.Second},
		{kind: TraceAssigned, job: "j", worker: "w1", latency: 2 * time.Second},
		{kind: decFallback},
		{kind: TraceRedispatch, job: "j", worker: "w1"},
		{kind: TraceFailed, job: "j", worker: "w0"},
		{kind: TraceFinished, job: "j", worker: "w0", results: []any{1, 2}},
	} {
		m.emit(s, d)
	}
	want := Tally{JobsCompleted: 2, JobsFailed: 1, Redispatched: 1, Results: []any{"payload", 1, 2},
		Offers: 1, Rejections: 2, Contests: 2, ContestMsgs: 7, Bids: 1, Fallbacks: 1,
		allocLatency: 6 * time.Second, allocCount: 2}
	if !reflect.DeepEqual(s.Tally, want) {
		t.Errorf("tally %+v, want %+v", s.Tally, want)
	}
	if got := s.meanAllocLatency(); got != 3*time.Second {
		t.Errorf("mean allocation latency %v, want 3s", got)
	}
	var got []string
	for _, ev := range log.Events() {
		got = append(got, string(ev.Kind)+" "+ev.Node)
	}
	wantTrace := []string{"injected ", "contest ", "contest w0", "contest w1", "offered w0",
		"rejected w0", "assigned w1", "assigned w1", "redispatched w1", "failed w0", "finished w0"}
	if !reflect.DeepEqual(got, wantTrace) {
		t.Errorf("trace %q, want %q", got, wantTrace)
	}
}

// TestEmitWithoutTracerDoesNotAllocate: with no tracer installed a
// decision costs its Tally fold and nothing more. A broadcast contest
// on a wide fleet folds hundreds of counted bids per job.
func TestEmitWithoutTracerDoesNotAllocate(t *testing.T) {
	m, s := openMaster(stubAlloc{}, NewWorkflow("t"), 0)
	targets := []string{"w0", "w1"}
	allocs := testing.AllocsPerRun(1000, func() {
		m.emit(s, decision{kind: decBid, job: "j", worker: "w0"})
		m.emit(s, decision{kind: TraceContest, job: "j", msgs: 2, targets: targets})
		m.emit(s, decision{kind: TraceAssigned, job: "j", worker: "w0", latency: time.Millisecond})
	})
	if allocs != 0 {
		t.Errorf("emit with no tracer: %v allocs per run, want 0", allocs)
	}
	if s.Bids != 1001 || s.Contests != 1001 || s.allocCount != 1001 {
		t.Errorf("bids %d contests %d assignments %d, want 1001 each", s.Bids, s.Contests, s.allocCount)
	}
}
