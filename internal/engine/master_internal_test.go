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

// TestEmitFoldsEveryDecision: each decision folds into its job's
// record, then into the session's Tally and outstanding count, and only
// the eight trace kinds reach the tracer — a targeted contest once per
// target. The clock advances a second before each decision, so every
// stamp names the step that took it.
func TestEmitFoldsEveryDecision(t *testing.T) {
	m, s := openMaster(stubAlloc{}, NewWorkflow("t"), 0)
	sim := m.clk.(*vclock.Sim)
	log := NewTraceLog()
	m.tracer = log
	at := func(step int) time.Time { return vclock.Epoch.Add(time.Duration(step) * time.Second) }
	j := &JobRecord{Job: &Job{ID: "j"}, sess: s}
	k := &JobRecord{Job: &Job{ID: "k"}, sess: s}
	r := &JobRecord{Job: &Job{ID: "r"}, sess: s} // on a stream no task consumes
	steps := []struct {
		d    decision
		rec  *JobRecord // the record to check: d.rec, or j when the decision has none
		want JobRecord  // its Status, Worker and stamps after the decision
		out  int        // the session's outstanding jobs after the decision
	}{
		{decision{kind: TraceInjected, rec: r, results: []any{"payload"}, terminal: true}, r,
			JobRecord{Status: StatusFinished, Injected: at(1), Finished: at(1)}, 0},
		{decision{kind: TraceInjected, rec: j}, j, JobRecord{Injected: at(2)}, 1},
		{decision{kind: TraceInjected, rec: k}, k, JobRecord{Injected: at(3)}, 2},
		{decision{kind: TraceContest, rec: j, msgs: 5}, j, JobRecord{Injected: at(2)}, 2},
		{decision{kind: TraceContest, rec: j, msgs: 2, targets: []string{"w0", "w1"}}, j,
			JobRecord{Injected: at(2)}, 2},
		{decision{kind: decBid, worker: "w0"}, j, JobRecord{Injected: at(2)}, 2},
		{decision{kind: TraceOffered, rec: j, worker: "w0"}, j,
			JobRecord{Status: StatusOffered, Worker: "w0", Injected: at(2)}, 2},
		{decision{kind: decStaleReject, worker: "w1"}, j,
			JobRecord{Status: StatusOffered, Worker: "w0", Injected: at(2)}, 2},
		{decision{kind: TraceRejected, rec: j, worker: "w0"}, j, JobRecord{Injected: at(2)}, 2},
		{decision{kind: TraceAssigned, rec: j, worker: "w1"}, j,
			JobRecord{Status: StatusQueued, Worker: "w1", Injected: at(2), Queued: at(10)}, 2},
		{decision{kind: TraceRedispatch, rec: j, worker: "w1"}, j,
			JobRecord{Injected: at(2), Queued: at(10)}, 2},
		{decision{kind: TraceAssigned, rec: j, worker: "w1"}, j,
			JobRecord{Status: StatusQueued, Worker: "w1", Injected: at(2), Queued: at(12)}, 2},
		{decision{kind: decFallback}, j,
			JobRecord{Status: StatusQueued, Worker: "w1", Injected: at(2), Queued: at(12)}, 2},
		{decision{kind: TraceFailed, rec: j, worker: "w1"}, j,
			JobRecord{Status: StatusFinished, Worker: "w1", Injected: at(2), Queued: at(12), Finished: at(14)}, 1},
		{decision{kind: TraceAssigned, rec: k, worker: "w0"}, k,
			JobRecord{Status: StatusQueued, Worker: "w0", Injected: at(3), Queued: at(15)}, 1},
		{decision{kind: TraceFinished, rec: k, worker: "w0", results: []any{1, 2}}, k,
			JobRecord{Status: StatusFinished, Worker: "w0", Injected: at(3), Queued: at(15), Finished: at(16)}, 0},
	}
	for i, st := range steps {
		sim.Go(func() { sim.Sleep(time.Second) })
		sim.Wait()
		m.emit(s, st.d)
		got := *st.rec
		got.Job, got.sess = nil, nil
		if got != st.want {
			t.Errorf("step %d (%s): record %+v, want %+v", i+1, st.d.kind, got, st.want)
		}
		if s.outstanding != st.out {
			t.Errorf("step %d (%s): outstanding %d, want %d", i+1, st.d.kind, s.outstanding, st.out)
		}
	}
	// Allocation latencies: j 10-2 and 12-2, k 15-3 seconds.
	want := Tally{JobsCompleted: 2, JobsFailed: 1, Redispatched: 1, Results: []any{"payload", 1, 2},
		Offers: 1, Rejections: 2, Contests: 2, ContestMsgs: 7, Bids: 1, Fallbacks: 1,
		allocLatency: 30 * time.Second, allocCount: 3}
	if !reflect.DeepEqual(s.Tally, want) {
		t.Errorf("tally %+v, want %+v", s.Tally, want)
	}
	if got := s.meanAllocLatency(); got != 10*time.Second {
		t.Errorf("mean allocation latency %v, want 10s", got)
	}
	var got []string
	for _, ev := range log.Events() {
		got = append(got, string(ev.Kind)+" "+ev.JobID+" "+ev.Node)
	}
	wantTrace := []string{"injected r ", "injected j ", "injected k ", "contest j ", "contest j w0",
		"contest j w1", "offered j w0", "rejected j w0", "assigned j w1", "redispatched j w1",
		"assigned j w1", "failed j w1", "assigned k w0", "finished k w0"}
	if !reflect.DeepEqual(got, wantTrace) {
		t.Errorf("trace %q, want %q", got, wantTrace)
	}
}

// TestEmitWithoutTracerDoesNotAllocate: with no tracer installed a
// decision costs its record and Tally folds and nothing more. A
// broadcast contest on a wide fleet folds hundreds of counted bids per
// job.
func TestEmitWithoutTracerDoesNotAllocate(t *testing.T) {
	m, s := openMaster(stubAlloc{}, NewWorkflow("t"), 0)
	rec := &JobRecord{Job: &Job{ID: "j"}, sess: s}
	targets := []string{"w0", "w1"}
	allocs := testing.AllocsPerRun(1000, func() {
		m.emit(s, decision{kind: decBid, worker: "w0"})
		m.emit(s, decision{kind: TraceContest, rec: rec, msgs: 2, targets: targets})
		m.emit(s, decision{kind: TraceAssigned, rec: rec, worker: "w0"})
	})
	if allocs != 0 {
		t.Errorf("emit with no tracer: %v allocs per run, want 0", allocs)
	}
	if s.Bids != 1001 || s.Contests != 1001 || s.allocCount != 1001 {
		t.Errorf("bids %d contests %d assignments %d, want 1001 each", s.Bids, s.Contests, s.allocCount)
	}
	if rec.Status != StatusQueued || rec.Worker != "w0" {
		t.Errorf("record %s on %q, want queued on w0", rec.Status, rec.Worker)
	}
}
