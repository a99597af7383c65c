package engine

import "testing"

// recAlloc records the allocator callbacks the master issues, so tests
// can assert redispatch re-enters the allocation pipeline.
type recAlloc struct {
	NopAllocator
	ready []string
	lost  []string
}

func (*recAlloc) Name() string                  { return "rec" }
func (a *recAlloc) JobReady(_ AllocCtx, j *Job) { a.ready = append(a.ready, j.ID) }
func (a *recAlloc) WorkerLost(_ AllocCtx, w string, _ []*Job) {
	a.lost = append(a.lost, w)
}

// rescueWorkflow consumes the "work" stream so injected jobs stay
// outstanding instead of being collected as results.
func rescueWorkflow() *Workflow {
	wf := NewWorkflow("rescue")
	wf.MustAddTask(TaskSpec{
		Name:  "process",
		Input: "work",
		Fn: func(ctx *TaskContext, job *Job) ([]*Job, []any, error) {
			return nil, nil, nil
		},
	})
	return wf
}

// TestRescueStrandedRedispatches drives the post-drain leave path
// directly: a worker drained out of the live set still has a record
// attributed to it (an assignment that a delay spike reordered past the
// drain). Its MsgLeave must rescue that record — reset to pending,
// attribution cleared, redispatch counted and traced, and the job
// re-offered to the allocator — while finished and pending records are
// left alone.
func TestRescueStrandedRedispatches(t *testing.T) {
	alloc := &recAlloc{}
	m, sess := openMaster(alloc, rescueWorkflow(), 2)
	trace := NewTraceLog()
	m.tracer = trace

	m.onRegister("w0")
	m.onRegister("w1")
	for _, id := range []string{"j-stranded", "j-done", "j-open"} {
		m.inject(sess, &Job{ID: id, Stream: "work"})
	}

	// w1 drains: out of the live set immediately, goodbye pending.
	m.onDrainStart(msgDrainStart{worker: "w1"})
	if m.workerSet["w1"] {
		t.Fatal("drained worker still in the live set")
	}

	// An assignment raced past the drain: j-stranded lands on w1 after it
	// stopped being a member. j-done finished there before the drain.
	m.records["j-stranded"].Worker = "w1"
	m.records["j-stranded"].Status = StatusQueued
	m.records["j-done"].Worker = "w1"
	m.records["j-done"].Status = StatusFinished

	alloc.ready = nil // isolate the rescue's JobReady from injection's
	m.onLeave("w1")

	rec := m.records["j-stranded"]
	if rec.Status != StatusPending || rec.Worker != "" {
		t.Errorf("stranded record not rescued: status=%v worker=%q", rec.Status, rec.Worker)
	}
	if sess.Redispatched != 1 {
		t.Errorf("session redispatched = %d, want 1", sess.Redispatched)
	}
	if len(alloc.ready) != 1 || alloc.ready[0] != "j-stranded" {
		t.Errorf("allocator JobReady calls = %v, want [j-stranded]", alloc.ready)
	}
	var redispatches []TraceEvent
	for _, ev := range trace.Events() {
		if ev.Kind == TraceRedispatch {
			redispatches = append(redispatches, ev)
		}
	}
	if len(redispatches) != 1 || redispatches[0].JobID != "j-stranded" || redispatches[0].Node != "w1" {
		t.Errorf("redispatch trace = %v, want one event for j-stranded on w1", redispatches)
	}

	// The finished record keeps its attribution; the never-assigned one
	// stays pending without a phantom redispatch.
	if d := m.records["j-done"]; d.Status != StatusFinished || d.Worker != "w1" {
		t.Errorf("finished record disturbed: status=%v worker=%q", d.Status, d.Worker)
	}
	if o := m.records["j-open"]; o.Status != StatusPending || o.Worker != "" {
		t.Errorf("open record disturbed: status=%v worker=%q", o.Status, o.Worker)
	}

	// A post-drain leave is not a death: the worker is not tombstoned,
	// and the drain is settled (acks released, no pending entry left).
	if m.dead["w1"] {
		t.Error("post-drain leave tombstoned the worker as dead")
	}
	if _, pending := m.drains["w1"]; pending {
		t.Error("drain still pending after the leave settled it")
	}
	if len(alloc.lost) != 1 || alloc.lost[0] != "w1" {
		t.Errorf("WorkerLost calls = %v, want exactly the drain's [w1]", alloc.lost)
	}
}

// TestLeaveWithoutDrainRedispatchesAsDeath: a leave from a worker still
// in the live set is a voluntary immediate exit and must take the death
// path — live-set removal, WorkerLost, and redispatch of its queue.
func TestLeaveWithoutDrainRedispatchesAsDeath(t *testing.T) {
	alloc := &recAlloc{}
	m, sess := openMaster(alloc, rescueWorkflow(), 2)

	m.onRegister("w0")
	m.onRegister("w1")
	m.inject(sess, &Job{ID: "j0", Stream: "work"})
	m.records["j0"].Worker = "w1"
	m.records["j0"].Status = StatusQueued

	alloc.ready = nil
	m.onLeave("w1")

	if m.workerSet["w1"] {
		t.Error("leave left the worker in the live set")
	}
	if !m.dead["w1"] {
		t.Error("undrained leave must tombstone the worker like a death")
	}
	if rec := m.records["j0"]; rec.Status != StatusPending || rec.Worker != "" {
		t.Errorf("in-flight record not redispatched: status=%v worker=%q", rec.Status, rec.Worker)
	}
	if len(alloc.lost) != 1 || alloc.lost[0] != "w1" {
		t.Errorf("WorkerLost calls = %v, want [w1]", alloc.lost)
	}
	if len(alloc.ready) != 1 || alloc.ready[0] != "j0" {
		t.Errorf("JobReady calls = %v, want [j0]", alloc.ready)
	}
}
