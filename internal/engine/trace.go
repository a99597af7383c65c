package engine

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// TraceEventKind classifies job-lifecycle events.
type TraceEventKind string

// Trace event kinds, in lifecycle order.
const (
	TraceInjected   TraceEventKind = "injected"
	TraceContest    TraceEventKind = "contest"
	TraceOffered    TraceEventKind = "offered"
	TraceRejected   TraceEventKind = "rejected"
	TraceAssigned   TraceEventKind = "assigned"
	TraceFinished   TraceEventKind = "finished"
	TraceFailed     TraceEventKind = "failed"
	TraceRedispatch TraceEventKind = "redispatched"

	// Decision kinds a session's Tally counts and the trace leaves out.
	decBid         TraceEventKind = "bid"
	decFallback    TraceEventKind = "fallback"
	decStaleReject TraceEventKind = "stale-reject"
)

// TraceEvent is one entry in a run's allocation trace.
type TraceEvent struct {
	At    time.Time
	Kind  TraceEventKind
	JobID string
	// Node is the worker involved, empty for master-only events.
	Node string
	// shard and seq order events emitted by concurrent shard parts of a
	// sharded control plane: shard is the emitting part's 1-based
	// ordinal (0 on an unsharded master), seq its per-part emission
	// counter. Events compares (At, shard, seq) so same-instant events
	// from different parts have one deterministic global order.
	shard int
	seq   int
}

// Tracer receives allocation events as they happen on the master.
// Implementations must be cheap; they run on the master's actor
// goroutine.
type Tracer interface {
	Trace(ev TraceEvent)
}

// TraceLog is a Tracer that accumulates events in memory. It is safe
// for concurrent use, so a single log can serve several sequential runs.
type TraceLog struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTraceLog returns an empty trace log.
func NewTraceLog() *TraceLog { return &TraceLog{} }

// Trace implements Tracer.
func (l *TraceLog) Trace(ev TraceEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// Events returns a copy of the accumulated events. Traces from a
// sharded control plane (any event stamped with a shard ordinal) are
// sorted into their deterministic (At, shard, seq) order: concurrent
// parts append under the log's mutex in OS-scheduling order, which
// same-seed re-runs may resolve differently. Unsharded traces are
// returned in plain append order, exactly as before.
func (l *TraceLog) Events() []TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TraceEvent, len(l.events))
	copy(out, l.events)
	if slices.ContainsFunc(out, func(ev TraceEvent) bool { return ev.shard > 0 }) {
		slices.SortStableFunc(out, func(a, b TraceEvent) int {
			return cmp.Or(a.At.Compare(b.At), cmp.Compare(a.shard, b.shard), cmp.Compare(a.seq, b.seq))
		})
	}
	return out
}

// Len returns the number of accumulated events.
func (l *TraceLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset clears the log.
func (l *TraceLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
}

// Dump writes the trace as tab-separated lines, one event per line.
func (l *TraceLog) Dump(w io.Writer) {
	for _, ev := range l.Events() {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n",
			ev.At.Format("15:04:05.000"), ev.Kind, ev.JobID, ev.Node)
	}
}

// decision is one allocation decision of a master. kind is a trace
// kind or one of the untraced dec kinds; the other fields are set where
// the kind uses them.
type decision struct {
	kind     TraceEventKind
	rec      *JobRecord // the job's record; nil only on the untraced kinds
	worker   string
	msgs     int      // contest: bid requests sent
	targets  []string // targeted contest: the live workers asked
	results  []any    // finished, failed, or injected on a terminal stream
	terminal bool     // injected: no task consumes the job's stream
}

// emit records one decision of the master. It folds into the job's
// record first, then into session s, whose counters read the stamps
// the record just took; with a tracer installed it goes to the trace
// as one event, or one per target of a targeted contest. Every
// decision site calls it once; no handler writes a record, a counter
// or the trace itself.
func (m *Master) emit(s *session, d decision) {
	if d.rec != nil {
		d.rec.fold(d, m.clk)
	}
	s.fold(d)
	if m.tracer == nil || d.kind == decBid || d.kind == decFallback || d.kind == decStaleReject {
		return
	}
	if d.targets == nil {
		d.targets = []string{d.worker}
	}
	for _, node := range d.targets {
		m.traceSeq++
		m.tracer.Trace(TraceEvent{At: m.clk.Now(), Kind: d.kind, JobID: d.rec.Job.ID, Node: node,
			shard: m.traceShard, seq: m.traceSeq})
	}
}
