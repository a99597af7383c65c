package engine

import (
	"fmt"
	"io"
	"sort"
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
	sharded := false
	for i := range out {
		if out[i].shard > 0 {
			sharded = true
			break
		}
	}
	if sharded {
		sort.SliceStable(out, func(i, j int) bool {
			if !out[i].At.Equal(out[j].At) {
				return out[i].At.Before(out[j].At)
			}
			if out[i].shard != out[j].shard {
				return out[i].shard < out[j].shard
			}
			return out[i].seq < out[j].seq
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

// trace emits an event if the master has a tracer attached.
func (m *Master) trace(kind TraceEventKind, jobID, node string) {
	if m.tracer == nil {
		return
	}
	m.traceSeq++
	m.tracer.Trace(TraceEvent{
		At: m.clk.Now(), Kind: kind, JobID: jobID, Node: node,
		shard: m.traceShard, seq: m.traceSeq,
	})
}
