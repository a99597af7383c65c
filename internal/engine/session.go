package engine

import (
	"time"

	"crossflow/internal/vclock"
)

// session is one workflow's state on a master: its submission feed,
// outstanding-work accounting, results, and scheduling counters. A
// master multiplexes many, keyed by the Session field jobs carry. All
// fields except the done mailbox are owned by the master's actor
// goroutine.
type session struct {
	// id names the session. Jobs injected under a named session are
	// stamped with it so workers can resolve the right workflow; the
	// empty id is a session like any other whose jobs travel unstamped
	// (Run's).
	id string
	// wf consumes the session's streams.
	wf *Workflow
	// feedOpen reports that the session may still receive submissions.
	feedOpen bool
	// outstanding counts injected jobs that have not finished.
	outstanding int

	finished  bool
	startTime time.Time
	endTime   time.Time

	results      []any
	completed    int
	failures     int
	redispatched int
	offers       int
	rejections   int
	contests     int
	contestMsgs  int
	bids         int
	fallbacks    int
	allocLatency time.Duration
	allocCount   int

	// done receives the session's *Report exactly once, when the feed is
	// closed and the last outstanding job finishes (or the master shuts
	// down). Nil only on a plane's sink session, which never settles.
	done vclock.Mailbox
}

// MasterSession is one workflow's streaming submission feed on a
// long-lived control plane (single or sharded; see Plane.OpenSession):
// Submit jobs while the feed is open, Close it, then Wait for the
// per-session report. Feeds on the same plane share the fleet without
// cross-talk — every job is stamped with its session and routed back to
// it on completion.
type MasterSession struct {
	m *Plane
	s *session
}

// ID returns the session's name.
func (ms *MasterSession) ID() string { return ms.s.id }

// Submit feeds one job into the session. Jobs submitted after Close (or
// after the master shut down) are dropped.
func (ms *MasterSession) Submit(job *Job) {
	ms.m.Inject(msgSubmit{s: ms.s, job: job})
}

// Close marks the feed complete; the session's report is delivered once
// its outstanding jobs finish.
func (ms *MasterSession) Close() {
	ms.m.Inject(msgCloseFeed{s: ms.s})
}

// Schedule feeds a whole arrival stream as clock events instead of
// Submit calls from a sleeping driver: each job is submitted At from
// now, and the feed closes behind the last one. The caller only Waits.
func (ms *MasterSession) Schedule(arrivals []Arrival) {
	var last time.Duration
	for _, arr := range arrivals {
		ms.m.injectAfter(arr.At, "submit ", arr.Job.ID, msgSubmit{s: ms.s, job: arr.Job})
		last = max(last, arr.At)
	}
	ms.m.injectAfter(last, "close-feed", "", msgCloseFeed{s: ms.s})
}

// Wait blocks until the session completes and returns its report. On a
// simulated clock it must be called from a clock-tracked goroutine.
func (ms *MasterSession) Wait() *Report {
	v, ok := ms.s.done.Recv()
	if !ok {
		return nil
	}
	rep, _ := v.(*Report)
	return rep
}
