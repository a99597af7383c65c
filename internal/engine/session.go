package engine

import (
	"time"

	"crossflow/internal/vclock"
)

// session is one workflow's state on a control plane: its submission
// feed, outstanding-work accounting, results, and scheduling counters.
// A plane multiplexes many, keyed by the Session field jobs carry. All
// fields except the done mailbox are owned by the plane's actor
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
	// outstanding counts jobs fed to the session that have not settled:
	// on a master, injected jobs that have not finished; on the sharded
	// frontend, routed jobs whose part has not sent back their settle
	// notice.
	outstanding int
	// subs holds the sharded frontend's per-shard subsessions, one per
	// part; nil on a master.
	subs []*session

	finished  bool
	startTime time.Time
	endTime   time.Time

	Tally

	// done receives the session's *Report exactly once, when the feed is
	// closed and the last outstanding job finishes (or the master shuts
	// down). Nil only on a plane's sink session, which never settles.
	done vclock.Mailbox
}

// Tally is a session's account of its jobs: how they ended, what they
// produced, and what allocating them cost. A session keeps one, its
// Report copies it, and a sharded plane's report adds up its parts'.
type Tally struct {
	// JobsCompleted counts jobs executed by workers; JobsFailed those
	// whose task returned an error.
	JobsCompleted int
	JobsFailed    int
	// Redispatched counts jobs rescued from lost workers.
	Redispatched int
	// Results collects terminal-stream payloads and task results.
	Results []any
	// Scheduling diagnostics. ContestMsgs counts bid requests addressed
	// to live workers (the live set per broadcast, the live targets per
	// targeted contest) — the wire cost that separates O(fleet) from
	// O(K) contest policies.
	Offers      int
	Rejections  int
	Contests    int
	ContestMsgs int
	Bids        int
	Fallbacks   int
	// allocLatency and allocCount are the raw sums behind
	// Report.MeanAllocLatency, kept so a sharded plane can merge
	// per-shard reports into an exact combined mean.
	allocLatency time.Duration
	allocCount   int
}

// add sums o into t; o's results follow t's.
func (t *Tally) add(o Tally) {
	t.JobsCompleted += o.JobsCompleted
	t.JobsFailed += o.JobsFailed
	t.Redispatched += o.Redispatched
	t.Results = append(t.Results, o.Results...)
	t.Offers += o.Offers
	t.Rejections += o.Rejections
	t.Contests += o.Contests
	t.ContestMsgs += o.ContestMsgs
	t.Bids += o.Bids
	t.Fallbacks += o.Fallbacks
	t.allocLatency += o.allocLatency
	t.allocCount += o.allocCount
}

// fold counts one master decision into s: its Tally's counters and
// results, and its outstanding jobs, which a consumed injection opens
// and a completion settles. On a master it is the one writer of all
// three; Tally.add only merges whole tallies. An assignment's latency
// reads the stamps its record just took.
func (s *session) fold(d decision) {
	switch d.kind {
	case TraceInjected:
		if !d.terminal {
			s.outstanding++
		}
	case TraceContest:
		s.Contests++
		s.ContestMsgs += d.msgs
	case decBid:
		s.Bids++
	case TraceOffered:
		s.Offers++
	case TraceRejected, decStaleReject:
		s.Rejections++
	case TraceAssigned:
		s.allocLatency += d.rec.Queued.Sub(d.rec.Injected)
		s.allocCount++
	case TraceFailed:
		s.JobsFailed++
		s.JobsCompleted++
		s.outstanding--
	case TraceFinished:
		s.JobsCompleted++
		s.outstanding--
	case TraceRedispatch:
		s.Redispatched++
	case decFallback:
		s.Fallbacks++
	}
	s.Results = append(s.Results, d.results...)
}

// meanAllocLatency is the mean injection-to-assignment delay.
func (t *Tally) meanAllocLatency() time.Duration {
	if t.allocCount == 0 {
		return 0
	}
	return t.allocLatency / time.Duration(t.allocCount)
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
