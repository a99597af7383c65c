package engine

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the engine's half of the model checker's state
// fingerprint (see internal/modelcheck): canonical renderings of every
// piece of protocol state, plus EventDetail descriptions for messages
// so in-flight deliveries and queued mailbox items fingerprint by
// content instead of by type alone — a bid for job-0001 and a bid for
// job-0002 in flight are different states.
//
// Digest rules: deterministic order everywhere (insertion-ordered
// slices as-is, map keys sorted), no pointers, no absolute times. The
// checker explores with frozen virtual time, so durations that appear
// here (estimates, believed costs) are pure protocol quantities.

// StateDigester is implemented by allocators and agents whose internal
// state must be part of the model checker's fingerprint. Those without
// state between events need not implement it.
type StateDigester interface {
	StateDigest() string
}

// StateDigest renders the master's protocol state: flags, membership
// (live set, tombstones, pending drains), per-job records, per-session
// accounting, and the allocator's own digest. The checker calls it only
// at quiescent points, when the master loop is parked in its inbox
// receive.
//
//xflow:goroutine master-loop
func (m *Master) StateDigest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "master finished=%t aborted=%t\n", m.finished, m.aborted)
	m.digest(&b)
	for _, id := range m.order {
		rec := m.records[id]
		fmt.Fprintf(&b, "rec %s %s %s\n", id, rec.Status, rec.Worker)
	}
	m.digestSessions(&b)
	if d, ok := m.alloc.(StateDigester); ok {
		b.WriteString(d.StateDigest())
	}
	return b.String()
}

func writeSession(b *strings.Builder, s *session) {
	fmt.Fprintf(b, "sess %q finished=%t feed=%t out=%d done=%d fail=%d red=%d contests=%d bids=%d offers=%d rej=%d fb=%d\n",
		s.id, s.finished, s.feedOpen, s.outstanding,
		s.JobsCompleted, s.JobsFailed, s.Redispatched, s.Contests, s.Bids, s.Offers,
		s.Rejections, s.Fallbacks)
}

// StateDigest renders one worker's protocol state: lifecycle flags,
// the running job and its believed cost, pending data acquisitions,
// cache contents in (deterministic) MRU order, and the agent's own
// digest. Queued jobs and their costs are the exec mailbox's items (see
// execEntry.EventDetail). Called only at quiescent points; the mutex
// still guards against nothing in particular then, but keeps the access
// pattern uniform.
func (w *Worker) StateDigest() string {
	w.mu.Lock()
	var b strings.Builder
	cur := ""
	if w.running.job != nil {
		cur = w.running.job.ID
	}
	fmt.Fprintf(&b, "worker %s reg=%t killed=%t stopped=%t draining=%t done=%d cur=%s est=%d\n",
		w.name, w.registered, w.killed, w.stopped, w.draining, w.jobsDone,
		cur, w.running.est)
	keys := make([]string, 0, len(w.pendingData))
	for k := range w.pendingData {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "pending %s=%d\n", k, w.pendingData[k])
	}
	w.mu.Unlock()
	fmt.Fprintf(&b, "cache %s\n", strings.Join(w.cache.Keys(), ","))
	if d, ok := w.agent.(StateDigester); ok {
		b.WriteString(d.StateDigest())
	}
	return b.String()
}

// StateDigest renders the whole cluster: master (including allocator)
// and every member in join order. Departed-but-remembered members
// (killed workers) are included — their frozen state is still state.
func (c *Cluster) StateDigest() string {
	var b strings.Builder
	b.WriteString(c.digest())
	c.mu.Lock()
	order := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, name := range order {
		if w := c.worker(name); w != nil {
			b.WriteString(w.StateDigest())
		}
	}
	return b.String()
}

// --- EventDetail -------------------------------------------------------
//
// EventDetail implements the rendering convention vclock.MailboxDigest
// and the broker's delivery labels share: a stable, content-bearing
// one-liner per message. Estimates print as raw nanoseconds.

func (m MsgRegister) EventDetail() string   { return "register " + m.Worker }
func (MsgRegisterAck) EventDetail() string  { return "register-ack" }
func (m MsgBidRequest) EventDetail() string { return "bidreq " + m.Job.ID }
func (m MsgAssign) EventDetail() string {
	return fmt.Sprintf("assign %s est=%d", m.Job.ID, m.EstimatedCost)
}
func (m MsgOffer) EventDetail() string       { return "offer " + m.Job.ID }
func (m MsgAccept) EventDetail() string      { return "accept " + m.JobID + " " + m.Worker }
func (m MsgReject) EventDetail() string      { return "reject " + m.JobID + " " + m.Worker }
func (m MsgNoWork) EventDetail() string      { return fmt.Sprintf("nowork %d", m.Backoff) }
func (m MsgEmit) EventDetail() string        { return "emit " + m.Worker }
func (m MsgTick) EventDetail() string        { return "tick " + m.Token }
func (MsgStop) EventDetail() string          { return "stop" }
func (MsgDrain) EventDetail() string         { return "drain" }
func (m MsgLeave) EventDetail() string       { return "leave " + m.Worker }
func (m MsgWorkerDead) EventDetail() string  { return "dead " + m.Worker }
func (msgAbort) EventDetail() string         { return "abort" }
func (m msgDrainStart) EventDetail() string  { return "drain-start " + m.worker }
func (msgShutdown) EventDetail() string      { return "shutdown" }
func (m msgOpenSession) EventDetail() string { return "open-session " + m.s.id }
func (m msgSubmit) EventDetail() string      { return "submit " + m.s.id + " " + m.job.ID }
func (m msgCloseFeed) EventDetail() string   { return "close-feed " + m.s.id }
func (m msgShardSettled) EventDetail() string {
	return fmt.Sprintf("shard-settled %s sess=%q new=%d", m.JobID, m.Sess, len(m.NewJobs))
}

func (msgRegisterRetry) EventDetail() string { return "register-retry" }
func (m msgBidReady) EventDetail() string    { return "bid-ready " + m.bid.JobID }
func (m msgPullRetry) EventDetail() string   { return fmt.Sprintf("pull-retry strikes=%d", m.strikes) }

func (m MsgBid) EventDetail() string {
	return fmt.Sprintf("bid %s %s est=%d job=%d local=%t", m.JobID, m.Worker, m.Estimate, m.JobCost, m.Local)
}

func (m MsgBidWindowExpired) EventDetail() string { return "bidwindow-expired " + m.JobID }

func (m MsgRequestJob) EventDetail() string {
	// CachedKeys arrives in the sender's deterministic MRU order; keep it.
	return fmt.Sprintf("pull %s strikes=%d keys=%s", m.Worker, m.Strikes, strings.Join(m.CachedKeys, ","))
}

func (m MsgCacheEvict) EventDetail() string {
	return "evict " + m.Worker + " " + strings.Join(m.Keys, ",")
}

func (m MsgJobDone) EventDetail() string {
	return fmt.Sprintf("done %s %s failed=%t new=%d res=%d", m.JobID, m.Worker, m.Failed, len(m.NewJobs), len(m.Results))
}

// EventDetail describes a job queued in a worker's exec mailbox with
// its believed cost.
func (e execEntry) EventDetail() string { return fmt.Sprintf("job %s est=%d", e.job.ID, e.est) }

// EventDetail marks a queued drain sentinel.
func (drainSentinel) EventDetail() string { return "drain-sentinel" }
