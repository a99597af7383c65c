package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/vclock"
)

// Master is the coordinating node: it takes in submitted jobs, mediates
// allocation through its Allocator, tracks every job's status and
// timestamps (the paper's master record), and detects workflow
// completion. It runs as a single actor over its broker inbox — the
// shared Plane core — and adds the job records, contests, and the
// AllocCtx surface on top.
//
// A master has no built-in workflow: sessions are opened and fed
// explicitly, workers join and leave while the loop runs, and the loop
// exits only on Shutdown. All per-workflow state lives in session
// values; a one-shot Run is one session and a Shutdown.
type Master struct {
	Plane
	alloc  Allocator
	rng    *rand.Rand
	tracer Tracer
	// staleBidBug re-introduces the PR-2 stale dead-worker-bid bug (a
	// bid from a dead worker may win its contest). Test-only: it exists
	// so the model checker's counterexample path stays demonstrable, and
	// only Cluster.SetStaleBidBug sets it.
	staleBidBug bool
	// settle, when non-nil, replaces local re-injection of downstream
	// jobs with a notice to the sharded frontend: every terminal job is
	// reported (together with the task's NewJobs) so the router can
	// re-partition downstream work by content hash and track plane-wide
	// completion. Nil on an unsharded master — behavior is unchanged.
	settle func(jobID string, s *session, newJobs []*Job)
	// traceShard and traceSeq stamp emitted trace events with this
	// master's shard ordinal (1-based; 0 = unsharded) and a per-master
	// sequence number, giving a sharded run's interleaved trace a
	// deterministic global order (see TraceLog.Events).
	traceShard int
	traceSeq   int

	// sessions maps open session IDs; sessionList keeps deterministic
	// insertion order for shutdown flushes.
	sessions    map[string]*session //xflow:owned master-loop
	sessionList []*session          //xflow:owned master-loop
	// cur is the session context of the event being handled, so
	// counters raised from inside allocator callbacks (CountFallback)
	// land on the right session.
	cur *session //xflow:owned master-loop

	records map[string]*JobRecord //xflow:owned master-loop
	order   []string              //xflow:owned master-loop
	nextID  int                   //xflow:owned master-loop
}

// newMaster wires a master running until Shutdown. The caller owns
// rng's seeding — the master never touches the global math/rand
// generator, so identically-seeded runs replay identically. A nil rng
// falls back to a seed-0 source rather than crashing. tracer may be nil.
//
//xflow:goroutine master-loop
func newMaster(clk vclock.Clock, port Port, alloc Allocator,
	expectedWorkers int, rng *rand.Rand, tracer Tracer) *Master {
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	m := &Master{
		Plane:    newPlane(clk, port, expectedWorkers),
		alloc:    alloc,
		rng:      rng,
		tracer:   tracer,
		sessions: make(map[string]*session),
		records:  make(map[string]*JobRecord),
	}
	m.cur = m.def
	m.bind(m.handle)
	return m
}

// NewClusterMaster wires a long-lived master over an arbitrary Port —
// the entry point for distributed deployments where the broker lives in
// another process: open sessions with OpenSession, feed them jobs, and
// stop the loop with Shutdown. expectedWorkers is the initial quorum to
// wait for before sessions start flowing (zero means "ready
// immediately"); workers registering after the quorum are mid-run joins
// and are announced to the allocator via WorkerJoined. The seeded rng
// drives every random allocation decision.
func NewClusterMaster(clk vclock.Clock, port Port, alloc Allocator,
	expectedWorkers int, rng *rand.Rand) *Master {
	m := newMaster(clk, port, alloc, expectedWorkers, rng, nil)
	m.signalReady(clk.NewMailbox(port.Name() + ":ready"))
	return m
}

// Run executes the master actor as a blocking loop until Shutdown, for
// a caller that owns the goroutine; it must run on a goroutine the
// clock tracks (started with its Go). Use Start or Run, not both.
func (m *Master) Run() { m.run() }

// report builds session s's report (timings, statuses, scheduling
// counters) over the records of its own jobs. Worker-side cache and
// data-load counters are zero: Run adds them from the fleet, and
// distributed deployments collect them on the worker processes.
func (m *Master) report(s *session) *Report {
	rep := &Report{
		Allocator:     m.alloc.Name(),
		Start:         s.startTime,
		End:           s.endTime,
		Makespan:      s.endTime.Sub(s.startTime),
		JobsCompleted: s.completed,
		JobsFailed:    s.failures,
		Redispatched:  s.redispatched,
		Results:       s.results,
		Offers:        s.offers,
		Rejections:    s.rejections,
		Contests:      s.contests,
		ContestMsgs:   s.contestMsgs,
		Bids:          s.bids,
		Fallbacks:     s.fallbacks,
		Records:       make(map[string]*JobRecord),
		allocLatency:  s.allocLatency,
		allocCount:    s.allocCount,
	}
	for _, id := range m.order {
		if rec := m.records[id]; rec.sess == s {
			rep.Records[id] = rec
		}
	}
	if s.allocCount > 0 {
		rep.MeanAllocLatency = s.allocLatency / time.Duration(s.allocCount)
	}
	return rep
}

// handle is the master's dispatch switch, run by the Plane loop.
//
//xflow:goroutine master-loop
func (m *Master) handle(env *broker.Envelope) (done bool) {
	//xflow:dispatch master
	switch msg := env.Payload.(type) {
	//xflow:unhandled msgShardSettled consumed only by the sharded frontend's router loop; shard parts emit it and never receive it
	case MsgRegister:
		m.onRegister(msg.Worker)
	case MsgBid:
		// An in-flight bid from a worker that has since died must not win
		// the contest: the assignment would go to a closed endpoint and the
		// job would be stranded until the next kill of that worker (which
		// never comes). Found by simtest fuzzing (seed 438).
		if m.live(msg.Worker) || m.staleBidBug {
			m.sessFor(msg.JobID).bids++
			m.alloc.BidReceived(m, msg)
		}
	case MsgBidWindowExpired:
		m.sessFor(msg.JobID)
		m.alloc.BidWindowExpired(m, msg.JobID)
	case MsgAccept:
		m.onAccept(msg)
	case MsgReject:
		m.onReject(msg)
	case MsgRequestJob:
		if m.live(msg.Worker) {
			m.alloc.WorkerIdle(m, msg)
		}
	case MsgEmit:
		if msg.Job != nil {
			m.inject(m.sessionByID(msg.Job.Session), msg.Job)
		}
	case MsgJobDone:
		m.onJobDone(msg)
	case MsgTick:
		m.alloc.Tick(m, msg.Token)
	case MsgCacheEvict:
		if m.live(msg.Worker) {
			m.alloc.CacheEvicted(m, msg.Worker, msg.Keys)
		}
	case MsgWorkerDead:
		m.onWorkerDead(msg.Worker)
	case MsgLeave:
		m.onLeave(msg.Worker)
	case msgOpenSession:
		m.addSession(msg.s)
	case msgSubmit:
		m.addSession(msg.s)
		if !msg.s.finished {
			m.inject(msg.s, msg.job)
		}
	case msgCloseFeed:
		msg.s.feedOpen = false
		m.cur = msg.s
	case msgDrainStart:
		m.onDrainStart(msg)
	case msgShutdown:
		return m.stop(false)
	case msgAbort:
		return m.stop(true)
	}
	return m.maybeFinish()
}

// stop ends a master on shutdown or abort: halt, then flush a final
// report to every open session and pending drain ack so no caller
// blocks across it.
func (m *Master) stop(abort bool) bool {
	m.halt(abort)
	m.flushWaiters()
	return true
}

// sessFor resolves a job ID to its session (the sink session for
// unknown jobs) and records it as the current event's session context.
func (m *Master) sessFor(jobID string) *session {
	if rec := m.records[jobID]; rec != nil {
		m.cur = rec.sess
	} else {
		m.cur = m.def
	}
	return m.cur
}

// sessionByID resolves the session name carried on a job (an emitted
// downstream job names its parent's session); unknown names fall back
// to the sink session.
func (m *Master) sessionByID(id string) *session {
	if s, ok := m.sessions[id]; ok {
		return s
	}
	return m.def
}

// addSession registers an explicitly-opened session; idempotent so a
// feed's first Submit can race its Open harmlessly.
func (m *Master) addSession(s *session) {
	if _, ok := m.sessions[s.id]; !ok {
		m.sessions[s.id] = s
		m.sessionList = append(m.sessionList, s)
		s.startTime = m.clk.Now()
	}
	m.cur = s
}

// flushWaiters delivers final reports to every open session (in
// insertion order) and releases every pending drain ack.
func (m *Master) flushWaiters() {
	for _, s := range m.sessionList {
		if !s.finished {
			m.finish(s)
		}
	}
	m.flushDrains()
}

func (m *Master) onRegister(worker string) {
	if m.tombstoned(worker) {
		return
	}
	m.ep.Send(worker, MsgRegisterAck{})
	if m.admit(worker) {
		m.alloc.WorkerJoined(m, worker)
	}
}

// inject registers a job under session s and hands it to the allocator
// (or collects it as a session result if no task consumes its stream).
func (m *Master) inject(s *session, job *Job) {
	m.cur = s
	if s.wf == nil {
		return // a stray job for a session this master does not know
	}
	if job.ID == "" {
		job.ID = formatJobID(m.nextID)
	}
	m.nextID++
	if s.id != "" {
		job.Session = s.id
	}
	rec := &JobRecord{Job: job, Status: StatusPending, Injected: m.clk.Now(), sess: s}
	if _, dup := m.records[job.ID]; dup {
		rec.Job.ID = fmt.Sprintf("%s#%d", job.ID, m.nextID)
	}
	m.records[rec.Job.ID] = rec
	m.order = append(m.order, rec.Job.ID)
	m.trace(TraceInjected, rec.Job.ID, "")
	if _, consumed := s.wf.TaskFor(job.Stream); !consumed {
		rec.Status = StatusFinished
		rec.Finished = m.clk.Now()
		if job.Payload != nil {
			s.results = append(s.results, job.Payload)
		}
		if m.settle != nil {
			m.settle(rec.Job.ID, s, nil)
		}
		return
	}
	s.outstanding++
	m.alloc.JobReady(m, job)
}

func (m *Master) onAccept(msg MsgAccept) {
	s := m.sessFor(msg.JobID)
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status != StatusOffered || rec.Worker != msg.Worker {
		return
	}
	rec.Status = StatusQueued
	rec.Queued = m.clk.Now()
	rec.Started = rec.Queued // Listing 1 line 25: stamped at allocation
	s.allocLatency += rec.Queued.Sub(rec.Injected)
	s.allocCount++
	m.trace(TraceAssigned, msg.JobID, msg.Worker)
}

func (m *Master) onReject(msg MsgReject) {
	m.sessFor(msg.JobID).rejections++
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status != StatusOffered || rec.Worker != msg.Worker {
		return
	}
	rec.Status = StatusPending
	rec.Worker = ""
	m.trace(TraceRejected, msg.JobID, msg.Worker)
	m.alloc.OfferRejected(m, msg.JobID, msg.Worker)
}

func (m *Master) onJobDone(msg MsgJobDone) {
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status == StatusFinished || rec.Worker != msg.Worker {
		return // stale completion from a lost worker
	}
	s := m.sessFor(msg.JobID)
	rec.Status = StatusFinished
	rec.Finished = m.clk.Now()
	s.outstanding--
	s.completed++
	if msg.Failed {
		s.failures++
		m.trace(TraceFailed, msg.JobID, msg.Worker)
	} else {
		m.trace(TraceFinished, msg.JobID, msg.Worker)
	}
	s.results = append(s.results, msg.Results...)
	if m.settle != nil {
		// Sharded part: downstream jobs go back to the frontend for
		// content-hash routing instead of being injected locally — their
		// data keys may belong to other shards.
		m.settle(msg.JobID, s, msg.NewJobs)
	} else {
		for _, nj := range msg.NewJobs {
			m.inject(s, nj)
		}
	}
	m.alloc.JobFinished(m, msg.JobID, msg.Worker)
}

func (m *Master) onWorkerDead(worker string) {
	if m.lose(worker) {
		m.rescue(worker, true)
	}
}

// onDrainStart removes the worker from the live set — it wins no
// further contests, and WorkerLost scrubs its open bids so a stale bid
// cannot assign it work either — then tells it to finish its queue and
// leave. Assignments already sent ride the same FIFO broker route as
// MsgDrain, so they land in the worker's queue before it closes.
func (m *Master) onDrainStart(msg msgDrainStart) {
	if m.startDrain(msg.worker, msg.ack) {
		m.alloc.WorkerLost(m, msg.worker, nil)
		m.ep.Send(msg.worker, MsgDrain{})
	}
}

// onLeave settles a worker's departure. A leave without a preceding
// drain is handled like a death (queued jobs redispatched); after a
// drain the queue completed, but any record still attributed to the
// worker (an assignment that a delay spike reordered past the drain) is
// rescued so no job is lost.
func (m *Master) onLeave(worker string) {
	m.rescue(worker, m.leave(worker))
	m.releaseDrain(worker)
}

// rescue redispatches every unfinished record still attributed to a
// worker that is no longer a member. wasLive marks a death (or undrained
// leave): the allocator then hears WorkerLost with the in-flight jobs
// before they re-enter allocation; a drained worker's loss was already
// announced when its drain started.
func (m *Master) rescue(worker string, wasLive bool) {
	var inflight []*Job
	for _, id := range m.order {
		rec := m.records[id]
		if rec.Worker == worker && rec.Status != StatusFinished && rec.Status != StatusPending {
			rec.Status = StatusPending
			rec.Worker = ""
			rec.sess.redispatched++
			inflight = append(inflight, rec.Job)
		}
	}
	for _, job := range inflight {
		m.trace(TraceRedispatch, job.ID, worker)
	}
	if wasLive {
		m.alloc.WorkerLost(m, worker, inflight)
	}
	for _, job := range inflight {
		m.sessFor(job.ID)
		m.alloc.JobReady(m, job)
	}
}

// maybeFinish settles the session the event touched if that completed
// it. The loop itself never stops on its own.
func (m *Master) maybeFinish() bool {
	if s := m.cur; s != m.def && !s.finished && !s.feedOpen && s.outstanding == 0 {
		m.finish(s)
	}
	return false
}

// finish closes session s's span and delivers its report.
func (m *Master) finish(s *session) {
	s.finished = true
	s.endTime = m.clk.Now()
	if s.done != nil {
		s.done.Send(m.report(s))
	}
}

// formatJobID renders "job-%04d" without fmt's reflection cost — the
// per-job loop calls it for every auto-assigned ID.
func formatJobID(n int) string {
	var buf [16]byte
	b := strconv.AppendInt(buf[:0], int64(n), 10)
	id := make([]byte, 0, len("job-")+4+len(b))
	id = append(id, "job-"...)
	for pad := 4 - len(b); pad > 0; pad-- {
		id = append(id, '0')
	}
	id = append(id, b...)
	return string(id)
}

// --- AllocCtx implementation -------------------------------------------
//
// Workers is the embedded membership's.

// Clock implements AllocCtx.
func (m *Master) Clock() vclock.Clock { return m.clk }

// Job implements AllocCtx.
//
//xflow:goroutine master-loop
func (m *Master) Job(id string) *Job {
	if rec, ok := m.records[id]; ok {
		return rec.Job
	}
	return nil
}

// Assign implements AllocCtx: unconditional allocation to a worker.
//
//xflow:goroutine master-loop
func (m *Master) Assign(jobID, worker string, est time.Duration) {
	rec := m.records[jobID]
	if rec == nil || rec.Status == StatusFinished || rec.Status == StatusQueued {
		return
	}
	s := rec.sess
	rec.Status = StatusQueued
	rec.Worker = worker
	rec.Queued = m.clk.Now()
	rec.Started = rec.Queued
	s.allocLatency += rec.Queued.Sub(rec.Injected)
	s.allocCount++
	m.trace(TraceAssigned, jobID, worker)
	m.ep.Send(worker, MsgAssign{Job: rec.Job, EstimatedCost: est})
}

// Offer implements AllocCtx: propose a job, worker may decline.
//
//xflow:goroutine master-loop
func (m *Master) Offer(jobID, worker string) {
	rec := m.records[jobID]
	if rec == nil || rec.Status == StatusFinished {
		return
	}
	rec.Status = StatusOffered
	rec.Worker = worker
	rec.sess.offers++
	m.trace(TraceOffered, jobID, worker)
	m.ep.Send(worker, MsgOffer{Job: rec.Job})
}

// SendNoWork implements AllocCtx.
//
//xflow:goroutine master-loop
func (m *Master) SendNoWork(worker string, backoff time.Duration) {
	m.ep.Send(worker, MsgNoWork{Backoff: backoff})
}

// asyncPublisher is the optional non-waiting publish a Port may
// provide (the TCP transport client does). The master uses it only to
// publish without waiting for the broker's ack, and drops the future.
type asyncPublisher interface {
	PublishAsync(topic string, payload any) func() int
}

// PublishBidRequest implements AllocCtx. The contest's expected bidders
// are the live workers at publish: the master already counts bids only
// from them, so it never waits for the broker's reached count. A live
// worker the request did not reach is a late bidder — the window closes
// without it.
//
//xflow:goroutine master-loop
func (m *Master) PublishBidRequest(jobID string) int {
	rec := m.records[jobID]
	if rec == nil {
		return 0
	}
	s := rec.sess
	s.contests++
	m.trace(TraceContest, jobID, "")
	req := MsgBidRequest{Job: rec.Job}
	if ap, ok := m.ep.(asyncPublisher); ok {
		ap.PublishAsync(TopicBids, req)
	} else {
		m.ep.Publish(TopicBids, req)
	}
	n := m.liveCount()
	s.contestMsgs += n
	return n
}

// multiSender is the optional targeted-multicast capability a Port may
// provide (the in-process broker endpoint does). Masters on ports
// without it fall back to one direct send per target.
type multiSender interface {
	SendMulti(targets []string, payload any) int
}

// PublishBidRequestTo implements AllocCtx: a targeted contest asking
// only the named workers. Targets that are not live registered workers
// are skipped, and the contest is sized by the live targets; the trace
// records one contest event per live target (Node = target), so trace
// consumers can check assignments against the contested set.
//
//xflow:goroutine master-loop
func (m *Master) PublishBidRequestTo(jobID string, workers []string) int {
	rec := m.records[jobID]
	if rec == nil || len(workers) == 0 {
		return 0
	}
	live := workers[:0:0]
	for _, w := range workers {
		if m.live(w) {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		return 0
	}
	s := rec.sess
	s.contests++
	req := MsgBidRequest{Job: rec.Job}
	if ms, ok := m.ep.(multiSender); ok {
		ms.SendMulti(live, req)
	} else {
		for _, w := range live {
			m.ep.Send(w, req)
		}
	}
	s.contestMsgs += len(live)
	for _, w := range live {
		m.trace(TraceContest, jobID, w)
	}
	return len(live)
}

// ScheduleBidWindow implements AllocCtx.
func (m *Master) ScheduleBidWindow(jobID string, d time.Duration) {
	m.injectAfter(d, "bidwindow ", jobID, MsgBidWindowExpired{JobID: jobID})
}

// ScheduleTick implements AllocCtx.
func (m *Master) ScheduleTick(token string, d time.Duration) {
	m.injectAfter(d, "tick ", token, MsgTick{Token: token})
}

// Rand implements AllocCtx.
func (m *Master) Rand() *rand.Rand { return m.rng }

// CountFallback lets allocators record an arbitrary (no-bid) assignment.
// It lands on the session of the event being handled.
//
//xflow:goroutine master-loop
func (m *Master) CountFallback() { m.cur.fallbacks++ }
