package engine

import (
	"math/rand"
	"slices"
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
	// settle takes every terminal job with the downstream jobs its task
	// produced. A single master injects them locally; a shard part sends
	// them to the sharded frontend instead, so the router can
	// re-partition downstream work by content hash and track plane-wide
	// completion.
	settle func(jobID string, s *session, newJobs []*Job)
	// traceShard and traceSeq stamp emitted trace events with this
	// master's shard ordinal (1-based; 0 = unsharded) and a per-master
	// sequence number, giving a sharded run's interleaved trace a
	// deterministic global order (see TraceLog.Events).
	traceShard int
	traceSeq   int

	// cur is the session context of the event being handled, so
	// counters raised from inside allocator callbacks (CountFallback)
	// land on the right session.
	cur *session //xflow:owned master-loop

	records map[string]*JobRecord //xflow:owned master-loop
	order   []string              //xflow:owned master-loop
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
		Plane:   newPlane(clk, port, expectedWorkers),
		alloc:   alloc,
		rng:     rng,
		tracer:  tracer,
		records: make(map[string]*JobRecord),
	}
	m.cur = m.def
	m.settle = func(_ string, s *session, newJobs []*Job) {
		for _, nj := range newJobs {
			m.inject(s, nj)
		}
	}
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
		Allocator:        m.alloc.Name(),
		Start:            s.startTime,
		End:              s.endTime,
		Makespan:         s.endTime.Sub(s.startTime),
		Tally:            s.Tally,
		MeanAllocLatency: s.meanAllocLatency(),
		Records:          make(map[string]*JobRecord),
	}
	for _, id := range m.order {
		if rec := m.records[id]; rec.sess == s {
			rep.Records[id] = rec
		}
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
		if m.live(msg.Worker) {
			m.emit(m.sessFor(msg.JobID), decision{kind: decBid, worker: msg.Worker})
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
		m.cur = msg.s
	case msgSubmit:
		m.cur = msg.s
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
	// Settle the session the event touched if that ended it; the loop
	// itself never stops on its own.
	if m.ending(m.cur) {
		m.finish(m.cur)
	}
	return false
}

// stop ends a master on shutdown or abort: halt, then deliver a final
// report to every open session (in insertion order) and release every
// pending drain ack, so no caller blocks across it.
//
//xflow:goroutine plane-loop
func (m *Master) stop(abort bool) bool {
	m.halt(abort)
	for _, s := range m.sessionList {
		if !s.finished {
			m.finish(s)
		}
	}
	m.flushDrains()
	return true
}

// sessFor resolves a job ID to its session (the sink session for
// unknown jobs) and records it as the current event's session context.
func (m *Master) sessFor(jobID string) *session {
	m.cur = m.def
	if rec := m.records[jobID]; rec != nil {
		m.cur = rec.sess
	}
	return m.cur
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
	m.admitJob(s, job, func(id string) bool {
		_, dup := m.records[id]
		return dup
	})
	rec := &JobRecord{Job: job, sess: s}
	m.records[job.ID] = rec
	m.order = append(m.order, job.ID)
	_, consumed := s.wf.TaskFor(job.Stream)
	var collected []any // a job no task consumes is a result
	if !consumed && job.Payload != nil {
		collected = []any{job.Payload}
	}
	m.emit(s, decision{kind: TraceInjected, rec: rec, results: collected, terminal: !consumed})
	if !consumed {
		m.settle(job.ID, s, nil)
		return
	}
	m.alloc.JobReady(m, job)
}

func (m *Master) onAccept(msg MsgAccept) {
	m.sessFor(msg.JobID)
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status != StatusOffered || rec.Worker != msg.Worker {
		return
	}
	m.emit(rec.sess, decision{kind: TraceAssigned, rec: rec, worker: msg.Worker})
}

// onReject returns an offered job to allocation. A stale reject (the
// offer was since settled or withdrawn) still counts as a rejection.
func (m *Master) onReject(msg MsgReject) {
	s := m.sessFor(msg.JobID)
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status != StatusOffered || rec.Worker != msg.Worker {
		m.emit(s, decision{kind: decStaleReject, worker: msg.Worker})
		return
	}
	m.emit(s, decision{kind: TraceRejected, rec: rec, worker: msg.Worker})
	m.alloc.OfferRejected(m, msg.JobID, msg.Worker)
}

func (m *Master) onJobDone(msg MsgJobDone) {
	rec := m.records[msg.JobID]
	if rec == nil || rec.Status == StatusFinished || rec.Worker != msg.Worker {
		return // stale completion from a lost worker
	}
	s := m.sessFor(msg.JobID)
	kind := TraceFinished
	if msg.Failed {
		kind = TraceFailed
	}
	m.emit(s, decision{kind: kind, rec: rec, worker: msg.Worker, results: msg.Results})
	m.settle(msg.JobID, s, msg.NewJobs)
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
			m.emit(rec.sess, decision{kind: TraceRedispatch, rec: rec, worker: worker})
			inflight = append(inflight, rec.Job)
		}
	}
	if wasLive {
		m.alloc.WorkerLost(m, worker, inflight)
	}
	for _, job := range inflight {
		m.sessFor(job.ID)
		m.alloc.JobReady(m, job)
	}
}

// finish closes session s's span and delivers its report.
func (m *Master) finish(s *session) {
	s.finished = true
	s.endTime = m.clk.Now()
	if s.done != nil {
		s.done.Send(m.report(s))
	}
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
	m.emit(rec.sess, decision{kind: TraceAssigned, rec: rec, worker: worker})
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
	m.emit(rec.sess, decision{kind: TraceOffered, rec: rec, worker: worker})
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
	req := MsgBidRequest{Job: rec.Job}
	if ap, ok := m.ep.(asyncPublisher); ok {
		ap.PublishAsync(TopicBids, req)
	} else {
		m.ep.Publish(TopicBids, req)
	}
	n := m.liveCount()
	m.emit(rec.sess, decision{kind: TraceContest, rec: rec, msgs: n})
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
	live := slices.DeleteFunc(slices.Clone(workers), func(w string) bool { return !m.live(w) })
	if len(live) == 0 {
		return 0
	}
	req := MsgBidRequest{Job: rec.Job}
	if ms, ok := m.ep.(multiSender); ok {
		ms.SendMulti(live, req)
	} else {
		for _, w := range live {
			m.ep.Send(w, req)
		}
	}
	m.emit(rec.sess, decision{kind: TraceContest, rec: rec, msgs: len(live), targets: live})
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

// CountFallback implements AllocCtx. It lands on the session of the
// event being handled.
//
//xflow:goroutine master-loop
func (m *Master) CountFallback() { m.emit(m.cur, decision{kind: decFallback}) }
