package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/vclock"
)

// Plane is the control-plane core every master-side actor embeds: the
// single Master, each contest shard, and the sharded frontend router
// all run this one actor shell (endpoint, inbox consumer,
// self-injection, labeled self-timers, lifecycle) over this one
// fleet-membership state machine, session table, end rule and job
// admission. What the embedding type adds is its dispatch switch — job
// records and contests on a Master, routing on the ShardedMaster.
type Plane struct {
	clk vclock.Clock
	ep  Port
	// labeled is non-nil only under a model-checking chooser (see
	// vclock.ActiveLabeled); the plane's self-timers then carry labels.
	labeled *vclock.Sim
	// dispatch is the embedding type's message switch; it reports true
	// when the plane is done. It is served run-to-completion (see
	// Start), so nothing it reaches may block on the clock: work that
	// must wait goes on a clk.Go goroutine that injects its result.
	dispatch func(env *broker.Envelope) (done bool)
	// served lists every plane Start serves: this one, then (on a
	// sharded frontend) one per shard part.
	served []*Plane

	// def is the sink session for events about jobs and sessions the
	// plane does not know; it consumes nothing and never ends.
	def *session
	// sessions indexes the opened sessions by ID; sessionList keeps them
	// in opening order for shutdown flushes and digests.
	sessions    map[string]*session //xflow:owned plane-loop
	sessionList []*session          //xflow:owned plane-loop
	// nextID numbers the jobs the plane admits (see admitJob).
	nextID int //xflow:owned plane-loop
	// muteStop suppresses the fleet-wide MsgStop publish when the plane
	// halts. The sharded control plane sets it on every shard part: the
	// frontend router owns the single stop broadcast, and N extra
	// publishes would stop workers early.
	muteStop bool

	membership

	// finished marks the loop terminated and aborted that a Deadline cut
	// it short; both are read from outside only after the loop has
	// exited (Run reads them once the clock's Wait returned).
	aborted  bool
	finished bool
}

// newPlane wires the core over a port; a plane expecting no workers
// starts formed. The caller must bind the dispatch switch once the
// embedding value has its final address.
func newPlane(clk vclock.Clock, ep Port, expectedWorkers int) Plane {
	return Plane{
		clk:        clk,
		ep:         ep,
		labeled:    vclock.ActiveLabeled(clk),
		def:        &session{},
		sessions:   make(map[string]*session),
		membership: newMembership(expectedWorkers),
	}
}

// bind installs the embedding type's dispatch switch and registers the
// plane itself for Start.
func (p *Plane) bind(dispatch func(env *broker.Envelope) bool) {
	p.dispatch = dispatch
	p.served = append(p.served, p)
}

// Start makes every plane's dispatch the consumer of its inbox
// (Clock.Serve): on the wall clock one receive-loop goroutine each, on
// a simulated clock no goroutine at all — a delivery is dispatched on
// the goroutine advancing the clock. A sharded plane needs all N+1
// consumers in place before workers register; a single master has just
// its own.
func (p *Plane) Start() {
	for _, q := range p.served {
		p.clk.Serve(q.ep.Inbox(), q.serve)
	}
}

// serve consumes one inbox item: it reports the plane done when
// dispatch does or the inbox has closed.
func (p *Plane) serve(v any, ok bool) (done bool) {
	if !ok {
		return true
	}
	env, ok := v.(*broker.Envelope)
	return ok && p.dispatch(env)
}

// run is serve as a blocking loop, for a caller that owns the
// goroutine (Master.Run).
func (p *Plane) run() {
	for {
		if p.serve(p.ep.Inbox().Recv()) {
			return
		}
	}
}

// selfEnvelope wraps a payload the plane addresses to itself.
func (p *Plane) selfEnvelope(payload any) *broker.Envelope {
	return &broker.Envelope{From: p.ep.Name(), To: p.ep.Name(), Payload: payload}
}

// Inject delivers a payload into the plane's actor loop from outside
// (session feeds, fault-injection hooks, tests). Safe to call from any
// goroutine.
func (p *Plane) Inject(payload any) {
	p.ep.Inbox().Send(p.selfEnvelope(payload))
}

// injectAfter is Inject d from now: the plane's self-timers (scheduled
// submissions, bid windows, ticks). Under a model-checking chooser the
// event is labeled with the master as its conflict domain — a plane's
// self-timers only ever land in its own inbox, and the whole control
// plane (router plus parts, which only ever receive through the router
// or their own self-timers) forms one conflict domain under MasterName,
// so they commute with deliveries to other nodes. The label's detail is
// what+id, joined only where a chooser reads it.
func (p *Plane) injectAfter(d time.Duration, what, id string, payload any) {
	env := p.selfEnvelope(payload)
	if p.labeled != nil {
		p.labeled.SendAfterLabeled(d, vclock.EventLabel{Node: MasterName, Detail: what + id}, p.ep.Inbox(), env)
		return
	}
	p.clk.SendAfter(d, p.ep.Inbox(), env)
}

// WaitReady blocks until the initial worker quorum has registered (or
// the plane stopped without one). On a simulated clock it must be
// called from a clock-tracked goroutine. It is single-shot: one caller
// owns the readiness signal.
func (p *Plane) WaitReady() { p.awaitFleet() }

// awaitFleet is WaitReady reporting whether the fleet formed: false
// means the plane stopped first.
func (p *Plane) awaitFleet() (formed bool) {
	_, formed = p.readyAck.Recv()
	return formed
}

// Shutdown stops the plane: the loop publishes MsgStop to
// the fleet, flushes a report to every session still waiting, and exits.
// Safe to call from any goroutine.
func (p *Plane) Shutdown() { p.Inject(msgShutdown{}) }

// Drain asks a worker to finish its queued jobs and leave the fleet. The
// worker is removed from the live set immediately — it wins no further
// contests — and the returned mailbox receives one value once its
// MsgLeave has been processed. Safe to call from any goroutine; on a
// simulated clock, receive on a clock-tracked goroutine.
func (p *Plane) Drain(worker string) vclock.Mailbox {
	ack := p.clk.NewMailbox("drain:" + worker)
	p.Inject(msgDrainStart{worker: worker, ack: ack})
	return ack
}

// OpenSession opens a streaming workflow session on the plane. id must
// be unique among open sessions; wf consumes the jobs.
// On a sharded plane the session is transparently partitioned: every
// submitted job routes to its key's shard, and Wait returns the merged
// per-shard report. Safe to call from any goroutine.
func (p *Plane) OpenSession(id string, wf *Workflow) *MasterSession {
	s := &session{id: id, wf: wf, feedOpen: true, done: p.clk.NewMailbox("session:" + id)}
	p.Inject(msgOpenSession{s: s})
	return &MasterSession{m: p, s: s}
}

// addSession registers an opened session and reports whether it is new:
// a second session under a known ID is not, and the first keeps it.
//
//xflow:goroutine plane-loop
func (p *Plane) addSession(s *session) bool {
	if _, ok := p.sessions[s.id]; ok {
		return false
	}
	p.sessions[s.id] = s
	p.sessionList = append(p.sessionList, s)
	s.startTime = p.clk.Now()
	return true
}

// sessionByID resolves the session name carried on a job (a downstream
// job names its parent's session); unknown names fall back to the sink.
//
//xflow:goroutine plane-loop
func (p *Plane) sessionByID(id string) *session {
	if s, ok := p.sessions[id]; ok {
		return s
	}
	return p.def
}

// ending reports that session s has just run its course: its feed is
// closed, nothing it was fed is still outstanding, and it has not
// finished before. The sink never ends.
func (p *Plane) ending(s *session) bool {
	return s != p.def && !s.finished && !s.feedOpen && s.outstanding == 0
}

// admitJob numbers a job that came without an ID, stamps it with its
// named session, and suffixes an ID that taken reports already in use.
// taken is only called, never kept, so a caller's closure stays on its
// stack and admission allocates nothing beyond the ID.
//
//xflow:goroutine plane-loop
func (p *Plane) admitJob(s *session, job *Job, taken func(id string) bool) {
	if job.ID == "" {
		job.ID = formatJobID(p.nextID)
	}
	p.nextID++
	if s.id != "" {
		job.Session = s.id
	}
	if taken(job.ID) {
		job.ID = fmt.Sprintf("%s#%d", job.ID, p.nextID)
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

// digestSessions renders the job counter and every session's
// accounting, the sink first, as lines of the model checker's
// fingerprint.
//
//xflow:goroutine plane-loop
func (p *Plane) digestSessions(b *strings.Builder) {
	fmt.Fprintf(b, "next=%d\n", p.nextID)
	writeSession(b, p.def)
	for _, s := range p.sessionList {
		writeSession(b, s)
	}
}

// halt ends the plane's run: it is marked finished (and aborted, when a
// Deadline cut it short), a WaitReady caller still waiting for a fleet
// that never formed is released, and the fleet is told to stop.
func (p *Plane) halt(abort bool) {
	if abort {
		p.aborted = true
	}
	p.finished = true
	p.abandonQuorum()
	if !p.muteStop {
		p.ep.Publish(TopicControl, MsgStop{})
	}
}

// membership is the fleet-membership state machine of a control plane:
// quorum formation, the live set, death tombstones, and pending drains.
// A Master keeps one for its own contests; the sharded frontend keeps
// one to run formation, the registration tombstone and drain acks
// before fanning membership events out to its parts — the same code
// over the same events, so the two views cannot drift.
type membership struct {
	// workers is the live set in registration order; workerSet indexes
	// it.
	workers   []string        //xflow:owned plane-loop
	workerSet map[string]bool //xflow:owned plane-loop
	// dead tombstones every worker that has died or left, so a
	// registration that was in flight when its sender was declared dead
	// cannot resurrect it. Found by the model checker: a kill landing
	// before the victim's MsgRegister arrived let the corpse register,
	// win a zero-bid fallback assignment, and strand the job forever
	// (fuzzing never sees this — generated kills deliberately stay clear
	// of the registration handshake).
	dead map[string]bool //xflow:owned plane-loop
	// drains holds the acks to deliver when each draining worker's
	// MsgLeave arrives.
	drains map[string][]vclock.Mailbox //xflow:owned plane-loop
	// expectedWorkers is the initial quorum; ready flips once it has
	// registered (or stopped being reachable). Registrations after that
	// are mid-run joins.
	expectedWorkers int  //xflow:owned plane-loop
	ready           bool //xflow:owned plane-loop
	// readyAck, when non-nil (shard parts have none), receives one
	// value as the fleet forms.
	readyAck vclock.Mailbox
}

//xflow:goroutine plane-loop
func newMembership(expectedWorkers int) membership {
	return membership{
		workerSet:       make(map[string]bool),
		dead:            make(map[string]bool),
		drains:          make(map[string][]vclock.Mailbox),
		expectedWorkers: expectedWorkers,
		ready:           expectedWorkers == 0,
	}
}

// signalReady routes fleet formation to ack, for WaitReady callers; a
// fleet that is already formed signals at once.
//
//xflow:goroutine plane-loop
func (ms *membership) signalReady(ack vclock.Mailbox) {
	ms.readyAck = ack
	if ms.ready {
		ack.Send(struct{}{})
	}
}

// abandonQuorum releases a WaitReady caller still waiting for a fleet
// that will now never form.
//
//xflow:goroutine plane-loop
func (ms *membership) abandonQuorum() {
	if !ms.ready && ms.readyAck != nil {
		ms.readyAck.Close()
	}
}

// live reports whether worker is in the live set — traffic from anyone
// else (dead, draining, never registered) must not influence allocation.
//
//xflow:goroutine plane-loop
func (ms *membership) live(worker string) bool { return ms.workerSet[worker] }

// liveCount is the size of the live set: the bidders a broadcast
// contest expects.
//
//xflow:goroutine plane-loop
func (ms *membership) liveCount() int { return len(ms.workers) }

// Workers returns a copy of the live set in registration order (it
// implements AllocCtx on a Master): deaths splice the internal slice in
// place, so handing out the alias would let one mutate a list an
// allocator captured earlier (e.g. a contest's expected-bidder set
// shrinking underneath it).
//
//xflow:goroutine plane-loop
func (ms *membership) Workers() []string {
	out := make([]string, len(ms.workers))
	copy(out, ms.workers)
	return out
}

// tombstoned reports that worker's registration must be refused: it
// died before the registration arrived, and acking it would add a corpse
// to the live set whose every won job would strand (its death was
// already processed — no later MsgWorkerDead will rescue them).
//
//xflow:goroutine plane-loop
func (ms *membership) tombstoned(worker string) bool { return ms.dead[worker] }

// admit adds a registering worker (already checked against tombstoned
// and acked) to the live set; re-registrations are no-ops. It reports
// true for a mid-run join — the fleet had already formed, so the caller
// must announce the newcomer before it can win any work. Before that,
// the registration counts toward the quorum.
//
//xflow:goroutine plane-loop
func (ms *membership) admit(worker string) (joined bool) {
	if ms.workerSet[worker] {
		return false
	}
	late := ms.ready
	ms.workerSet[worker] = true
	ms.workers = append(ms.workers, worker)
	if late {
		return true
	}
	ms.checkQuorum()
	return false
}

// checkQuorum settles fleet formation: the initial quorum is present,
// or has stopped being reachable (see shrinkQuorum).
func (ms *membership) checkQuorum() {
	if ms.ready || len(ms.workers) < ms.expectedWorkers {
		return
	}
	ms.ready = true
	if ms.readyAck != nil {
		ms.readyAck.Send(struct{}{})
	}
}

// shrinkQuorum lowers the fleet-formation bar by one expected worker —
// called when a worker dies or drains away before the fleet formed, so
// the remaining registrations can still complete the quorum instead of
// waiting forever for one that can never arrive. After ready it is a
// no-op (the quorum has served its purpose).
func (ms *membership) shrinkQuorum() {
	if ms.ready {
		return
	}
	ms.expectedWorkers--
	ms.checkQuorum()
}

// remove splices worker out of the live set. A pre-ready removal
// un-counts a registration the quorum had already banked, so the bar
// drops with it.
func (ms *membership) remove(worker string) {
	delete(ms.workerSet, worker)
	for i, w := range ms.workers {
		if w == worker {
			ms.workers = append(ms.workers[:i], ms.workers[i+1:]...)
			break
		}
	}
	ms.shrinkQuorum()
}

// lose tombstones a dead worker and reports whether it was live (and
// its in-flight jobs therefore need rescuing). A worker that died
// before its registration arrived (which tombstoned will now refuse)
// was never live, but as an expected initial worker that can never
// register it must also stop holding up the quorum.
//
//xflow:goroutine plane-loop
func (ms *membership) lose(worker string) (wasLive bool) {
	first := !ms.dead[worker]
	ms.dead[worker] = true
	if !ms.workerSet[worker] {
		if first {
			ms.shrinkQuorum()
		}
		return false
	}
	ms.remove(worker)
	return true
}

// leave settles the membership half of a worker's goodbye and reports
// whether it was still live. A leave without a preceding drain is a
// voluntary immediate exit and is handled like a death; after a drain
// the worker is already out of the live set and is not tombstoned, so
// its name may rejoin. The caller releases the drain acks
// (releaseDrain) once it has rescued the worker's records.
//
//xflow:goroutine plane-loop
func (ms *membership) leave(worker string) (wasLive bool) {
	return ms.workerSet[worker] && ms.lose(worker)
}

// startDrain removes worker from the live set — it wins no further
// contests — and banks ack for its MsgLeave. It reports false when
// there is nothing to start: the worker is unknown, dead, or already
// draining, and ack is then settled at once unless a drain is in fact
// in flight for the name. A drain racing fleet formation un-counts a
// banked registration the same way a pre-ready death does.
//
//xflow:goroutine plane-loop
func (ms *membership) startDrain(worker string, ack vclock.Mailbox) bool {
	if !ms.workerSet[worker] {
		if ack != nil {
			if _, pending := ms.drains[worker]; pending {
				ms.drains[worker] = append(ms.drains[worker], ack)
			} else {
				ack.Send(worker)
			}
		}
		return false
	}
	ms.remove(worker)
	ms.drains[worker] = append(ms.drains[worker], ack)
	return true
}

// releaseDrain delivers the acks banked for worker's drain, if any.
//
//xflow:goroutine plane-loop
func (ms *membership) releaseDrain(worker string) {
	acks, ok := ms.drains[worker]
	if !ok {
		return
	}
	delete(ms.drains, worker)
	for _, ack := range acks {
		if ack != nil {
			ack.Send(worker)
		}
	}
}

// flushDrains releases every pending drain, in sorted name order, so no
// caller blocks across a shutdown or abort.
//
//xflow:goroutine plane-loop
func (ms *membership) flushDrains() {
	for _, w := range sortedKeys(ms.drains) {
		ms.releaseDrain(w)
	}
}

// digest renders the membership state as one line of the model
// checker's fingerprint. A Master and a sharded frontend fed the same
// membership events render the same line.
//
//xflow:goroutine plane-loop
func (ms *membership) digest(b *strings.Builder) {
	fmt.Fprintf(b, "members ready=%t exp=%d workers=%s dead=%s drains=",
		ms.ready, ms.expectedWorkers, strings.Join(ms.workers, ","),
		strings.Join(sortedKeys(ms.dead), ","))
	for _, w := range sortedKeys(ms.drains) {
		fmt.Fprintf(b, "%s:%d,", w, len(ms.drains[w]))
	}
	b.WriteByte('\n')
}

// sortedKeys returns m's keys in sorted order — map iteration must
// never leak into ack delivery order or a digest.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
