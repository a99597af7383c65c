package engine

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"crossflow/internal/broker"
	"crossflow/internal/locindex"
	"crossflow/internal/vclock"
)

// ShardName returns the endpoint name of contest shard i of a sharded
// control plane. Shard endpoints sit next to the frontend router (which
// keeps the plain MasterName), so workers keep addressing "master" and
// answer whoever asked, never needing to know the plane is sharded.
func ShardName(i int) string { return MasterName + "#" + strconv.Itoa(i) }

// ShardedMaster is the frontend of the sharded contest control plane:
// a thin router actor on the MasterName endpoint in front of N shard
// parts, each a full (muted) Master owning the contests, the locindex
// slice, and the per-worker load accounting of its content-hash
// partition. Workers are unchanged — they talk to "master" as ever and
// reply to the sender, so bids, accepts, rejects and completions go
// straight to the shard that asked. The router handles only what is
// addressed to "master": it partitions submissions by locindex.ShardOf
// over the job's DataKey, fans membership events and pulls out to every
// shard, and merges the per-shard Reports back into the single view
// callers of an unsharded master would have seen. The actor shell and
// the membership state machine are the same Plane core the parts run.
//
// The router forwards by writing straight into a part's inbox — shard
// parts live in the router's process, so no forwarded message is ever
// serialized and none ever transits the broker. The one exception in
// the reverse direction is the settle notice (msgShardSettled), which a
// simulated part sends through the broker so its delivery shares the
// deterministic route-skew timing of all protocol traffic.
type ShardedMaster struct {
	Plane
	parts []*Master

	// admitted holds every job ID the router has routed, for
	// admitJob's duplicate check.
	admitted map[string]bool //xflow:owned router-loop
}

// newShardedMaster wires a sharded plane: the frontend router on port
// and one contest shard per shard port. Each part is a long-lived
// master loop with its fleet-stop publish muted (the frontend owns the
// single broadcast) and terminal jobs reported back to the frontend
// instead of re-injected locally; it runs on its own allocator and rng
// stream, drawn from rng in shard order so the whole plane stays a pure
// function of the seed.
//
// On a simulated broker the settle hook sends the notice through the
// broker (deterministic route-skew timing, and a partitioned shard's
// notices are lost exactly like its other sends); on any other port —
// the TCP transport, whose wire format does not carry internal
// messages — it injects straight into the router's inbox, which is
// correct because parts always share the router's process. tracer goes
// to every part; the router itself allocates nothing.
//
//xflow:goroutine router-loop
func newShardedMaster(clk vclock.Clock, port Port, shardPorts []Port, newAlloc func() Allocator,
	expectedWorkers int, rng *rand.Rand, tracer Tracer) *ShardedMaster {
	if rng == nil {
		rng = rand.New(rand.NewSource(0))
	}
	sm := &ShardedMaster{
		Plane:    newPlane(clk, port, expectedWorkers),
		parts:    make([]*Master, len(shardPorts)),
		admitted: make(map[string]bool),
	}
	sm.bind(sm.handle)
	for i, sp := range shardPorts {
		partRng := rand.New(rand.NewSource(rng.Int63()))
		p := newMaster(clk, sp, newAlloc(), expectedWorkers, partRng, tracer)
		p.muteStop = true
		p.traceShard = i + 1
		p.settle = func(jobID string, s *session, newJobs []*Job) {
			msg := msgShardSettled{JobID: jobID, Sess: s.id, NewJobs: newJobs}
			if _, sim := sp.(*broker.Endpoint); sim {
				sp.Send(port.Name(), msg)
				return
			}
			sm.Inject(msg)
		}
		sm.parts[i] = p
		sm.served = append(sm.served, &p.Plane)
	}
	return sm
}

// NewShardedClusterMaster wires a long-lived sharded control plane over
// explicit ports: the frontend router on port (conventionally named
// MasterName) and one contest shard per element of shardPorts
// (conventionally ShardName(i)). newAlloc builds each shard's own
// allocator; rng seeds each shard's independent decision stream.
// Sessions opened on the returned plane are transparently partitioned
// and their reports merged. cmd/xflow-master -shards uses this over the
// TCP transport; in-process runs go through Config.Shards.
func NewShardedClusterMaster(clk vclock.Clock, port Port, shardPorts []Port,
	newAlloc func() Allocator, expectedWorkers int, rng *rand.Rand) *ShardedMaster {
	sm := newShardedMaster(clk, port, shardPorts, newAlloc, expectedWorkers, rng, nil)
	sm.signalReady(clk.NewMailbox(port.Name() + ":ready"))
	return sm
}

// mergeReports combines per-shard reports into the single-master shape:
// counters sum, records union, results concatenate in shard order, and
// the span runs from the earliest shard start to the latest shard end.
func mergeReports(reports []*Report) *Report {
	merged := &Report{Records: make(map[string]*JobRecord)}
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		if merged.Allocator == "" {
			merged.Allocator = rep.Allocator
		}
		if merged.Start.IsZero() || (!rep.Start.IsZero() && rep.Start.Before(merged.Start)) {
			merged.Start = rep.Start
		}
		if rep.End.After(merged.End) {
			merged.End = rep.End
		}
		merged.Tally.add(rep.Tally)
		for id, rec := range rep.Records {
			merged.Records[id] = rec
		}
	}
	merged.Makespan = merged.End.Sub(merged.Start)
	merged.MeanAllocLatency = merged.meanAllocLatency()
	return merged
}

// handle is the frontend router's dispatch switch, run by the Plane
// loop.
//
//xflow:goroutine router-loop
func (sm *ShardedMaster) handle(env *broker.Envelope) (done bool) {
	//xflow:dispatch master
	switch msg := env.Payload.(type) {
	//xflow:unhandled MsgBidWindowExpired,MsgTick shard-local self-timers inject straight into the owning part's inbox and never transit the frontend
	//xflow:unhandled MsgBid,MsgAccept,MsgReject,MsgJobDone a worker answers the sender, and only shard parts send job-keyed requests
	case MsgRegister:
		sm.onRegister(env, msg)
	case MsgRequestJob:
		sm.onRequestJob(env, msg)
	case MsgEmit:
		if msg.Job != nil {
			sm.routeJob(sm.sessionByID(msg.Job.Session), msg.Job)
		}
	case MsgCacheEvict:
		sm.onCacheEvict(env, msg)
	case MsgWorkerDead:
		// Unconditional fan-out: rescuing inflight jobs must reach even a
		// partitioned shard, exactly as a single master's self-injected
		// death cannot be lost.
		sm.fanOut(sm.control(sm.parts[0], msg))
		sm.lose(msg.Worker)
	case MsgLeave:
		// Every part rescues the records it owns; the frontend settles
		// the drain acks.
		sm.fanOut(env)
		sm.leave(msg.Worker)
		sm.releaseDrain(msg.Worker)
	case msgOpenSession:
		if sm.addSession(msg.s) {
			sm.openParts(msg.s)
		}
	case msgSubmit:
		if s := sm.sessionByID(msg.s.id); !s.finished {
			sm.routeJob(s, msg.job)
		}
	case msgCloseFeed:
		s := sm.sessionByID(msg.s.id)
		s.feedOpen = false
		sm.maybeCloseParts(s)
	case msgDrainStart:
		// The frontend keeps the caller's ack and forwards an ack-less
		// drain to every part; each part removes the worker from
		// contention and tells it to drain (the worker's drain entry is
		// idempotent).
		if sm.startDrain(msg.worker, msg.ack) {
			sm.fanOut(sm.control(sm.parts[0], msgDrainStart{worker: msg.worker}))
		}
	case msgShutdown:
		return sm.stop(false)
	case msgAbort:
		return sm.stop(true)
	case msgShardSettled:
		sm.onSettled(msg)
	}
	return false
}

// forward hands an envelope straight into a part's inbox. Worker-
// originated traffic respects a partitioned part's link state — the
// broker would have dropped a direct send to it — while the frontend's
// own control traffic (routed jobs, session and membership fan-out,
// shutdown) models the in-process queue a network partition cannot
// sever.
func (sm *ShardedMaster) forward(part *Master, env *broker.Envelope) {
	if env.From != sm.ep.Name() {
		if d, ok := part.ep.(interface{ Down() bool }); ok && d.Down() {
			return
		}
	}
	part.ep.Inbox().Send(env)
}

// fanOut forwards one envelope to every part.
func (sm *ShardedMaster) fanOut(env *broker.Envelope) {
	for _, p := range sm.parts {
		sm.forward(p, env)
	}
}

// control wraps a frontend-originated payload for forwarding to part.
func (sm *ShardedMaster) control(part *Master, payload any) *broker.Envelope {
	return &broker.Envelope{From: sm.ep.Name(), To: part.ep.Name(), Payload: payload}
}

// routeJob admits the job like Master.inject, picks the owning shard by
// content hash of its data key, and hands it to that part as an
// in-process emit; it is outstanding on s until the part settles it.
func (sm *ShardedMaster) routeJob(s *session, job *Job) {
	sm.admitJob(s, job, func(id string) bool { return sm.admitted[id] })
	shard := locindex.ShardOf(job.DataKey, len(sm.parts))
	sm.admitted[job.ID] = true
	s.outstanding++
	sm.forward(sm.parts[shard], sm.control(sm.parts[shard], MsgEmit{Job: job}))
}

// onRegister runs the shared admission protocol and fans the
// registration out to every part, which each ack it — the worker's
// registration loop is idempotent under duplicate acks.
func (sm *ShardedMaster) onRegister(env *broker.Envelope, msg MsgRegister) {
	if sm.tombstoned(msg.Worker) {
		return
	}
	sm.fanOut(env)
	sm.admit(msg.Worker)
}

// onRequestJob fans an idle worker's pull out to every shard. Pulls
// cannot be routed by content hash — the worker is asking for whatever
// work exists, and only the shards know their queues — and routing to
// a single shard deadlocks parking allocators (the baseline parks an
// unserved pull and never replies, so a pull stranded on an empty
// shard would idle its worker forever while sibling shards hold
// unoffered jobs). With fan-out each shard serves or parks the pull
// independently; shards answering NoWork are deduplicated by the
// worker's pull-retry coalescing (Worker.RequestWorkAfter).
func (sm *ShardedMaster) onRequestJob(env *broker.Envelope, msg MsgRequestJob) {
	if sm.live(msg.Worker) {
		sm.fanOut(env)
	}
}

// onCacheEvict splits an eviction notice by key ownership and forwards
// each slice to its shard, so every locindex only ever sees its own
// partition's keys.
func (sm *ShardedMaster) onCacheEvict(env *broker.Envelope, msg MsgCacheEvict) {
	if !sm.live(msg.Worker) {
		return
	}
	byShard := make([][]string, len(sm.parts))
	for _, k := range msg.Keys {
		s := locindex.ShardOf(k, len(sm.parts))
		byShard[s] = append(byShard[s], k)
	}
	for i, keys := range byShard {
		if len(keys) == 0 {
			continue
		}
		// Keep the worker as the sender so a partitioned shard loses the
		// notice exactly like a direct send to it.
		sm.forward(sm.parts[i], &broker.Envelope{
			From: env.From, To: sm.parts[i].ep.Name(),
			Payload: MsgCacheEvict{Worker: msg.Worker, Keys: keys},
		})
	}
}

// openParts opens a new session's subsession on every part and spawns
// the clock-tracked merger that combines their reports into the user's
// Wait.
func (sm *ShardedMaster) openParts(s *session) {
	s.subs = make([]*session, len(sm.parts))
	for i, p := range sm.parts {
		s.subs[i] = &session{
			id:       s.id,
			wf:       s.wf,
			feedOpen: true,
			done:     sm.clk.NewMailbox("session:" + s.id + "#" + strconv.Itoa(i)),
		}
		sm.forward(p, sm.control(p, msgOpenSession{s: s.subs[i]}))
	}
	sm.startMerger(s)
}

// startMerger spawns the clock-tracked goroutine that collects the
// per-shard session reports in shard order and delivers their merge to
// the user's Wait. Parts settle their subsessions independently — on
// quiescence after the feed close, or on shutdown/abort — so the merger
// only gathers and combines.
func (sm *ShardedMaster) startMerger(s *session) {
	subs, done := s.subs, s.done
	sm.clk.Go(func() {
		reports := make([]*Report, 0, len(subs))
		for _, sub := range subs {
			v, ok := sub.done.Recv()
			if !ok {
				continue
			}
			if rep, ok := v.(*Report); ok {
				reports = append(reports, rep)
			}
		}
		if done != nil {
			done.Send(mergeReports(reports))
		}
	})
}

// onSettled books one terminal job, routes the downstream jobs it
// produced (each to its own key's shard), and re-checks whether the
// session has now ended.
func (sm *ShardedMaster) onSettled(msg msgShardSettled) {
	s := sm.sessionByID(msg.Sess)
	s.outstanding--
	for _, nj := range msg.NewJobs {
		sm.routeJob(s, nj)
	}
	sm.maybeCloseParts(s)
}

// maybeCloseParts propagates a session's feed close to the shard
// subsessions once the session ends by the master's rule: its feed is
// closed and every routed job has settled, so no in-flight completion
// can fan more downstream work out. Closing earlier would let a
// subsession with an empty queue finish while a sibling shard's job was
// still about to emit work for it.
func (sm *ShardedMaster) maybeCloseParts(s *session) {
	if !sm.ending(s) {
		return
	}
	s.finished = true
	for i, p := range sm.parts {
		sm.forward(p, sm.control(p, msgCloseFeed{s: s.subs[i]}))
	}
}

// stop ends the frontend loop: it halts the plane (publishing the single
// fleet-wide MsgStop), quiesces every part loop with a direct shutdown
// (their own stop publish is muted), and releases the frontend's
// pending drain acks. Part shutdown also flushes every subsession,
// which completes the session mergers.
func (sm *ShardedMaster) stop(abort bool) bool {
	sm.halt(abort)
	var payload any = msgShutdown{}
	if abort {
		payload = msgAbort{}
	}
	for _, p := range sm.parts {
		sm.forward(p, sm.control(p, payload))
	}
	sm.flushDrains()
	return true
}

// StateDigest renders the frontend's routing state plus every part's
// digest in shard order, for the model checker's state fingerprint.
//
//xflow:goroutine router-loop
func (sm *ShardedMaster) StateDigest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "router finished=%t aborted=%t shards=%d\n",
		sm.finished, sm.aborted, len(sm.parts))
	sm.digest(&b)
	sm.digestSessions(&b)
	for i, p := range sm.parts {
		fmt.Fprintf(&b, "shard %d {\n%s}\n", i, p.StateDigest())
	}
	return b.String()
}
