package core

import (
	"sync/atomic"
	"time"

	"crossflow/internal/engine"
)

// MatchmakingAllocator implements the Matchmaking technique (He et al.,
// referenced in §3) the paper names as future-work comparison: workers
// request jobs when free; the master hands a worker a job whose data it
// holds locally; if none exists the worker stays idle for one heartbeat,
// and on its second consecutive attempt it is "bound to accept a task
// even if it does not have data locally".
type MatchmakingAllocator struct {
	engine.NopAllocator

	pending []string
}

// NewMatchmaking returns the Matchmaking allocator.
func NewMatchmaking() *MatchmakingAllocator { return &MatchmakingAllocator{} }

// Name implements engine.Allocator.
func (*MatchmakingAllocator) Name() string { return "matchmaking" }

// JobReady implements engine.Allocator: queue the job; workers discover
// it on their next pull.
func (m *MatchmakingAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	m.pending = append(m.pending, job.ID)
}

// WorkerIdle implements engine.Allocator: serve a local job if one
// exists, any job on the second strike, nothing otherwise.
func (m *MatchmakingAllocator) WorkerIdle(ctx engine.AllocCtx, req engine.MsgRequestJob) {
	if len(m.pending) == 0 {
		ctx.SendNoWork(req.Worker, 0)
		return
	}
	cached := make(map[string]bool, len(req.CachedKeys))
	for _, k := range req.CachedKeys {
		cached[k] = true
	}
	for i, jobID := range m.pending {
		job := ctx.Job(jobID)
		if job == nil {
			continue
		}
		if job.DataKey == "" || cached[job.DataKey] {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			ctx.Assign(jobID, req.Worker, 0)
			return
		}
	}
	if req.Strikes >= 1 {
		jobID := m.pending[0]
		m.pending = m.pending[1:]
		ctx.Assign(jobID, req.Worker, 0)
		return
	}
	ctx.SendNoWork(req.Worker, 0)
}

// PendingJobs reports the allocation backlog (for tests/diagnostics).
func (m *MatchmakingAllocator) PendingJobs() int { return len(m.pending) }

// MatchmakingAgent is the worker side: pull when free, count consecutive
// empty pulls, and report cached keys with every request so the master
// can match on locality.
type MatchmakingAgent struct {
	// strikes is atomic: OnNoWork counts on the worker's comms
	// goroutine while OnJobFinished resets on its executor.
	strikes atomic.Int64
}

// NewMatchmakingAgent returns the worker-side Matchmaking policy.
func NewMatchmakingAgent() *MatchmakingAgent { return &MatchmakingAgent{} }

// Name implements engine.Agent.
func (*MatchmakingAgent) Name() string { return "matchmaking" }

// Start implements engine.Agent: issue the first pull.
func (a *MatchmakingAgent) Start(w *engine.Worker) { w.RequestWork(0) }

// OnNoWork implements engine.Agent: idle one heartbeat, then pull again
// with an incremented strike count.
func (a *MatchmakingAgent) OnNoWork(w *engine.Worker, backoff time.Duration) {
	strikes := int(a.strikes.Add(1))
	if backoff <= 0 {
		backoff = w.Heartbeat()
	}
	w.RequestWorkAfter(backoff, strikes)
}

// OnJobFinished implements engine.Agent: reset strikes and pull.
func (a *MatchmakingAgent) OnJobFinished(w *engine.Worker, _ *engine.Job) {
	a.strikes.Store(0)
	w.RequestWork(0)
}

// OnBidRequest implements engine.Agent with a no-op.
func (*MatchmakingAgent) OnBidRequest(*engine.Worker, *engine.Job) {}

// OnOffer implements engine.Agent: Matchmaking assigns directly, but
// accept defensively.
func (*MatchmakingAgent) OnOffer(w *engine.Worker, job *engine.Job) { w.AcceptOffer(job) }
