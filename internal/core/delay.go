package core

import (
	"crossflow/internal/engine"
)

// DefaultMaxSkips is how many scheduling opportunities a job forgoes
// waiting for a data-local worker before accepting any worker.
const DefaultMaxSkips = 3

// DelayAllocator implements delay scheduling (Zaharia et al., cited in
// §3 [14]): jobs wait for a worker that has their data locally, skipping
// a bounded number of scheduling opportunities; once a job has been
// skipped DefaultMaxSkips times it is launched on the next free worker
// regardless of locality. Like the paper's other pull policies it learns
// locality from the cached keys workers attach to their pulls.
type DelayAllocator struct {
	engine.NopAllocator

	pending []*delayedJob
}

type delayedJob struct {
	id    string
	skips int
}

// NewDelay returns a delay-scheduling allocator.
func NewDelay() *DelayAllocator { return &DelayAllocator{} }

// Name implements engine.Allocator.
func (*DelayAllocator) Name() string { return "delay" }

// JobReady implements engine.Allocator: queue the job for pulls.
func (d *DelayAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	d.pending = append(d.pending, &delayedJob{id: job.ID})
}

// WorkerIdle implements engine.Allocator: serve the first local job; a
// non-local job is skipped (its counter advances) until it exhausts its
// patience, at which point it launches anywhere.
func (d *DelayAllocator) WorkerIdle(ctx engine.AllocCtx, req engine.MsgRequestJob) {
	if len(d.pending) == 0 {
		ctx.SendNoWork(req.Worker, 0)
		return
	}
	cached := make(map[string]bool, len(req.CachedKeys))
	for _, k := range req.CachedKeys {
		cached[k] = true
	}
	for i, dj := range d.pending {
		job := ctx.Job(dj.id)
		if job == nil {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			d.WorkerIdle(ctx, req)
			return
		}
		local := job.DataKey == "" || cached[job.DataKey]
		if local || dj.skips >= DefaultMaxSkips {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			ctx.Assign(dj.id, req.Worker, 0)
			return
		}
		dj.skips++
	}
	ctx.SendNoWork(req.Worker, 0)
}

// PendingJobs reports the allocation backlog (for tests/diagnostics).
func (d *DelayAllocator) PendingJobs() int { return len(d.pending) }
