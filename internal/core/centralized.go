package core

import (
	"fmt"
	"time"

	"crossflow/internal/engine"
)

// SparkLikeAllocator emulates the centralized scheduling the paper
// compares against in Figure 2: the master performs all allocation
// itself the moment work is known, treats every worker as equal
// (round-robin), and ignores both the data that becomes local during
// execution and differences in worker configurations.
type SparkLikeAllocator struct {
	engine.NopAllocator
	next int
}

// NewSparkLike returns the centralized comparator.
func NewSparkLike() *SparkLikeAllocator { return &SparkLikeAllocator{} }

// Name implements engine.Allocator.
func (*SparkLikeAllocator) Name() string { return "spark-like" }

// JobReady implements engine.Allocator: immediate equal-share assignment.
func (s *SparkLikeAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	workers := ctx.Workers()
	if len(workers) == 0 {
		// Retry when a worker registers; centralized schedulers plan
		// against a known fleet, so this only happens in teardown races.
		ctx.ScheduleBidWindow(job.ID, 100*time.Millisecond)
		return
	}
	ctx.Assign(job.ID, workers[s.next%len(workers)], 0)
	s.next++
}

// StateDigest implements engine.StateDigester: the round-robin cursor.
func (s *SparkLikeAllocator) StateDigest() string { return fmt.Sprintf("next=%d\n", s.next) }

// BidWindowExpired implements engine.Allocator: used only as the retry
// timer armed above.
func (s *SparkLikeAllocator) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	if job := ctx.Job(jobID); job != nil {
		s.JobReady(ctx, job)
	}
}

// RandomAllocator assigns every job to a uniformly random worker: the
// ablation floor for any locality-aware policy.
type RandomAllocator struct {
	engine.NopAllocator
}

// NewRandom returns the random allocator.
func NewRandom() *RandomAllocator { return &RandomAllocator{} }

// Name implements engine.Allocator.
func (*RandomAllocator) Name() string { return "random" }

// JobReady implements engine.Allocator.
func (r *RandomAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	workers := ctx.Workers()
	if len(workers) == 0 {
		ctx.ScheduleBidWindow(job.ID, 100*time.Millisecond)
		return
	}
	ctx.Assign(job.ID, workers[ctx.Rand().Intn(len(workers))], 0)
}

// BidWindowExpired implements engine.Allocator as the retry timer.
func (r *RandomAllocator) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	if job := ctx.Job(jobID); job != nil {
		r.JobReady(ctx, job)
	}
}

// PassiveAgent is the worker-side policy for centralized allocators:
// workers have no opinion, they execute whatever they are assigned —
// the paper's characterization of Spark's workers.
type PassiveAgent struct{}

// NewPassiveAgent returns the opinion-less worker policy.
func NewPassiveAgent() *PassiveAgent { return &PassiveAgent{} }

// Name implements engine.Agent.
func (*PassiveAgent) Name() string { return "passive" }

// Start implements engine.Agent with a no-op.
func (*PassiveAgent) Start(*engine.Worker) {}

// OnBidRequest implements engine.Agent with a no-op (never bids).
func (*PassiveAgent) OnBidRequest(*engine.Worker, *engine.Job) {}

// OnOffer implements engine.Agent: accept unconditionally.
func (*PassiveAgent) OnOffer(w *engine.Worker, job *engine.Job) { w.AcceptOffer(job) }

// OnNoWork implements engine.Agent with a no-op.
func (*PassiveAgent) OnNoWork(*engine.Worker, time.Duration) {}

// OnJobFinished implements engine.Agent with a no-op.
func (*PassiveAgent) OnJobFinished(*engine.Worker, *engine.Job) {}
