package core

import (
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/locindex"
)

// Candidate-set sizing for the scalable bidding policy. A contest
// targets at most DefaultTopKHolders workers the index believes hold
// the job's data, plus a power-of-two-choices sample of
// DefaultTopKSample lightly-loaded workers (one more when the index has
// no holder at all) so cold keys still get a small, cheap contest and
// hot holders get load competition.
const (
	DefaultTopKHolders = 3
	DefaultTopKSample  = 2
)

// TopKAllocator is the scalable variant of the Bidding Scheduler: the
// same contest protocol, but each bid request goes to a small targeted
// candidate set instead of the whole fleet, keeping per-job contest
// cost O(K) instead of O(workers).
//
// The candidate set is planned from a data-location index (see
// internal/locindex) the allocator maintains from traffic it sees
// anyway — bids carry locality and current workload, assignments and
// completions mark new holders, cache-eviction notices and deaths
// retire them. The index is eventually consistent; staleness is
// handled, never trusted: a targeted contest that produces no bids
// reopens as a classic broadcast contest (counted as a fallback), so a
// job can always reach the whole fleet and never starves on stale
// hints.
type TopKAllocator struct {
	engine.NopAllocator
	// Window overrides the bidding threshold; zero means
	// DefaultBidWindow.
	Window time.Duration

	index *locindex.Index
	book  contestBook
	// assignedCost remembers the believed cost charged to a worker at
	// assignment so JobFinished can release exactly that much from the
	// load sketch.
	assignedCost map[string]time.Duration
}

// NewTopK returns a scalable bidding allocator with the default
// candidate sizing and the paper's one-second window.
func NewTopK() *TopKAllocator { return &TopKAllocator{} }

// Name implements engine.Allocator.
func (b *TopKAllocator) Name() string { return "bidding-topk" }

func (b *TopKAllocator) init() {
	if b.index == nil {
		b.index = locindex.New(0)
		b.assignedCost = make(map[string]time.Duration)
	}
}

// Index exposes the allocator's location index (tests, diagnostics).
func (b *TopKAllocator) Index() *locindex.Index { b.init(); return b.index }

// OpenContests reports how many contests are currently open.
func (b *TopKAllocator) OpenContests() int { return len(b.book.open) }

// JobReady implements engine.Allocator: plan a candidate set and open a
// targeted contest for the job. An empty or fully-dead candidate set
// opens a broadcast contest instead, so the job cannot starve on a
// stale index.
func (b *TopKAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	b.init()
	if cands := b.candidates(ctx, job); len(cands) > 0 {
		if reached := ctx.PublishBidRequestTo(job.ID, cands); reached > 0 {
			b.book.start(ctx, job.ID, reached, cands, b.Window)
			return
		}
	}
	b.book.broadcast(ctx, job.ID, b.Window)
}

// candidates plans a contest's target set: the lightest-loaded indexed
// holders of the job's data, topped up with a power-of-two-choices
// sample of the fleet. The result is deterministic given the index
// state and the master's seeded random source.
func (b *TopKAllocator) candidates(ctx engine.AllocCtx, job *engine.Job) []string {
	cands := b.index.Holders(job.DataKey, DefaultTopKHolders)
	exclude := make(map[string]bool, len(cands))
	for _, w := range cands {
		exclude[w] = true
	}
	// Top up with lightly-loaded workers: load competition for hot
	// holders, and a non-empty candidate set for cold keys.
	want := DefaultTopKSample
	if len(cands) == 0 {
		// No locality hint at all — draw a slightly wider net so the
		// contest still compares a few queues.
		want++
	}
	cands = append(cands, b.index.SampleLight(ctx.Rand(), ctx.Workers(), want, exclude)...)
	return cands
}

// BidReceived implements engine.Allocator. Every bid — even a late one
// for a closed contest — refreshes the index: Local reports whether the
// bidder holds the data now, and Estimate-JobCost is the bidder's
// authoritative queued workload.
func (b *TopKAllocator) BidReceived(ctx engine.AllocCtx, bid engine.MsgBid) {
	b.init()
	if job := ctx.Job(bid.JobID); job != nil && job.DataKey != "" {
		if bid.Local {
			b.index.AddHolder(job.DataKey, bid.Worker)
		} else {
			// The index believed wrong (e.g. a cache shrink evicted without
			// a notice landing): correct it on the spot.
			b.index.RemoveHolder(job.DataKey, bid.Worker)
		}
	}
	b.index.SetLoad(bid.Worker, bid.Estimate-bid.JobCost)

	if _, full := b.book.bid(bid); full {
		b.settle(ctx, bid.JobID)
	}
}

// BidWindowExpired implements engine.Allocator.
func (b *TopKAllocator) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	b.settle(ctx, jobID)
}

// settle concludes a contest; the winner goes through assign.
func (b *TopKAllocator) settle(ctx engine.AllocCtx, jobID string) {
	if worker, cost, ok := b.book.settle(ctx, jobID, b.Window); ok {
		b.assign(ctx, jobID, worker, cost)
	}
}

// assign allocates and updates the index: the winner commits to fetch
// the job's data (it is a holder for planning purposes from now on) and
// its believed load grows by the job's cost until completion.
func (b *TopKAllocator) assign(ctx engine.AllocCtx, jobID, worker string, cost time.Duration) {
	if job := ctx.Job(jobID); job != nil && job.DataKey != "" {
		b.index.AddHolder(job.DataKey, worker)
	}
	b.index.AddLoad(worker, cost)
	b.assignedCost[jobID] = cost
	ctx.Assign(jobID, worker, cost)
}

// JobFinished implements engine.Allocator: release the job's believed
// cost from the worker's load sketch and confirm it as a holder.
func (b *TopKAllocator) JobFinished(ctx engine.AllocCtx, jobID, worker string) {
	b.init()
	b.index.AddLoad(worker, -b.assignedCost[jobID])
	delete(b.assignedCost, jobID)
	if job := ctx.Job(jobID); job != nil && job.DataKey != "" {
		b.index.AddHolder(job.DataKey, worker)
	}
}

// CacheEvicted implements engine.Allocator: the worker no longer holds
// the evicted keys.
func (b *TopKAllocator) CacheEvicted(ctx engine.AllocCtx, worker string, keys []string) {
	b.init()
	for _, k := range keys {
		b.index.RemoveHolder(k, worker)
	}
}

// WorkerLost implements engine.Allocator: scrub the dead worker from
// the index and from every open contest, exactly as plain bidding does.
func (b *TopKAllocator) WorkerLost(ctx engine.AllocCtx, worker string, inflight []*engine.Job) {
	b.init()
	b.index.RemoveWorker(worker)
	for _, jobID := range b.book.scrub(worker) {
		b.settle(ctx, jobID)
	}
}

// WorkerJoined implements engine.Allocator: a mid-run joiner starts
// with an empty cache and an empty queue, so any index state left under
// its name by an earlier tenure (a drained worker rejoining) is scrubbed
// and its load sketch is seeded at zero, making the newcomer immediately
// attractive to SampleLight's light-load probe.
func (b *TopKAllocator) WorkerJoined(ctx engine.AllocCtx, worker string) {
	b.init()
	b.index.RemoveWorker(worker)
	b.index.SetLoad(worker, 0)
}

// TopKAgent is the worker side of the scalable bidding policy: the
// plain bidding agent plus cache-eviction notices, which keep the
// master's location index from believing in holders long gone.
type TopKAgent struct{ BiddingAgent }

// NewTopKAgent returns the worker-side scalable-bidding policy.
func NewTopKAgent() *TopKAgent { return &TopKAgent{} }

// Name implements engine.Agent.
func (*TopKAgent) Name() string { return "bidding-topk" }

// Start implements engine.Agent: opt in to eviction notices so the
// master's index learns about displaced keys without polling.
func (*TopKAgent) Start(w *engine.Worker) { w.EnableEvictionNotices() }
