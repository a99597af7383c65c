// Package core implements the job-allocation policies under study: the
// paper's Bidding Scheduler (§5), the Crossflow Baseline it improves on
// (§4), the Spark-like centralized comparator (Figure 2), and the
// Matchmaking and Random policies used as extensions/ablations. Each
// policy is a pair: an engine.Allocator (master side) and an
// engine.Agent (worker side).
package core

import (
	"time"

	"crossflow/internal/engine"
)

// BiddingAllocator is the master side of the Bidding Scheduler
// (Listing 1): publish each incoming job for bidding, collect bids until
// every active worker answered or the window expires, and assign the job
// to the lowest bidder — or to an arbitrary worker if nobody bid. The
// auction itself is the contest book's; this policy asks everyone.
type BiddingAllocator struct {
	engine.NopAllocator
	// Window overrides the bidding threshold; zero means
	// DefaultBidWindow.
	Window time.Duration
	// FastLocalClose closes a contest as soon as a data-local bid
	// arrives, instead of waiting for the full fleet — the paper's
	// future-work item on "minimizing the bidding overhead for highly
	// local jobs". The winner is still the lowest estimate received so
	// far, so an overloaded local worker does not beat a cheaper remote
	// one that answered earlier.
	FastLocalClose bool

	book contestBook
}

// NewBidding returns a Bidding allocator with the paper's one-second
// window.
func NewBidding() *BiddingAllocator { return &BiddingAllocator{} }

// Name implements engine.Allocator.
func (b *BiddingAllocator) Name() string {
	if b.FastLocalClose {
		return "bidding-fast"
	}
	return "bidding"
}

// JobReady implements engine.Allocator: sendJob (Listing 1, lines 1–4).
func (b *BiddingAllocator) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	b.book.broadcast(ctx, job.ID, b.Window)
}

// BidReceived implements engine.Allocator: receiveBid (Listing 1,
// lines 6–15).
func (b *BiddingAllocator) BidReceived(ctx engine.AllocCtx, bid engine.MsgBid) {
	if open, full := b.book.bid(bid); open && (full || (b.FastLocalClose && bid.Local)) {
		b.settle(ctx, bid.JobID)
	}
}

// BidWindowExpired implements engine.Allocator: the threshold arm of
// biddingFinished (Listing 1, line 30).
func (b *BiddingAllocator) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	b.settle(ctx, jobID)
}

// WorkerLost implements engine.Allocator: the dead worker leaves every
// open contest, and those it was the last to hold open close.
func (b *BiddingAllocator) WorkerLost(ctx engine.AllocCtx, worker string, inflight []*engine.Job) {
	for _, jobID := range b.book.scrub(worker) {
		b.settle(ctx, jobID)
	}
}

// settle concludes a contest with sendToWorker (Listing 1, line 26).
func (b *BiddingAllocator) settle(ctx engine.AllocCtx, jobID string) {
	if worker, cost, ok := b.book.settle(ctx, jobID, b.Window); ok {
		ctx.Assign(jobID, worker, cost)
	}
}

// OpenContests reports how many contests are currently open (for tests
// and diagnostics).
func (b *BiddingAllocator) OpenContests() int { return len(b.book.open) }

// BiddingAgent is the worker side of the Bidding Scheduler (Listing 2):
// on every bid request, estimate current workload plus the job's
// transfer and processing time and submit.
type BiddingAgent struct{}

// NewBiddingAgent returns the worker-side bidding policy.
func NewBiddingAgent() *BiddingAgent { return &BiddingAgent{} }

// Name implements engine.Agent.
func (*BiddingAgent) Name() string { return "bidding" }

// Start implements engine.Agent; bidding workers are push-fed and need
// no initial pull.
func (*BiddingAgent) Start(*engine.Worker) {}

// OnBidRequest implements engine.Agent: sendBid (Listing 2, lines 1–7).
func (*BiddingAgent) OnBidRequest(w *engine.Worker, job *engine.Job) {
	workload := w.QueuedCost()                            // line 2: totalCostOfUnfinishedJobs
	jobCost, local := w.EstimateJob(job)                  // lines 4–5: transfer + processing
	w.SubmitBid(job.ID, workload+jobCost, jobCost, local) // line 6
}

// OnOffer implements engine.Agent. The bidding protocol never offers,
// but accept defensively so no job can be stranded by a mixed setup.
func (*BiddingAgent) OnOffer(w *engine.Worker, job *engine.Job) { w.AcceptOffer(job) }

// OnNoWork implements engine.Agent with a no-op.
func (*BiddingAgent) OnNoWork(*engine.Worker, time.Duration) {}

// OnJobFinished implements engine.Agent with a no-op.
func (*BiddingAgent) OnJobFinished(*engine.Worker, *engine.Job) {}
