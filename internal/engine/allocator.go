package engine

import (
	"math/rand"
	"time"

	"crossflow/internal/vclock"
)

// Allocator is the master-side scheduling policy. The master actor
// translates protocol messages into these event calls; implementations
// react by driving the AllocCtx (assign, offer, broadcast a bid request,
// …). All calls happen on the master's single actor goroutine, so
// implementations need no locking.
type Allocator interface {
	// Name identifies the policy in reports.
	Name() string
	// JobReady is called when a job needs allocation: a fresh arrival, a
	// downstream job produced by a task, or a job re-dispatched after a
	// worker loss.
	JobReady(ctx AllocCtx, job *Job)
	// BidReceived delivers a worker's bid for an open contest.
	BidReceived(ctx AllocCtx, bid MsgBid)
	// BidWindowExpired fires when a contest's threshold period elapses
	// (scheduled via AllocCtx.ScheduleBidWindow).
	BidWindowExpired(ctx AllocCtx, jobID string)
	// OfferRejected is called when a worker declines an offered job.
	OfferRejected(ctx AllocCtx, jobID, worker string)
	// WorkerIdle is called when a worker pulls for work.
	WorkerIdle(ctx AllocCtx, req MsgRequestJob)
	// JobFinished is called when a job completes, for policies that
	// track worker load centrally.
	JobFinished(ctx AllocCtx, jobID, worker string)
	// WorkerLost is called when a worker is declared dead; inflight
	// holds the jobs that were allocated to it and now need rescue. The
	// master re-issues JobReady for each after this call returns. It is
	// also called with a nil inflight when a worker begins a graceful
	// drain: the worker is gone from the live set and its open bids must
	// be scrubbed, but its queued jobs will still complete.
	WorkerLost(ctx AllocCtx, worker string, inflight []*Job)
	// WorkerJoined is called when a worker registers after the fleet has
	// already formed — mid-run elasticity — before it can win any work.
	// Policies that keep per-worker state (load sketches, location
	// indexes) seed or reset the newcomer's entries here. It never fires
	// during the initial registration wave.
	WorkerJoined(ctx AllocCtx, worker string)
	// CacheEvicted delivers a worker's cache-eviction notice (sent only
	// when the worker's agent enabled them), for policies that maintain
	// a data-location index.
	CacheEvicted(ctx AllocCtx, worker string, keys []string)
	// Tick delivers a timer event scheduled via AllocCtx.ScheduleTick.
	Tick(ctx AllocCtx, token string)
}

// AllocCtx is the master's interface offered to allocators.
type AllocCtx interface {
	// Clock returns the engine clock.
	Clock() vclock.Clock
	// Workers returns the names of live registered workers, in
	// registration order.
	Workers() []string
	// Job resolves a job ID to its record's job; nil if unknown.
	Job(id string) *Job
	// Assign allocates a job to a worker unconditionally. est, if
	// non-zero, is communicated so the worker can maintain its
	// unfinished-work total.
	Assign(jobID, worker string, est time.Duration)
	// Offer proposes a job to a worker, which may accept or reject.
	Offer(jobID, worker string)
	// SendNoWork answers a pulling worker that nothing is available.
	SendNoWork(worker string, backoff time.Duration)
	// PublishBidRequest broadcasts a contest for the job to all workers
	// and returns how many bids to expect: the number of live workers at
	// publish. It does not wait for the broker to report whom it reached.
	PublishBidRequest(jobID string) int
	// PublishBidRequestTo opens a targeted contest: the bid request goes
	// only to the named workers (ones not live are skipped) and the
	// number of live targets is returned. Contest cost is O(len(workers))
	// instead of O(fleet), which is what lets index-driven policies
	// scale; the caller must fall back to PublishBidRequest (or another
	// assignment path) when it returns 0, so no job starves on a stale
	// candidate set.
	PublishBidRequestTo(jobID string, workers []string) int
	// ScheduleBidWindow arranges a BidWindowExpired(jobID) event after d.
	ScheduleBidWindow(jobID string, d time.Duration)
	// ScheduleTick arranges a Tick(token) event after d.
	ScheduleTick(token string, d time.Duration)
	// Rand returns the master's seeded random source (for the paper's
	// "assigns the job to an arbitrary node" fallback).
	Rand() *rand.Rand
	// CountFallback records a no-bid decision: a contest that settled
	// without a bid.
	CountFallback()
}

// NopAllocator provides no-op defaults for the optional Allocator
// events; policy implementations embed it and override what they use.
type NopAllocator struct{}

// BidReceived implements Allocator with a no-op.
func (NopAllocator) BidReceived(AllocCtx, MsgBid) {}

// BidWindowExpired implements Allocator with a no-op.
func (NopAllocator) BidWindowExpired(AllocCtx, string) {}

// OfferRejected implements Allocator with a no-op.
func (NopAllocator) OfferRejected(AllocCtx, string, string) {}

// WorkerIdle implements Allocator with a no-op.
func (NopAllocator) WorkerIdle(AllocCtx, MsgRequestJob) {}

// JobFinished implements Allocator with a no-op.
func (NopAllocator) JobFinished(AllocCtx, string, string) {}

// WorkerLost implements Allocator with a no-op.
func (NopAllocator) WorkerLost(AllocCtx, string, []*Job) {}

// WorkerJoined implements Allocator with a no-op.
func (NopAllocator) WorkerJoined(AllocCtx, string) {}

// CacheEvicted implements Allocator with a no-op.
func (NopAllocator) CacheEvicted(AllocCtx, string, []string) {}

// Tick implements Allocator with a no-op.
func (NopAllocator) Tick(AllocCtx, string) {}
