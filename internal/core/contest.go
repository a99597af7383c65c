package core

import (
	"cmp"
	"sort"
	"time"

	"crossflow/internal/engine"
)

// DefaultBidWindow is the paper's bidding threshold: "The master waits
// for workers to make submissions within one second".
const DefaultBidWindow = time.Second

// contestBook is the auction of Listing 1, kept once for every bidding
// policy: open a contest for a job, collect bids until every asked
// worker answered or the window expires, and settle on the lowest
// bidder. A broadcast contest is a contest with no target set; a
// targeted one accepts bids only from the workers it asked and, left
// without a bid, reopens as a broadcast. What a policy adds is whom it
// asks and what it learns from the traffic.
type contestBook struct {
	open map[string]*contest
}

type contest struct {
	// expected is how many asked live workers may still answer.
	expected int
	// targets is the candidate set of a targeted contest; nil for a
	// broadcast contest, which accepts bids from anyone.
	targets map[string]bool
	// bids keeps arrival order: among bids of equal estimate and name
	// the earliest arrival wins.
	bids []engine.MsgBid
}

// broadcast opens (or reopens) a whole-fleet contest for the job.
func (k *contestBook) broadcast(ctx engine.AllocCtx, jobID string, window time.Duration) {
	k.start(ctx, jobID, ctx.PublishBidRequest(jobID), nil, window)
}

// start books a contest whose bid request asked expected live workers —
// the named targets, or the whole fleet when targets is nil — and arms
// its window (zero means DefaultBidWindow, here and wherever the book
// takes one).
func (k *contestBook) start(ctx engine.AllocCtx, jobID string, expected int, targets []string, window time.Duration) {
	if k.open == nil {
		k.open = make(map[string]*contest)
	}
	// Room for every bid the request can draw: a wide fleet's contest
	// would otherwise regrow its slice at each doubling.
	c := &contest{expected: expected, bids: make([]engine.MsgBid, 0, expected)}
	if targets != nil {
		c.targets = make(map[string]bool, len(targets))
		for _, w := range targets {
			c.targets[w] = true
		}
	}
	k.open[jobID] = c
	ctx.ScheduleBidWindow(jobID, cmp.Or(window, DefaultBidWindow))
}

// bid records a bid. open is false for a bid no contest wants: a late
// one, or one from outside a targeted contest's candidate set — a
// straggler from an earlier (pre-redispatch) round must not win a
// contest that never asked that worker. full reports that every
// expected bidder has now answered.
func (k *contestBook) bid(b engine.MsgBid) (open, full bool) {
	c := k.open[b.JobID]
	if c == nil || (c.targets != nil && !c.targets[b.Worker]) {
		return false, false
	}
	c.bids = append(c.bids, b)
	return true, len(c.bids) >= c.expected
}

// scrub removes a dead worker from every open contest. Its submitted
// bids must not win (the assignment would target a closed endpoint and
// strand the job — the master only redispatches jobs that were assigned
// *before* the death), and a request it never answered must no longer
// hold a contest open. It returns the contests whose remaining
// expectations are thereby all met, in job-ID order: one death can
// close several contests, and map-iteration order must not decide the
// order their assignments (and fallback random draws) happen in.
//
// Found by simtest fuzzing: a worker killed between bidding and the
// contest close left its winning bid in place, and the job it "won"
// never ran (seed 438).
func (k *contestBook) scrub(worker string) (full []string) {
	for _, jobID := range k.ids() {
		c := k.open[jobID]
		kept := c.bids[:0]
		for _, bid := range c.bids {
			if bid.Worker != worker {
				kept = append(kept, bid)
			}
		}
		c.bids = kept
		// The dead worker was asked whether or not it had answered yet.
		if (c.targets == nil || c.targets[worker]) && c.expected > 0 {
			c.expected--
		}
		if c.expected > 0 && len(c.bids) >= c.expected {
			full = append(full, jobID)
		}
	}
	return full
}

// settle concludes a contest — getPreferredWorker (Listing 1, lines
// 17–27) — and returns whom to assign the job and at what believed
// cost: the lowest estimate wins, ties by worker name, then by arrival
// (a re-broadcast straggler can bid twice under one name). Without a bid,
// a broadcast contest falls back to an arbitrary worker (counted), or
// retries shortly when there are no workers at all; a targeted one,
// whose candidates all timed out or died, reopens as a broadcast
// (counted) so the job can always reach the whole fleet. ok is false
// when nothing is to be assigned now, a contest that is no longer open
// included.
func (k *contestBook) settle(ctx engine.AllocCtx, jobID string, window time.Duration) (worker string, cost time.Duration, ok bool) {
	c := k.open[jobID]
	if c == nil {
		return "", 0, false
	}
	delete(k.open, jobID)
	if len(c.bids) > 0 {
		// One pass; strict comparisons keep the earliest of equal bids.
		best := &c.bids[0]
		for i := 1; i < len(c.bids); i++ {
			if b := &c.bids[i]; b.Estimate < best.Estimate ||
				(b.Estimate == best.Estimate && b.Worker < best.Worker) {
				best = b
			}
		}
		return best.Worker, best.JobCost, true
	}
	if c.targets != nil {
		ctx.CountFallback()
		k.broadcast(ctx, jobID, window)
		return "", 0, false
	}
	workers := ctx.Workers()
	if len(workers) == 0 {
		k.start(ctx, jobID, 0, nil, window)
		return "", 0, false
	}
	ctx.CountFallback()
	return workers[ctx.Rand().Intn(len(workers))], 0, true
}

// ids returns the open contests' job IDs in sorted order.
func (k *contestBook) ids() []string {
	ids := make([]string, 0, len(k.open))
	for id := range k.open {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
