package core

import (
	"testing"
	"time"

	"crossflow/internal/engine"
)

// TestContestBookBroadcastAndTargetedAgree feeds one script of bids,
// deaths and window expiry to a broadcast contest and to a targeted
// contest over the same three workers: a broadcast contest is a contest
// with no target set, so both must close at the same step on the same
// winner.
func TestContestBookBroadcastAndTargetedAgree(t *testing.T) {
	type step struct {
		op     string // "bid", "lost" or "expire"
		worker string
		est    time.Duration
	}
	fleet := []string{"w0", "w1", "w2"}
	for _, tc := range []struct {
		name     string
		script   []step
		closesAt int // index of the step that closes the contest
		winner   string
	}{
		{"last expected bid closes, lowest estimate wins",
			[]step{{"bid", "w0", 30}, {"bid", "w1", 10}, {"bid", "w2", 20}}, 2, "w1"},
		{"equal estimates resolve by name, not arrival",
			[]step{{"bid", "w2", 10}, {"bid", "w1", 10}, {"bid", "w0", 50}}, 2, "w1"},
		{"window expiry closes on the bids so far",
			[]step{{"bid", "w2", 40}, {"bid", "w0", 60}, {"expire", "", 0}, {"bid", "w1", 1}}, 2, "w2"},
		{"death of the silent worker closes the contest",
			[]step{{"bid", "w0", 30}, {"bid", "w1", 20}, {"lost", "w2", 0}}, 2, "w1"},
		{"a dead worker's bid cannot win",
			[]step{{"bid", "w0", 1}, {"lost", "w0", 0}, {"bid", "w1", 30}, {"bid", "w2", 20}}, 3, "w2"},
		{"a death that leaves expectations unmet keeps it open",
			[]step{{"bid", "w0", 30}, {"lost", "w1", 0}, {"expire", "", 0}}, 2, "w0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, targeted := range []bool{false, true} {
				ctx := newFakeCtx(fleet...)
				ctx.addJob("j", "k", 1)
				var book contestBook
				if targeted {
					book.start(ctx, "j", len(fleet), fleet, time.Second)
				} else {
					book.broadcast(ctx, "j", time.Second)
				}
				closedAt, winner := -1, ""
				settle := func(i int) {
					if w, _, ok := book.settle(ctx, "j", time.Second); ok {
						if closedAt >= 0 {
							t.Fatalf("targeted=%t: settled twice, at steps %d and %d", targeted, closedAt, i)
						}
						closedAt, winner = i, w
					}
				}
				for i, s := range tc.script {
					switch s.op {
					case "bid":
						open, full := book.bid(bid("j", s.worker, s.est))
						if open != (closedAt < 0) {
							t.Errorf("targeted=%t step %d: bid accepted=%t with contest closed=%t", targeted, i, open, closedAt >= 0)
						}
						if full {
							settle(i)
						}
					case "lost":
						for range book.scrub(s.worker) {
							settle(i)
						}
					case "expire":
						settle(i)
					}
				}
				if closedAt != tc.closesAt || winner != tc.winner {
					t.Errorf("targeted=%t: closed at step %d on %q, want step %d on %q",
						targeted, closedAt, winner, tc.closesAt, tc.winner)
				}
				if len(book.open) != 0 || ctx.fallbacks != 0 {
					t.Errorf("targeted=%t: %d contests left open, %d fallbacks", targeted, len(book.open), ctx.fallbacks)
				}
			}
		})
	}
}

// TestOnlyBroadcastBiddingIsContestSized pins which allocators take
// pipelined publishes: the master hands engine.ContestUnsized to
// exactly those with a ContestSized method. The contest book both
// policies hold has a sizing operation, so it must stay a field — as an
// embedded type it would leak the method onto TopKAllocator, whose
// targeted contests are sized synchronously.
func TestOnlyBroadcastBiddingIsContestSized(t *testing.T) {
	type sizer interface {
		ContestSized(ctx engine.AllocCtx, jobID string, reached int)
	}
	if _, ok := any(NewBidding()).(sizer); !ok {
		t.Error("BiddingAllocator lost ContestSized")
	}
	if _, ok := any(NewTopK()).(sizer); ok {
		t.Error("TopKAllocator grew ContestSized")
	}
}
