package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/engine"
	"crossflow/internal/vclock"
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

// TestSettlePicksTheStableSortWinner checks the one-pass winner against
// element 0 of a stable sort on (estimate, worker) over random bid
// lists: heavy estimate ties, one name bidding several times (a
// re-broadcast straggler) with distinct job costs so the earliest of
// equal bids must win, contests of 0, 1 and 500 bids, and a scrub
// between bidding and settling.
func TestSettlePicksTheStableSortWinner(t *testing.T) {
	fleet := make([]string, 500)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("w%d", i)
	}
	// reference is the stable-sort settle, fallback draw included.
	reference := func(ctx *fakeCtx, bids []engine.MsgBid) (string, time.Duration, bool) {
		if len(bids) == 0 {
			return ctx.workers[ctx.Rand().Intn(len(ctx.workers))], 0, true
		}
		sorted := append([]engine.MsgBid(nil), bids...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Estimate != sorted[j].Estimate {
				return sorted[i].Estimate < sorted[j].Estimate
			}
			return sorted[i].Worker < sorted[j].Worker
		})
		return sorted[0].Worker, sorted[0].JobCost, true
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := []int{0, 1, 500}[trial%3]
		if trial >= 30 {
			n = 2 + rng.Intn(60)
		}
		// Few names and fewer estimates: repeated names, heavy ties.
		names := fleet[:1+rng.Intn(len(fleet))]
		if rng.Intn(2) == 0 {
			names = fleet[:1+rng.Intn(4)]
		}
		spread := 1 + rng.Intn(4)
		if rng.Intn(4) == 0 {
			spread = 1000
		}
		ctx := newFakeCtx(fleet...)
		var book contestBook
		book.broadcast(ctx, "j", time.Second)
		var bids []engine.MsgBid
		for i := 0; i < n; i++ {
			b := engine.MsgBid{JobID: "j", Worker: names[rng.Intn(len(names))],
				Estimate: time.Duration(rng.Intn(spread)), JobCost: time.Duration(i)}
			book.bid(b)
			bids = append(bids, b)
		}
		if rng.Intn(4) == 0 {
			dead := names[rng.Intn(len(names))]
			book.scrub(dead)
			kept := bids[:0]
			for _, b := range bids {
				if b.Worker != dead {
					kept = append(kept, b)
				}
			}
			bids = kept
		}
		wantW, wantC, wantOK := reference(ctx, bids)
		gotW, gotC, gotOK := book.settle(ctx, "j", time.Second)
		if gotW != wantW || gotC != wantC || gotOK != wantOK {
			t.Fatalf("trial %d (%d bids): settle = (%s, %v, %t), stable sort = (%s, %v, %t)",
				trial, len(bids), gotW, gotC, gotOK, wantW, wantC, wantOK)
		}
	}
}

// asyncPort is a master port with the TCP client's non-waiting publish.
// Its future fails the test if called: the master sizes a contest from
// its live set and never waits for the broker's count.
type asyncPort struct {
	*broker.Endpoint
	t *testing.T
}

func (p asyncPort) PublishAsync(topic string, payload any) func() int {
	n := p.Publish(topic, payload)
	return func() int {
		p.t.Error("master awaited a publish future")
		return n
	}
}

// noGoClock fails the test when the master starts a goroutine.
type noGoClock struct {
	vclock.Clock
	t *testing.T
}

func (c noGoClock) Go(fn func()) {
	c.t.Error("master started a goroutine")
	c.Clock.Go(fn)
}

// asyncMultiPort is a master port with the TCP client's non-waiting
// multicast. Its blocking SendMulti and its future both fail the test:
// a targeted contest, like a broadcast one, is sized by the live
// targets and never waits for the broker's count.
type asyncMultiPort struct {
	*broker.Endpoint
	t *testing.T
}

func (p asyncMultiPort) SendMulti(targets []string, payload any) int {
	p.t.Error("master waited on a blocking multicast")
	return p.Endpoint.SendMulti(targets, payload)
}

func (p asyncMultiPort) SendMultiAsync(targets []string, payload any) func() int {
	n := p.Endpoint.SendMulti(targets, payload)
	return func() int {
		p.t.Error("master awaited a multicast future")
		return n
	}
}

// TestMasterNeverAwaitsPublishFuture runs a bidding contest through a
// master whose port publishes without waiting: the contest must settle
// on the last live bid, with no goroutine started and the publish
// future never called.
func TestMasterNeverAwaitsPublishFuture(t *testing.T) {
	runAsyncContest(t, NewBidding(), func(ep *broker.Endpoint) engine.Port { return asyncPort{ep, t} })
}

// TestMasterNeverAwaitsMulticastFuture is the same contest run by
// bidding-topk, which asks its candidates with a targeted multicast:
// the master must take the non-waiting multicast and drop its future.
func TestMasterNeverAwaitsMulticastFuture(t *testing.T) {
	runAsyncContest(t, NewTopK(), func(ep *broker.Endpoint) engine.Port { return asyncMultiPort{ep, t} })
}

// runAsyncContest runs one job's contest between two workers through a
// master on the port that wrap makes of its endpoint, and requires it
// to settle on the last live bid without a goroutine or a fallback.
func runAsyncContest(t *testing.T, alloc engine.Allocator, wrap func(*broker.Endpoint) engine.Port) {
	t.Helper()
	sim := vclock.NewSim()
	bus := broker.New(sim)
	fleet := []string{"w0", "w1"}
	m := engine.NewClusterMaster(noGoClock{sim, t}, wrap(bus.Register(engine.MasterName, 0)), alloc, len(fleet), nil)
	eps := make([]*broker.Endpoint, len(fleet))
	for i, w := range fleet {
		eps[i] = bus.Register(w, 0)
		eps[i].Subscribe(engine.TopicBids)
	}
	// recvBidRequest skips ep's inbox to the next bid request.
	recvBidRequest := func(ep *broker.Endpoint) engine.MsgBidRequest {
		for {
			v, _ := ep.Inbox().Recv()
			if req, ok := v.(*broker.Envelope).Payload.(engine.MsgBidRequest); ok {
				return req
			}
		}
	}
	m.Start()
	var rep *engine.Report
	sim.Go(func() {
		for i, w := range fleet {
			eps[i].Send(engine.MasterName, engine.MsgRegister{Worker: w})
		}
		m.WaitReady()
		wf := engine.NewWorkflow("async")
		wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: "jobs"})
		sess := m.OpenSession("async", wf)
		sess.Submit(&engine.Job{ID: "j", Stream: "jobs", DataSizeMB: 1})
		for i, w := range fleet {
			req := recvBidRequest(eps[i])
			est := time.Duration(len(fleet)-i) * time.Second // w1 bids lowest
			eps[i].Send(engine.MasterName, engine.MsgBid{JobID: req.Job.ID, Worker: w, Estimate: est, JobCost: est})
		}
		for {
			v, _ := eps[1].Inbox().Recv()
			if a, ok := v.(*broker.Envelope).Payload.(engine.MsgAssign); ok {
				eps[1].Send(engine.MasterName, engine.MsgJobDone{JobID: a.Job.ID, Worker: "w1"})
				break
			}
		}
		sess.Close()
		rep = sess.Wait()
		m.Shutdown()
	})
	sim.Wait()

	if rep == nil {
		t.Fatal("session report missing")
	}
	rec := rep.Records["j"]
	if rec == nil || rec.Worker != "w1" {
		t.Fatalf("record = %+v, want j won by w1", rec)
	}
	if wait := rec.Queued.Sub(rec.Injected); wait >= DefaultBidWindow/2 || rep.Fallbacks != 0 {
		t.Errorf("assigned after %v with %d fallbacks, want on the last bid", wait, rep.Fallbacks)
	}
	if rep.ContestMsgs != len(fleet) {
		t.Errorf("ContestMsgs = %d, want %d: one request per live worker", rep.ContestMsgs, len(fleet))
	}
}
