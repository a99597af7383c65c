package core

import (
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

// TestMasterNeverAwaitsPublishFuture runs a bidding contest through a
// master whose port publishes without waiting: the contest must settle
// on the last live bid, with no goroutine started and the publish
// future never called.
func TestMasterNeverAwaitsPublishFuture(t *testing.T) {
	sim := vclock.NewSim()
	bus := broker.New(sim)
	fleet := []string{"w0", "w1"}
	m := engine.NewClusterMaster(noGoClock{sim, t},
		asyncPort{bus.Register(engine.MasterName, 0), t}, NewBidding(), len(fleet), nil)
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
