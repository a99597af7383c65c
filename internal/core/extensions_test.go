package core

import (
	"testing"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/netsim"
)

func TestDelayServesLocalJobFirst(t *testing.T) {
	ctx := newFakeCtx("w0")
	d := NewDelay()
	d.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	d.JobReady(ctx, ctx.addJob("j2", "r2", 10))
	d.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0", CachedKeys: []string{"r2"}})
	if len(ctx.assigns) != 1 || ctx.assigns[0].job != "j2" {
		t.Fatalf("assigns = %v, want local j2", ctx.assigns)
	}
	// j1 was skipped once in the scan.
	if d.pending[0].skips != 1 {
		t.Errorf("skips = %d, want 1", d.pending[0].skips)
	}
	if d.PendingJobs() != 1 {
		t.Errorf("PendingJobs = %d", d.PendingJobs())
	}
}

func TestDelaySkipsThenLaunchesAnywhere(t *testing.T) {
	ctx := newFakeCtx("w0")
	d := NewDelay()
	d.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	for i := 0; i < DefaultMaxSkips; i++ {
		d.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"}) // non-local: skip
		if len(ctx.assigns) != 0 {
			t.Fatalf("assigned during skip %d", i)
		}
	}
	if len(ctx.noWork) != DefaultMaxSkips {
		t.Fatalf("noWork = %v, want %d empty pulls", ctx.noWork, DefaultMaxSkips)
	}
	d.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"}) // patience exhausted
	if len(ctx.assigns) != 1 || ctx.assigns[0].job != "j1" {
		t.Errorf("assigns = %v, want j1 launched non-locally", ctx.assigns)
	}
}

func TestDelayEmptyQueueNoWork(t *testing.T) {
	ctx := newFakeCtx("w0")
	d := NewDelay()
	d.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	if len(ctx.noWork) != 1 {
		t.Errorf("noWork = %v", ctx.noWork)
	}
}

func TestDelayDropsVanishedJobs(t *testing.T) {
	ctx := newFakeCtx("w0")
	d := NewDelay()
	d.JobReady(ctx, &engine.Job{ID: "ghost"}) // never added to ctx.jobs
	d.JobReady(ctx, ctx.addJob("j1", "", 0))
	d.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	if len(ctx.assigns) != 1 || ctx.assigns[0].job != "j1" {
		t.Errorf("assigns = %v, want j1 after dropping ghost", ctx.assigns)
	}
	if d.PendingJobs() != 0 {
		t.Errorf("PendingJobs = %d", d.PendingJobs())
	}
}

func TestFastLocalCloseEndsContestEarly(t *testing.T) {
	ctx := newFakeCtx("w0", "w1", "w2")
	b := &BiddingAllocator{FastLocalClose: true}
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, engine.MsgBid{JobID: "j1", Worker: "w1", Estimate: 20 * time.Second})
	if len(ctx.assigns) != 0 {
		t.Fatal("closed on a non-local bid")
	}
	b.BidReceived(ctx, engine.MsgBid{JobID: "j1", Worker: "w2", Estimate: 30 * time.Second, Local: true})
	if len(ctx.assigns) != 1 {
		t.Fatal("local bid did not close the contest")
	}
	// Winner is still the lowest estimate received so far, not merely
	// the local bidder.
	if ctx.assigns[0].worker != "w1" {
		t.Errorf("winner = %s, want cheapest-so-far w1", ctx.assigns[0].worker)
	}
}

func TestFastLocalCloseDisabledByDefault(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, engine.MsgBid{JobID: "j1", Worker: "w0", Estimate: time.Second, Local: true})
	if len(ctx.assigns) != 0 {
		t.Error("default bidding closed early on a local bid")
	}
}

func TestCalibratingCostsLearnsRatio(t *testing.T) {
	inner := engine.StaticCosts{NetMBps: 10, RWMBps: 10}
	c := NewCalibratingCosts(inner, 0.5)
	// Inner estimate for 100MB = 10s; uncalibrated passes through.
	if got := c.TransferEstimate(false, 100); got != 10*time.Second {
		t.Fatalf("initial estimate = %v", got)
	}
	// Actual took 20s: ratio moves halfway to 2.0 => 1.5.
	c.ObserveTransfer(100, 20*time.Second)
	tr, pr := c.Ratios()
	if tr != 1.5 || pr != 1.0 {
		t.Fatalf("ratios = %v, %v", tr, pr)
	}
	if got := c.TransferEstimate(false, 100); got != 15*time.Second {
		t.Errorf("calibrated estimate = %v, want 15s", got)
	}
	// Processing channel calibrates independently.
	c.ObserveProcess(100, 5*time.Second) // est 10s, actual 5s: ratio -> 0.75
	if _, pr := c.Ratios(); pr != 0.75 {
		t.Errorf("process ratio = %v", pr)
	}
	if got := c.ProcessEstimate(100); got != 7500*time.Millisecond {
		t.Errorf("calibrated process estimate = %v", got)
	}
}

func TestCalibratingCostsIgnoresDegenerateObservations(t *testing.T) {
	c := NewCalibratingCosts(engine.StaticCosts{NetMBps: 10, RWMBps: 10}, 0)
	c.ObserveTransfer(0, time.Second)
	c.ObserveTransfer(100, 0)
	c.ObserveProcess(-5, time.Second)
	if tr, pr := c.Ratios(); tr != 1 || pr != 1 {
		t.Errorf("ratios moved on degenerate input: %v, %v", tr, pr)
	}
	if got := c.TransferEstimate(true, 100); got != 0 {
		t.Errorf("local estimate = %v", got)
	}
	if alphaDefaulted := NewCalibratingCosts(engine.StaticCosts{}, 5); alphaDefaulted.alpha != 0.2 {
		t.Errorf("alpha = %v, want clamped default", alphaDefaulted.alpha)
	}
}

func TestStaticCostsEdges(t *testing.T) {
	// A zero speed saturates at the link's cap instead of dividing by
	// zero: the transfer or step never finishes, so it must never look
	// free or, converted from +Inf, negative.
	s := engine.StaticCosts{NetMBps: 0, RWMBps: 0}
	if got, want := s.TransferEstimate(false, 100), netsim.DurationFor(100, 0); got != want || got <= 0 {
		t.Errorf("zero-speed TransferEstimate = %v, want the link's %v", got, want)
	}
	if got, want := s.ProcessEstimate(100), netsim.DurationFor(100, 0); got != want || got <= 0 {
		t.Errorf("zero-speed ProcessEstimate = %v, want the link's %v", got, want)
	}
	s = engine.StaticCosts{NetMBps: 50, RWMBps: 25}
	if got := s.TransferEstimate(false, 100); got != 2*time.Second {
		t.Errorf("TransferEstimate = %v", got)
	}
	if got := s.ProcessEstimate(100); got != 4*time.Second {
		t.Errorf("ProcessEstimate = %v", got)
	}
	if s.TransferEstimate(true, 100) != 0 || s.TransferEstimate(false, 0) != 0 || s.ProcessEstimate(0) != 0 {
		t.Error("local or empty work should be free")
	}
	s.ObserveTransfer(1, 1) // no-ops must not panic
	s.ObserveProcess(1, 1)
}

func TestExtendedPolicyRegistry(t *testing.T) {
	for _, name := range []string{"bidding", "baseline", "spark-like", "bidding-fast", "bidding-topk", "matchmaking", "delay", "random"} {
		p, ok := PolicyByName(name)
		if !ok {
			t.Fatalf("policy %q missing", name)
		}
		if p.NewAllocator() == nil || p.NewAgent(nil) == nil {
			t.Errorf("policy %q constructs nils", name)
		}
	}
	if len(Policies()) != 8 {
		t.Errorf("Policies() = %d entries, want 8", len(Policies()))
	}
}
