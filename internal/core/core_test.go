package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/vclock"
)

// fakeCtx is a recording engine.AllocCtx for driving allocators directly.
type fakeCtx struct {
	clk     vclock.Clock
	workers []string
	jobs    map[string]*engine.Job

	assigns   []fakeAssign
	offers    []fakeOffer
	noWork    []string
	published []string
	targeted  []fakeTargeted
	windows   []fakeWindow
	ticks     []fakeWindow
	fallbacks int
}

type fakeTargeted struct {
	job     string
	workers []string
}

type fakeAssign struct {
	job, worker string
	est         time.Duration
}

type fakeOffer struct{ job, worker string }

type fakeWindow struct {
	token string
	d     time.Duration
}

func newFakeCtx(workers ...string) *fakeCtx {
	return &fakeCtx{
		clk:     vclock.NewSim(),
		workers: workers,
		jobs:    make(map[string]*engine.Job),
	}
}

func (f *fakeCtx) addJob(id, key string, sizeMB float64) *engine.Job {
	j := &engine.Job{ID: id, Stream: "work", DataKey: key, DataSizeMB: sizeMB}
	f.jobs[id] = j
	return j
}

func (f *fakeCtx) Clock() vclock.Clock       { return f.clk }
func (f *fakeCtx) Workers() []string         { return f.workers }
func (f *fakeCtx) Job(id string) *engine.Job { return f.jobs[id] }

func (f *fakeCtx) Assign(jobID, worker string, est time.Duration) {
	f.assigns = append(f.assigns, fakeAssign{jobID, worker, est})
}

func (f *fakeCtx) Offer(jobID, worker string) {
	f.offers = append(f.offers, fakeOffer{jobID, worker})
}

func (f *fakeCtx) SendNoWork(worker string, _ time.Duration) {
	f.noWork = append(f.noWork, worker)
}

func (f *fakeCtx) PublishBidRequest(jobID string) int {
	f.published = append(f.published, jobID)
	return len(f.workers)
}

func (f *fakeCtx) PublishBidRequestTo(jobID string, workers []string) int {
	live := make(map[string]bool, len(f.workers))
	for _, w := range f.workers {
		live[w] = true
	}
	var reached []string
	for _, w := range workers {
		if live[w] {
			reached = append(reached, w)
		}
	}
	f.targeted = append(f.targeted, fakeTargeted{jobID, reached})
	return len(reached)
}

func (f *fakeCtx) ScheduleBidWindow(jobID string, d time.Duration) {
	f.windows = append(f.windows, fakeWindow{jobID, d})
}

func (f *fakeCtx) ScheduleTick(token string, d time.Duration) {
	f.ticks = append(f.ticks, fakeWindow{token, d})
}

func (f *fakeCtx) Rand() *rand.Rand { return rand.New(rand.NewSource(1)) }
func (f *fakeCtx) CountFallback()   { f.fallbacks++ }

func bid(job, worker string, est time.Duration) engine.MsgBid {
	return engine.MsgBid{JobID: job, Worker: worker, Estimate: est, JobCost: est / 2}
}

func TestBiddingOpensContestAndWindow(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	if len(ctx.published) != 1 || ctx.published[0] != "j1" {
		t.Errorf("published = %v", ctx.published)
	}
	if len(ctx.windows) != 1 || ctx.windows[0].d != DefaultBidWindow {
		t.Errorf("windows = %v", ctx.windows)
	}
	if b.OpenContests() != 1 {
		t.Errorf("OpenContests = %d", b.OpenContests())
	}
}

func TestBiddingCustomWindow(t *testing.T) {
	ctx := newFakeCtx("w0")
	b := &BiddingAllocator{Window: 250 * time.Millisecond}
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	if ctx.windows[0].d != 250*time.Millisecond {
		t.Errorf("window = %v", ctx.windows[0].d)
	}
}

func TestBiddingClosesOnAllBidsAndPicksMin(t *testing.T) {
	ctx := newFakeCtx("w0", "w1", "w2")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, bid("j1", "w0", 30*time.Second))
	b.BidReceived(ctx, bid("j1", "w1", 10*time.Second))
	if len(ctx.assigns) != 0 {
		t.Fatal("assigned before all bids arrived")
	}
	b.BidReceived(ctx, bid("j1", "w2", 20*time.Second))
	if len(ctx.assigns) != 1 {
		t.Fatalf("assigns = %v", ctx.assigns)
	}
	got := ctx.assigns[0]
	if got.worker != "w1" || got.job != "j1" {
		t.Errorf("assigned to %s, want w1", got.worker)
	}
	if got.est != 5*time.Second { // winner's JobCost
		t.Errorf("est = %v, want the winner's job cost", got.est)
	}
	if b.OpenContests() != 0 {
		t.Error("contest not cleaned up")
	}
}

func TestBiddingTieBreaksByWorkerName(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, bid("j1", "w1", 10*time.Second))
	b.BidReceived(ctx, bid("j1", "w0", 10*time.Second))
	if ctx.assigns[0].worker != "w0" {
		t.Errorf("tie went to %s, want deterministic w0", ctx.assigns[0].worker)
	}
}

func TestBiddingWindowExpiryAssignsPartialBids(t *testing.T) {
	ctx := newFakeCtx("w0", "w1", "w2")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, bid("j1", "w2", 8*time.Second))
	b.BidWindowExpired(ctx, "j1")
	if len(ctx.assigns) != 1 || ctx.assigns[0].worker != "w2" {
		t.Errorf("assigns = %v, want w2 from partial bids", ctx.assigns)
	}
}

func TestBiddingWindowExpiryNoBidsFallsBackToArbitrary(t *testing.T) {
	ctx := newFakeCtx("w0", "w1", "w2")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidWindowExpired(ctx, "j1")
	if len(ctx.assigns) != 1 {
		t.Fatalf("assigns = %v", ctx.assigns)
	}
	if ctx.fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", ctx.fallbacks)
	}
	found := false
	for _, w := range ctx.workers {
		if ctx.assigns[0].worker == w {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback assigned to unknown worker %q", ctx.assigns[0].worker)
	}
}

func TestBiddingNoWorkersReschedules(t *testing.T) {
	ctx := newFakeCtx() // empty fleet
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidWindowExpired(ctx, "j1")
	if len(ctx.assigns) != 0 {
		t.Error("assigned with no workers")
	}
	if len(ctx.windows) != 2 {
		t.Errorf("windows = %v, want a retry window", ctx.windows)
	}
}

func TestBiddingIgnoresLateAndUnknownBids(t *testing.T) {
	ctx := newFakeCtx("w0")
	b := NewBidding()
	b.JobReady(ctx, ctx.addJob("j1", "r", 100))
	b.BidReceived(ctx, bid("j1", "w0", time.Second)) // closes contest
	b.BidReceived(ctx, bid("j1", "w0", time.Second)) // late: ignored
	b.BidReceived(ctx, bid("ghost", "w0", time.Second))
	b.BidWindowExpired(ctx, "j1")    // already closed
	b.BidWindowExpired(ctx, "ghost") // never existed
	if len(ctx.assigns) != 1 {
		t.Errorf("assigns = %v, want exactly 1", ctx.assigns)
	}
}

func TestBaselineServesParkedWorkerFIFO(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBaseline()
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w1"})
	if len(ctx.offers) != 0 {
		t.Fatal("offered with no pending jobs")
	}
	b.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	b.JobReady(ctx, ctx.addJob("j2", "r2", 10))
	if len(ctx.offers) != 2 {
		t.Fatalf("offers = %v", ctx.offers)
	}
	if ctx.offers[0] != (fakeOffer{"j1", "w0"}) || ctx.offers[1] != (fakeOffer{"j2", "w1"}) {
		t.Errorf("offers = %v, want FIFO pairing", ctx.offers)
	}
	if b.PendingJobs() != 0 {
		t.Errorf("PendingJobs = %d", b.PendingJobs())
	}
}

func TestBaselineDuplicatePullIgnored(t *testing.T) {
	ctx := newFakeCtx("w0")
	b := NewBaseline()
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	b.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	b.JobReady(ctx, ctx.addJob("j2", "r2", 10))
	if len(ctx.offers) != 1 {
		t.Errorf("offers = %v, duplicate pull served twice", ctx.offers)
	}
}

func TestBaselineRejectionRequeuesAtBack(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBaseline()
	ctx.addJob("j1", "r1", 10)
	ctx.addJob("j2", "r2", 10)
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	b.JobReady(ctx, ctx.jobs["j1"]) // offered to the parked w0
	b.JobReady(ctx, ctx.jobs["j2"])
	if len(ctx.offers) != 1 || ctx.offers[0] != (fakeOffer{"j1", "w0"}) {
		t.Fatalf("offers = %v, want j1->w0", ctx.offers)
	}
	b.OfferRejected(ctx, "j1", "w0") // j1 returns behind j2
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w1"})
	if len(ctx.offers) != 2 || ctx.offers[1].job != "j2" {
		t.Errorf("offers = %v, want j2 next (j1 requeued at back)", ctx.offers)
	}
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	if len(ctx.offers) != 3 || ctx.offers[2].job != "j1" {
		t.Errorf("offers = %v, want j1 offered last", ctx.offers)
	}
}

func TestBaselineWorkerLostForgetsPull(t *testing.T) {
	ctx := newFakeCtx("w0", "w1")
	b := NewBaseline()
	b.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	b.WorkerLost(ctx, "w0", nil)
	b.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	if len(ctx.offers) != 0 {
		t.Errorf("offered to lost worker: %v", ctx.offers)
	}
	b.WorkerLost(ctx, "w0", nil) // second loss is a no-op
}

func TestMatchmakingPrefersLocalJobOverHead(t *testing.T) {
	ctx := newFakeCtx("w0")
	m := NewMatchmaking()
	m.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	m.JobReady(ctx, ctx.addJob("j2", "r2", 10))
	m.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0", CachedKeys: []string{"r2"}})
	if len(ctx.assigns) != 1 || ctx.assigns[0].job != "j2" {
		t.Errorf("assigns = %v, want local j2 despite j1 at head", ctx.assigns)
	}
	if m.PendingJobs() != 1 {
		t.Errorf("PendingJobs = %d", m.PendingJobs())
	}
}

func TestMatchmakingSecondStrikeTakesHead(t *testing.T) {
	ctx := newFakeCtx("w0")
	m := NewMatchmaking()
	m.JobReady(ctx, ctx.addJob("j1", "r1", 10))
	m.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	if len(ctx.noWork) != 1 {
		t.Fatalf("first non-local pull should idle: %v", ctx.assigns)
	}
	m.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0", Strikes: 1})
	if len(ctx.assigns) != 1 || ctx.assigns[0].job != "j1" {
		t.Errorf("assigns = %v, want head job on second strike", ctx.assigns)
	}
}

func TestMatchmakingEmptyQueueSendsNoWork(t *testing.T) {
	ctx := newFakeCtx("w0")
	m := NewMatchmaking()
	m.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0", Strikes: 5})
	if len(ctx.noWork) != 1 {
		t.Errorf("noWork = %v", ctx.noWork)
	}
}

func TestMatchmakingJobsWithoutDataMatchAnyone(t *testing.T) {
	ctx := newFakeCtx("w0")
	m := NewMatchmaking()
	m.JobReady(ctx, ctx.addJob("j1", "", 0))
	m.WorkerIdle(ctx, engine.MsgRequestJob{Worker: "w0"})
	if len(ctx.assigns) != 1 {
		t.Errorf("dataless job not assigned on first pull: %v", ctx.noWork)
	}
}

func TestSparkLikeRoundRobinWraps(t *testing.T) {
	ctx := newFakeCtx("w0", "w1", "w2")
	s := NewSparkLike()
	for i := 0; i < 7; i++ {
		id := string(rune('a' + i))
		s.JobReady(ctx, ctx.addJob(id, "r", 10))
	}
	counts := map[string]int{}
	for _, a := range ctx.assigns {
		counts[a.worker]++
	}
	if counts["w0"] != 3 || counts["w1"] != 2 || counts["w2"] != 2 {
		t.Errorf("distribution = %v", counts)
	}
}

func TestSparkLikeNoWorkersRetries(t *testing.T) {
	ctx := newFakeCtx()
	s := NewSparkLike()
	s.JobReady(ctx, ctx.addJob("j1", "r", 10))
	if len(ctx.windows) != 1 {
		t.Fatalf("windows = %v, want retry", ctx.windows)
	}
	ctx.workers = []string{"w0"}
	s.BidWindowExpired(ctx, "j1")
	if len(ctx.assigns) != 1 || ctx.assigns[0].worker != "w0" {
		t.Errorf("assigns = %v after retry", ctx.assigns)
	}
	s.BidWindowExpired(ctx, "ghost") // unknown job: no panic, no assign
	if len(ctx.assigns) != 1 {
		t.Errorf("ghost retry assigned: %v", ctx.assigns)
	}
}

func TestRandomAssignsKnownWorkerAndRetries(t *testing.T) {
	ctx := newFakeCtx()
	r := NewRandom()
	r.JobReady(ctx, ctx.addJob("j1", "r", 10))
	if len(ctx.windows) != 1 {
		t.Fatal("no retry scheduled with empty fleet")
	}
	ctx.workers = []string{"w0", "w1"}
	r.BidWindowExpired(ctx, "j1")
	if len(ctx.assigns) != 1 {
		t.Fatalf("assigns = %v", ctx.assigns)
	}
	if w := ctx.assigns[0].worker; w != "w0" && w != "w1" {
		t.Errorf("assigned to %q", w)
	}
}

func TestLearningCostsAverages(t *testing.T) {
	l := NewLearningCosts(10, 20) // probe speeds
	if got := l.TransferEstimate(false, 100); got != 10*time.Second {
		t.Errorf("probe-only transfer estimate = %v, want 10s", got)
	}
	// Observe a 100MB download in 5s => 20MB/s; average of {10,20} = 15.
	l.ObserveTransfer(100, 5*time.Second)
	if got := l.NetMBps(); got != 15 {
		t.Errorf("NetMBps = %v, want 15", got)
	}
	if got := l.TransferEstimate(false, 30); got != 2*time.Second {
		t.Errorf("transfer estimate = %v, want 2s at 15MB/s", got)
	}
	// Observe processing: 20MB in 1s => 20MB/s; average of {20,20} = 20.
	l.ObserveProcess(20, time.Second)
	if got := l.RWMBps(); got != 20 {
		t.Errorf("RWMBps = %v", got)
	}
	if got := l.ProcessEstimate(40); got != 2*time.Second {
		t.Errorf("process estimate = %v, want 2s", got)
	}
	net, rw := l.Observations()
	if net != 2 || rw != 2 {
		t.Errorf("Observations = %d, %d", net, rw)
	}
}

func TestLearningCostsLocalDataIsFree(t *testing.T) {
	l := NewLearningCosts(10, 10)
	if got := l.TransferEstimate(true, 500); got != 0 {
		t.Errorf("local transfer estimate = %v, want 0", got)
	}
	if got := l.TransferEstimate(false, 0); got != 0 {
		t.Errorf("zero-size estimate = %v", got)
	}
	if got := l.ProcessEstimate(-1); got != 0 {
		t.Errorf("negative process estimate = %v", got)
	}
}

func TestLearningCostsDefensiveDefaults(t *testing.T) {
	l := NewLearningCosts(0, 0) // no probe: ultra-conservative 1MB/s
	if got := l.NetMBps(); got != 1 {
		t.Errorf("NetMBps = %v, want conservative 1", got)
	}
	if got := l.RWMBps(); got != 1 {
		t.Errorf("RWMBps = %v, want conservative 1", got)
	}
	l.ObserveTransfer(0, time.Second) // ignored
	l.ObserveTransfer(10, 0)          // ignored
	if net, _ := l.Observations(); net != 0 {
		t.Errorf("degenerate observations counted: %d", net)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]string{
		NewBidding().Name():          "bidding",
		NewBaseline().Name():         "baseline",
		NewSparkLike().Name():        "spark-like",
		NewMatchmaking().Name():      "matchmaking",
		NewRandom().Name():           "random",
		NewBiddingAgent().Name():     "bidding",
		NewBaselineAgent().Name():    "baseline",
		NewPassiveAgent().Name():     "passive",
		NewMatchmakingAgent().Name(): "matchmaking",
	}
	for got, want := range names {
		if got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// TestStatefulPoliciesDigestTheirState guards the model checker's
// fingerprint, which sees an allocator's or agent's state only through
// engine.StateDigester: every built-in allocator or agent type with a
// field of its own (the embedded no-op NopAllocator and BiddingAgent
// carry none) must implement it, or the checker merges states that
// differ there.
func TestStatefulPoliciesDigestTheirState(t *testing.T) {
	stateless := map[reflect.Type]bool{
		reflect.TypeOf(engine.NopAllocator{}): true,
		reflect.TypeOf(BiddingAgent{}):        true,
	}
	for _, p := range Policies() {
		for _, v := range []any{p.NewAllocator(), p.NewAgent(nil)} {
			typ := reflect.TypeOf(v)
			st := typ
			if st.Kind() == reflect.Pointer {
				st = st.Elem()
			}
			for i := 0; i < st.NumField(); i++ {
				f := st.Field(i)
				if f.Anonymous && stateless[f.Type] {
					continue
				}
				if _, ok := v.(engine.StateDigester); !ok {
					t.Errorf("policy %s: %v keeps field %s but does not implement engine.StateDigester", p.Name, typ, f.Name)
				}
				break
			}
		}
	}
}

func TestSparkLikeDigestsCursor(t *testing.T) {
	ctx := newFakeCtx("w1", "w2")
	s := NewSparkLike()
	before := s.StateDigest()
	s.JobReady(ctx, ctx.addJob("j1", "r", 10))
	if after := s.StateDigest(); after == before {
		t.Errorf("digest %q unchanged after the cursor advanced", after)
	}
}
