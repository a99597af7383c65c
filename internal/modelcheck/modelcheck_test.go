package modelcheck

import (
	"os"
	"strings"
	"testing"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/simtest"
	"crossflow/internal/vclock"
)

// exhaustiveEnv opts in to the full sweeps. `go test ./...` stays a
// bounded smoke — every search below is capped at smokeRuns executions,
// which still replays prefixes, branches, dedups and audits every run
// against the invariant library; the CI modelcheck job sets
// XFLOW_MODELCHECK=exhaustive and requires every unbounded state space
// to be exhausted (minutes: the 2x3 bidding-topk space alone is 635 354
// runs).
const exhaustiveEnv = "XFLOW_MODELCHECK"

func exhaustive() bool { return os.Getenv(exhaustiveEnv) == "exhaustive" }

// smokeRuns caps each search of the tier-1 smoke. 2x2 bidding (3349
// runs) and the 2x1 kill and drain races (under 2000) exhaust inside it
// and so are still checked in full; the cap bites on the rest.
const smokeRuns = 4000

// counts is a search's size: complete executions and expanded states.
type counts struct{ runs, states int }

// sweepRow is one bounded search a test here runs, and the size it
// must come out at: smoke under the tier-1 cap of smokeRuns, full
// uncapped (under XFLOW_MODELCHECK=exhaustive). maxRuns and maxDepth
// bound a search too large to exhaust in either mode.
type sweepRow struct {
	policy            string
	bounds            Bounds
	noPOR             bool
	maxRuns, maxDepth int
	smoke, full       counts
}

// sweeps pins every search's size. The searches are deterministic, so
// a change that moves a count changed which interleavings or states the
// protocol reaches: it updates the row and says why. For the same
// reason the sweep subtests run in parallel: no count depends on how
// many searches share the cores.
var sweeps = map[string]sweepRow{
	"bidding 2w2j":                {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 2}, smoke: counts{3349, 3551}, full: counts{3349, 3551}},
	"bidding-fast 2w2j":           {policy: "bidding-fast", bounds: Bounds{Workers: 2, Jobs: 2}, smoke: counts{3349, 3551}, full: counts{3349, 3551}},
	"bidding-topk 2w2j":           {policy: "bidding-topk", bounds: Bounds{Workers: 2, Jobs: 2}, smoke: counts{4000, 3996}, full: counts{30193, 28149}},
	"bidding 2w1j kill w1":        {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, smoke: counts{1919, 1992}, full: counts{1919, 1992}},
	"bidding 2w1j kill w1 no-por": {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, noPOR: true, smoke: counts{4000, 2948}, full: counts{12896, 9319}},
	"bidding 2w1j drain w1":       {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 1, Drain: "w1"}, smoke: counts{1776, 1941}, full: counts{1776, 1941}},
	"bidding 2w3j":                {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 3}, smoke: counts{4000, 3699}, full: counts{36274, 31776}},
	"bidding-topk 2w3j":           {policy: "bidding-topk", bounds: Bounds{Workers: 2, Jobs: 3}, smoke: counts{4000, 4273}, full: counts{635354, 497563}},
	"baseline 2w3j":               {policy: "baseline", bounds: Bounds{Workers: 2, Jobs: 3}, smoke: counts{4000, 3938}, full: counts{43665, 44072}},
	"spark-like 2w3j":             {policy: "spark-like", bounds: Bounds{Workers: 2, Jobs: 3}, smoke: counts{217, 252}, full: counts{217, 252}},
	"random 2w3j":                 {policy: "random", bounds: Bounds{Workers: 2, Jobs: 3}, smoke: counts{200, 222}, full: counts{200, 222}},
	"matchmaking 2w3j":            {policy: "matchmaking", bounds: Bounds{Workers: 2, Jobs: 3}, maxRuns: 60000, maxDepth: 20, smoke: counts{4000, 3179}, full: counts{60000, 36656}},
	"delay 2w3j":                  {policy: "delay", bounds: Bounds{Workers: 2, Jobs: 3}, maxRuns: 60000, maxDepth: 20, smoke: counts{4000, 3308}, full: counts{60000, 40573}},
	"bidding 2w2j kill w1":        {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 2, Kill: "w1"}, smoke: counts{4000, 4390}, full: counts{139154, 117589}},
	"bidding 2w2j drain w1":       {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 2, Drain: "w1"}, smoke: counts{4000, 4211}, full: counts{36362, 30569}},
	"bidding 2w2j join":           {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 2, Join: true}, smoke: counts{4000, 4304}, full: counts{791298, 634599}},
	"bidding 2w3j 2 shards":       {policy: "bidding", bounds: Bounds{Workers: 2, Jobs: 3, Shards: 2}, maxRuns: 20000, maxDepth: 26, smoke: counts{4000, 3106}, full: counts{20000, 11547}},
}

// sweep runs the named search — capped in smoke mode — and requires it
// clean: no violation, the size its row gives, and the state space
// exhausted unless a bound (the smoke cap included) cut it short.
func sweep(t *testing.T, name string) *Result {
	t.Helper()
	row, ok := sweeps[name]
	if !ok {
		t.Fatalf("no sweep %q in the table", name)
	}
	pol := policy(t, row.policy)
	cfg := Config{Scenario: BoundedScenario(row.bounds, pol), Policy: pol,
		DisablePOR: row.noPOR, MaxRuns: row.maxRuns, MaxDepth: row.maxDepth}
	want := row.full
	if !exhaustive() {
		want = row.smoke
		if cfg.MaxRuns == 0 || cfg.MaxRuns > smokeRuns {
			cfg.MaxRuns = smokeRuns
		}
	}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: %s", name, FormatStats(res.Stats))
	if res.Violation != nil {
		t.Fatalf("violation: %v\nschedule: %v\ntrace:\n%s",
			res.Violation, res.Counterexample.Schedule, res.Counterexample.Trace)
	}
	if got := (counts{res.Stats.Runs, res.Stats.States}); got != want {
		t.Errorf("%s: runs/states %d/%d, the table says %d/%d", name, got.runs, got.states, want.runs, want.states)
	}
	bounded := row.maxRuns > 0 || row.maxDepth > 0
	capped := !exhaustive() && res.Stats.Runs >= smokeRuns && res.Stats.Truncated == 0
	if !res.Exhausted && !capped && !bounded {
		t.Fatalf("state space not exhausted: %s", FormatStats(res.Stats))
	}
	return res
}

func policy(t *testing.T, name string) core.Policy {
	t.Helper()
	pol, ok := core.PolicyByName(name)
	if !ok {
		t.Fatalf("unknown policy %q", name)
	}
	return pol
}

// TestExhaustsFaultFree explores the full state space of the two
// contest-based policies on a fault-free 2-worker, 2-job configuration
// and expects a clean exhaustion: every interleaving audited, zero
// invariant violations, zero truncations.
func TestExhaustsFaultFree(t *testing.T) {
	for _, name := range []string{"bidding", "bidding-fast", "bidding-topk"} {
		t.Run(name, func(t *testing.T) { t.Parallel(); sweep(t, name+" 2w2j") })
	}
}

// TestCheckerEntersThroughTheSessionPath pins what the checker covers:
// a scenario runs as one session on the cluster plane — opened, fed by
// scheduled submissions, closed — so the enabled sets of a 2-worker,
// 2-job execution must offer the submissions and the feed close as
// schedulable events, the lifecycle a deployed master runs.
func TestCheckerEntersThroughTheSessionPath(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 2}, pol)
	seen := make(map[string]bool)
	clk := vclock.NewSim()
	clk.SetChooser(func(enabled []vclock.EnabledEvent) int {
		for _, e := range enabled {
			kind, _, _ := strings.Cut(e.Label.Detail, " ")
			seen[kind] = true
		}
		return 0
	})
	r := simtest.ExecuteOpts(sc, pol, simtest.ExecOptions{Clock: clk})
	if v := simtest.CheckTrace(sc, r); v != nil {
		t.Fatalf("violation: %v", v)
	}
	for _, kind := range []string{"submit", "close-feed"} {
		if !seen[kind] {
			t.Errorf("no %q event was ever enabled; saw %v", kind, seen)
		}
	}
}

// TestExhaustsWithKill adds the hardest bounded fault — a worker kill
// enabled at every point of the protocol, including before its
// registration arrives — and still expects clean exhaustion. This
// config is what flushed out the register-after-death resurrection and
// the pre-ready quorum stall (see the engine's membership.shrinkQuorum
// and membership.dead).
func TestExhaustsWithKill(t *testing.T) { sweep(t, "bidding 2w1j kill w1") }

// TestExhaustsWithDrain explores a graceful drain racing the whole
// protocol, contest included.
func TestExhaustsWithDrain(t *testing.T) { sweep(t, "bidding 2w1j drain w1") }

// forgetfulBidding is the bidding allocator with the stale
// dead-worker-bid bug put back (simtest seed 438 found it): WorkerLost
// scrubs nothing, so a bid its worker placed before dying stays in the
// contest book and can win.
type forgetfulBidding struct{ *core.BiddingAllocator }

func (forgetfulBidding) WorkerLost(engine.AllocCtx, string, []*engine.Job) {}

// TestStaleBidBugCounterexample runs the checker on that broken
// protocol and expects the interleaving fuzzing found only by luck: the
// victim bids, dies, its stale bid wins, and the job strands on a
// closed endpoint. The counterexample must survive an encode/decode
// round trip and replay to the same violation.
func TestStaleBidBugCounterexample(t *testing.T) {
	bidding := policy(t, "bidding")
	pol := core.Policy{
		Name:         "bidding-forgetful",
		NewAllocator: func() engine.Allocator { return forgetfulBidding{core.NewBidding()} },
		NewAgent:     bidding.NewAgent,
	}
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, pol)
	res, err := Check(Config{Scenario: sc, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("checker missed the stale-bid bug: %s", FormatStats(res.Stats))
	}
	if res.Violation.Invariant != "completion" {
		t.Fatalf("expected a completion violation (stranded job), got %q: %s",
			res.Violation.Invariant, res.Violation.Detail)
	}
	ce := res.Counterexample
	if ce == nil || len(ce.Schedule) == 0 {
		t.Fatalf("violation without a schedule: %+v", ce)
	}
	t.Logf("%s; schedule %v", FormatStats(res.Stats), ce.Schedule)

	data, err := ce.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := simtest.DecodeCounterexample(data)
	if err != nil {
		t.Fatal(err)
	}
	// Counterexample.Replay resolves registered policies by name; this
	// one lives in the test, so replay its schedule directly.
	r := simtest.ReplaySchedule(decoded.Scenario, pol, decoded.Schedule)
	v := simtest.CheckTrace(decoded.Scenario, r)
	if v == nil {
		t.Fatalf("decoded counterexample no longer reproduces; trace:\n%s", ce.Trace)
	}
	if v.Invariant != ce.Invariant {
		t.Fatalf("replay violated %q, counterexample recorded %q", v.Invariant, ce.Invariant)
	}
	if r.Err == nil {
		t.Fatalf("stranded-job replay should deadlock, run returned no error")
	}
}

// TestStaleBidBugGoneWhenFixed replays nothing: with the real bidding
// allocator the same configuration must have no violating interleaving
// at all — the WorkerLost scrub really closes the window the bug opened.
func TestStaleBidBugGoneWhenFixed(t *testing.T) { sweep(t, "bidding 2w1j kill w1") }

// TestPORCrossCheck runs the same configuration with and without
// sleep-set reduction. Both must exhaust with the same verdict, and the
// reduction must not do more work than the plain search.
func TestPORCrossCheck(t *testing.T) {
	with := sweep(t, "bidding 2w1j kill w1")
	without := sweep(t, "bidding 2w1j kill w1 no-por")
	if with.Stats.Runs > without.Stats.Runs {
		t.Fatalf("reduction ran more executions (%d) than the plain search (%d)",
			with.Stats.Runs, without.Stats.Runs)
	}
}

// TestDepthBoundedPull smoke-checks a pull policy: its heartbeat chains
// never quiesce (UsesPullTimers), so the search must report truncation
// rather than exhaustion — and still find no violation inside the bound.
func TestDepthBoundedPull(t *testing.T) {
	pol := policy(t, "matchmaking")
	if !UsesPullTimers(pol) {
		t.Fatalf("matchmaking should be flagged as a pull policy")
	}
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1}, pol)
	res, err := Check(Config{Scenario: sc, Policy: pol, MaxDepth: 20, MaxRuns: 3000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", FormatStats(res.Stats))
	if res.Violation != nil {
		t.Fatalf("violation: %v", res.Violation)
	}
	if res.Exhausted {
		t.Fatalf("a depth-bounded pull search must not claim exhaustion")
	}
}

// TestAcceptance23 is the headline configuration, 2 workers x 3 jobs,
// for every policy but bidding-fast (bidding with an early local close,
// swept at 2x2): exhausted for bidding, bidding-topk, baseline,
// spark-like and random; bounded as xflow-check bounds them for the
// pull policies matchmaking and delay, whose heartbeat chains never
// quiesce. bidding-topk's space is large (hundreds of thousands of
// runs), so the full sweeps belong to the CI modelcheck job; tier-1
// smokes the same configurations under the cap.
func TestAcceptance23(t *testing.T) {
	for _, name := range []string{"bidding", "bidding-topk", "baseline", "spark-like", "random", "matchmaking", "delay"} {
		t.Run(name, func(t *testing.T) { t.Parallel(); sweep(t, name+" 2w3j") })
	}
}

// TestRacingFaultsAndShards runs the bounded configurations that also
// race a fault or a second shard against a 2-job stream: a kill, a
// drain and a join each enabled at every point of the protocol, and the
// 2x3 configuration on two contest shards, which is too large to
// exhaust and runs to a bound (runs and decisions per run).
func TestRacingFaultsAndShards(t *testing.T) {
	for _, name := range []string{"bidding 2w2j kill w1", "bidding 2w2j drain w1",
		"bidding 2w2j join", "bidding 2w3j 2 shards"} {
		t.Run(name, func(t *testing.T) { t.Parallel(); sweep(t, name) })
	}
}
