package modelcheck

import (
	"os"
	"strings"
	"testing"

	"crossflow/internal/core"
	"crossflow/internal/simtest"
	"crossflow/internal/vclock"
)

// exhaustiveEnv opts in to the full sweeps. `go test ./...` stays a
// bounded smoke — every search below is capped at smokeRuns executions,
// which still replays prefixes, branches, dedups and audits every run
// against the invariant library; the CI modelcheck job sets
// XFLOW_MODELCHECK=exhaustive and requires every state space to be
// exhausted (minutes: the 2x3 bidding-topk space alone is 635 354 runs).
const exhaustiveEnv = "XFLOW_MODELCHECK"

func exhaustive() bool { return os.Getenv(exhaustiveEnv) == "exhaustive" }

// smokeRuns caps each search of the tier-1 smoke. Most configurations
// below exhaust well inside it (2x2 bidding is 3349 runs, the kill and
// drain races under 2000) and so are still checked in full; the cap
// bites on 2x2 bidding-topk, the no-POR cross-check and the 2x3 pair.
const smokeRuns = 4000

// sweep runs one search — capped in smoke mode — and requires it clean:
// no violation, and the state space exhausted unless the smoke cap (and
// nothing else) cut it short.
func sweep(t *testing.T, cfg Config) *Result {
	t.Helper()
	if !exhaustive() {
		cfg.MaxRuns = smokeRuns
	}
	res, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", FormatStats(res.Stats))
	if res.Violation != nil {
		t.Fatalf("violation: %v\nschedule: %v\ntrace:\n%s",
			res.Violation, res.Counterexample.Schedule, res.Counterexample.Trace)
	}
	capped := !exhaustive() && res.Stats.Runs >= smokeRuns && res.Stats.Truncated == 0
	if !res.Exhausted && !capped {
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
		t.Run(name, func(t *testing.T) {
			pol := policy(t, name)
			sc := BoundedScenario(Bounds{Workers: 2, Jobs: 2}, pol)
			res := sweep(t, Config{Scenario: sc, Policy: pol})
			if res.Stats.States == 0 || res.Stats.Runs < 2 {
				t.Fatalf("implausibly small exploration: %s", FormatStats(res.Stats))
			}
		})
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
func TestExhaustsWithKill(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, pol)
	sweep(t, Config{Scenario: sc, Policy: pol})
}

// TestExhaustsWithDrain explores a graceful drain racing the whole
// protocol, contest included.
func TestExhaustsWithDrain(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Drain: "w1"}, pol)
	sweep(t, Config{Scenario: sc, Policy: pol})
}

// TestStaleBidBugCounterexample re-introduces the stale dead-worker-bid
// bug (fixed in the simtest PR, kept behind engine.Cluster.SetStaleBidBug)
// and expects the checker to find the interleaving that fuzzing found
// only by luck: the victim's bid is in flight when it dies, the stale
// bid wins, and the job strands on a closed endpoint. The resulting
// counterexample must survive an encode/decode round trip and replay to
// the same violation.
func TestStaleBidBugCounterexample(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, pol)
	res, err := Check(Config{Scenario: sc, Policy: pol, StaleBidBug: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("checker missed the re-introduced bug: %s", FormatStats(res.Stats))
	}
	if res.Violation.Invariant != "completion" {
		t.Fatalf("expected a completion violation (stranded job), got %q: %s",
			res.Violation.Invariant, res.Violation.Detail)
	}
	ce := res.Counterexample
	if ce == nil || len(ce.Schedule) == 0 {
		t.Fatalf("violation without a schedule: %+v", ce)
	}

	data, err := ce.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := simtest.DecodeCounterexample(data)
	if err != nil {
		t.Fatal(err)
	}
	r, v, err := decoded.Replay()
	if err != nil {
		t.Fatal(err)
	}
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

// TestStaleBidBugGoneWhenFixed replays nothing: with the bug flag off,
// the same configuration must have no violating interleaving at all —
// the WorkerLost scrub really closes the window the bug opened.
func TestStaleBidBugGoneWhenFixed(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, pol)
	sweep(t, Config{Scenario: sc, Policy: pol, StaleBidBug: false})
}

// TestPORCrossCheck runs the same configuration with and without
// sleep-set reduction. Both must exhaust with the same verdict, and the
// reduction must not do more work than the plain search.
func TestPORCrossCheck(t *testing.T) {
	pol := policy(t, "bidding")
	sc := BoundedScenario(Bounds{Workers: 2, Jobs: 1, Kill: "w1"}, pol)
	with := sweep(t, Config{Scenario: sc, Policy: pol})
	without := sweep(t, Config{Scenario: sc, Policy: pol, DisablePOR: true})
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

// TestAcceptance23 is the headline configuration: 2 workers x 3 jobs
// exhausted for both bidding and bidding-topk. bidding-topk's space is
// large (hundreds of thousands of runs), so the full sweep belongs to
// the CI modelcheck job; tier-1 smokes the same configuration under the
// cap.
func TestAcceptance23(t *testing.T) {
	for _, name := range []string{"bidding", "bidding-topk"} {
		t.Run(name, func(t *testing.T) {
			pol := policy(t, name)
			sc := BoundedScenario(Bounds{Workers: 2, Jobs: 3}, pol)
			sweep(t, Config{Scenario: sc, Policy: pol})
		})
	}
}
