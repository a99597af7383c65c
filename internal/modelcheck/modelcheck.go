// Package modelcheck is an exhaustive small-state model checker for the
// allocation protocol: it enumerates every interleaving of a bounded
// configuration (a few workers, a few jobs, optionally one fault) and
// audits each one against the simtest invariant library.
//
// The checker drives the engine through vclock's scheduling-choice hook
// (vclock.Chooser): at every quiescent point the simulated clock exposes
// the set of enabled events — the head of each per-route delivery queue
// plus the earliest local timer — and the checker picks which fires
// next. Exploration is a stateless depth-first search over schedules: a
// schedule prefix is replayed from a fresh simulation (execution is
// deterministic, so replay is exact), then the first unexplored
// alternative is taken and the run continues to termination, recording
// the alternatives it passed up as new prefixes to explore.
//
// Two reductions keep the search tractable, both sound because the
// clock freezes virtual time under a chooser (commuting event orders
// reach byte-identical states — see vclock/choose.go):
//
//   - State-fingerprint deduplication. At every branch point the checker
//     hashes the full simulation state — cluster protocol state, pending
//     events, queued mailboxes. A fingerprint seen before means every
//     continuation has already been explored; the run cruises to
//     termination (always picking event 0, the unguided simulator's
//     order) without branching further.
//
//   - Sleep-set partial-order reduction. When the search has explored
//     firing event a before event b from some state, and a and b touch
//     different nodes (they commute), the b-first branch inherits a in
//     its sleep set and does not re-fire it — the a-after-b suffix would
//     reach the already-visited a-before-b state.
//
// A violation stops the search; the offending schedule is greedily
// shrunk (entries not needed for the violation revert to the default
// order) and returned as a replayable simtest.Counterexample.
package modelcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/simtest"
	"crossflow/internal/vclock"
)

// Config bounds one exploration.
type Config struct {
	// Scenario is the bounded configuration to explore; BoundedScenario
	// builds the canonical ones.
	Scenario *simtest.Scenario
	// Policy is the allocation policy under check.
	Policy core.Policy
	// MaxDepth bounds scheduling decisions per execution; runs that hit
	// it cruise to termination without branching and the result is
	// reported non-exhaustive. Zero means unbounded — only safe for
	// policies without self-perpetuating timer chains (BoundedScenario
	// disables heartbeat retries for push policies; pull policies
	// re-arm forever and need a depth bound).
	MaxDepth int
	// MaxRuns bounds the number of executions; zero means unbounded.
	MaxRuns int
	// DisablePOR turns off sleep-set partial-order reduction, leaving
	// only fingerprint deduplication — slower, useful for cross-checking
	// the reduction.
	DisablePOR bool
	// Progress, when non-nil, is called after every execution with the
	// running statistics.
	Progress func(Stats)
}

// Stats counts the exploration's work.
type Stats struct {
	// Runs is the number of complete executions.
	Runs int
	// States is the number of distinct (fingerprint, sleep set) states
	// expanded.
	States int
	// Deduped counts branch points pruned because their state had
	// already been expanded.
	Deduped int
	// Slept counts transitions skipped by sleep-set reduction.
	Slept int
	// Decisions counts scheduling decisions across all runs (replayed
	// prefixes included).
	Decisions int
	// MaxDepth is the largest number of scheduling decisions any single
	// execution made.
	MaxDepth int
	// Truncated counts runs cut off by the depth bound.
	Truncated int
}

// Result is one exploration's outcome.
type Result struct {
	Stats Stats
	// Exhausted reports that the bounded state space was fully explored:
	// the frontier emptied with no run truncated by MaxDepth or MaxRuns.
	Exhausted bool
	// Violation is the first invariant violation found, nil if none.
	Violation *simtest.Violation
	// Counterexample replays the violation; nil if none.
	Counterexample *simtest.Counterexample
}

// sleeper is one sleep-set entry: a transition (identified by its
// stable label) the current state need not fire because an equivalent
// interleaving was already explored.
type sleeper struct {
	key  string // Class + "|" + Detail: stable transition identity
	node string // conflict domain, for independence filtering
}

// entry is one frontier item of the stateless DFS: replay prefix, then
// explore from the state it reaches, carrying that state's sleep set.
type entry struct {
	prefix []int
	sleep  []sleeper
}

type explorer struct {
	cfg     Config
	visited map[string]struct{}
	stack   []entry
	stats   Stats
}

// Check explores the scenario's bounded state space under the policy.
// It returns early on the first invariant violation, with a shrunk,
// replayable counterexample.
func Check(cfg Config) (*Result, error) {
	if cfg.Scenario == nil {
		return nil, errors.New("modelcheck: nil scenario")
	}
	if cfg.Policy.Name == "" {
		return nil, errors.New("modelcheck: no policy")
	}
	e := &explorer{cfg: cfg, visited: make(map[string]struct{})}
	e.stack = []entry{{}}
	capped := false
	for len(e.stack) > 0 {
		if cfg.MaxRuns > 0 && e.stats.Runs >= cfg.MaxRuns {
			capped = true
			break
		}
		ent := e.stack[len(e.stack)-1]
		e.stack = e.stack[:len(e.stack)-1]
		r, schedule := e.runOne(ent)
		if v := simtest.CheckTrace(cfg.Scenario, r); v != nil {
			return e.finishViolation(v, schedule, r), nil
		}
		if cfg.Progress != nil {
			cfg.Progress(e.stats)
		}
	}
	return &Result{
		Stats:     e.stats,
		Exhausted: !capped && e.stats.Truncated == 0,
	}, nil
}

// runOne executes the scenario once: replay ent.prefix, then explore,
// pushing passed-up alternatives onto the frontier. It returns the run
// and the complete schedule it followed.
func (e *explorer) runOne(ent entry) (*simtest.RunResult, []int) {
	clk := vclock.NewSim()
	var cluster *engine.Cluster
	var schedule []int
	sleep := ent.sleep
	truncated := false

	// cruise ends guided exploration: the chooser uninstalls itself, so
	// the rest of the run executes as a plain unguided simulation with
	// virtual time advancing again. (Staying installed would keep time
	// frozen, and a policy with re-arming timers — a pull heartbeat that
	// reschedules at now+d with now pinned — would starve the deadline
	// forever.) The cruise decision is deliberately NOT recorded in the
	// schedule: ReplaySchedule uninstalls its chooser exactly when the
	// schedule runs out, so leaving it unrecorded is what makes a replay
	// reproduce the suffix event for event.
	cruise := func() int {
		clk.SetChooser(nil)
		return 0
	}

	clk.SetChooser(func(enabled []vclock.EnabledEvent) int {
		e.stats.Decisions++
		i := len(schedule)
		choose := func(c int) int {
			schedule = append(schedule, c)
			return c
		}
		if i < len(ent.prefix) {
			c := ent.prefix[i]
			if c < 0 || c >= len(enabled) {
				// Replay divergence would mean execution is not
				// deterministic; fall back to the default order rather
				// than panic inside the kernel.
				c = 0
			}
			return choose(c)
		}
		if e.cfg.MaxDepth > 0 && i >= e.cfg.MaxDepth {
			truncated = true
			return cruise()
		}
		key := visitKey(fingerprint(cluster, clk), sleep)
		if _, seen := e.visited[key]; seen {
			e.stats.Deduped++
			return cruise()
		}
		e.visited[key] = struct{}{}
		e.stats.States++

		// Transitions still worth firing from this state.
		explorable := make([]int, 0, len(enabled))
		for idx := range enabled {
			if e.cfg.DisablePOR || !inSleep(sleep, enabled[idx].Label) {
				explorable = append(explorable, idx)
			} else {
				e.stats.Slept++
			}
		}
		if len(explorable) == 0 {
			// Fully slept: every continuation was explored elsewhere.
			return cruise()
		}
		// Take the first explorable transition now; queue the rest in
		// reverse so the LIFO frontier explores them in canonical order.
		for k := len(explorable) - 1; k >= 1; k-- {
			alt := explorable[k]
			pfx := make([]int, len(schedule)+1)
			copy(pfx, schedule)
			pfx[len(schedule)] = alt
			e.stack = append(e.stack, entry{
				prefix: pfx,
				sleep:  childSleep(sleep, enabled, explorable[:k], enabled[alt].Label),
			})
		}
		c := explorable[0]
		if !e.cfg.DisablePOR {
			sleep = childSleep(sleep, enabled, nil, enabled[c].Label)
		}
		return choose(c)
	})

	r := simtest.ExecuteOpts(e.cfg.Scenario, e.cfg.Policy, simtest.ExecOptions{
		Clock: clk,
		Probe: func(c *engine.Cluster) { cluster = c },
	})
	e.stats.Runs++
	if truncated {
		e.stats.Truncated++
	}
	if len(schedule) > e.stats.MaxDepth {
		e.stats.MaxDepth = len(schedule)
	}
	return r, schedule
}

// childSleep computes the sleep set of the state reached by firing the
// transition labeled taken: the parent's sleep set plus the siblings
// explored before taken, filtered down to transitions independent of
// taken (dependent ones must be re-fired — their order matters).
func childSleep(parent []sleeper, enabled []vclock.EnabledEvent, earlier []int, taken vclock.EventLabel) []sleeper {
	var out []sleeper
	for _, s := range parent {
		if independent(s.node, taken.Node) {
			out = append(out, s)
		}
	}
	for _, idx := range earlier {
		l := enabled[idx].Label
		s := sleeper{key: l.Class + "|" + l.Detail, node: l.Node}
		if independent(s.node, taken.Node) {
			out = append(out, s)
		}
	}
	return out
}

// independent reports whether two transitions commute: both have a
// known conflict domain and the domains differ. An empty node conflicts
// with everything, which is always sound.
func independent(a, b string) bool { return a != "" && b != "" && a != b }

func inSleep(sleep []sleeper, l vclock.EventLabel) bool {
	key := l.Class + "|" + l.Detail
	for _, s := range sleep {
		if s.key == key {
			return true
		}
	}
	return false
}

// fingerprint hashes the complete simulation state at a quiescent
// point: cluster protocol state, pending (non-stale) events, and queued
// mailbox contents. Virtual time is frozen under the chooser, so two
// paths that commute into the same state hash identically.
func fingerprint(c *engine.Cluster, clk *vclock.Sim) string {
	h := sha256.New()
	if c != nil {
		_, _ = h.Write([]byte(c.StateDigest()))
	}
	_, _ = h.Write([]byte(clk.PendingDigest()))
	_, _ = h.Write([]byte(clk.MailboxDigest()))
	return hex.EncodeToString(h.Sum(nil))
}

// visitKey extends the fingerprint with the sleep set: revisiting a
// state with a smaller sleep set must re-explore it (the classic
// sleep-sets-with-state-caching soundness condition), so states are
// cached per (fingerprint, sleep set).
func visitKey(fp string, sleep []sleeper) string {
	if len(sleep) == 0 {
		return fp
	}
	keys := make([]string, len(sleep))
	for i, s := range sleep {
		keys[i] = s.key
	}
	sort.Strings(keys)
	return fp + "\x00" + strings.Join(keys, "\x00")
}

// finishViolation shrinks the violating schedule and packages the
// counterexample.
func (e *explorer) finishViolation(v *simtest.Violation, schedule []int, r *simtest.RunResult) *Result {
	schedule = e.shrink(schedule, v.Invariant)
	ce := &simtest.Counterexample{
		Policy:    e.cfg.Policy.Name,
		Invariant: v.Invariant,
		Detail:    v.Detail,
		Schedule:  schedule,
		Scenario:  e.cfg.Scenario,
		Trace:     simtest.FormatTrace(r.Events),
	}
	return &Result{Stats: e.stats, Violation: v, Counterexample: ce}
}

// shrink greedily minimizes a violating schedule: each non-zero
// decision reverts to 0 (the unguided order) if the same invariant
// still fails, then trailing zeros are peeled off one at a time, each
// strip verified by replay. The strip needs verification because an
// explicit 0 and a past-the-end decision are not the same execution:
// an in-schedule 0 is a guided choice under frozen time, while running
// past the schedule uninstalls the chooser and lets time advance.
func (e *explorer) shrink(schedule []int, invariant string) []int {
	reproduces := func(s []int) bool {
		r := simtest.ReplaySchedule(e.cfg.Scenario, e.cfg.Policy, s)
		v := simtest.CheckTrace(e.cfg.Scenario, r)
		return v != nil && v.Invariant == invariant
	}
	out := append([]int(nil), schedule...)
	for i := range out {
		if out[i] == 0 {
			continue
		}
		saved := out[i]
		out[i] = 0
		if !reproduces(out) {
			out[i] = saved
		}
	}
	for len(out) > 0 && out[len(out)-1] == 0 && reproduces(out[:len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

// FormatStats renders the exploration statistics the CLI prints.
func FormatStats(s Stats) string {
	return fmt.Sprintf("runs=%d states=%d deduped=%d slept=%d decisions=%d max-depth=%d truncated=%d",
		s.Runs, s.States, s.Deduped, s.Slept, s.Decisions, s.MaxDepth, s.Truncated)
}
