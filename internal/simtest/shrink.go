package simtest

import (
	"slices"

	"crossflow/internal/core"
	"crossflow/internal/engine"
)

// Shrink greedily minimizes a failing scenario while preserving the
// original violation's (policy, invariant) signature: it repeatedly
// tries dropping one job, one fault, or one worker (with every fault
// addressed to it), keeping any reduction that still fails the same
// way, until no single removal reproduces. The result is typically a
// handful of jobs on one or two workers — small enough to read.
//
// Shrinking re-runs only the violating policy and skips the double-run
// determinism check unless determinism was the violated invariant.
func Shrink(sc *Scenario, v *Violation) *Scenario {
	opts := Options{SkipDeterminism: v.Invariant != "determinism"}
	for _, pol := range core.Policies() {
		if pol.Name == v.Policy {
			opts.Policies = []core.Policy{pol}
		}
	}

	sameFailure := func(cand *Scenario) bool {
		got := CheckScenario(cand, opts)
		return got != nil && got.Policy == v.Policy && got.Invariant == v.Invariant
	}

	cur := sc
	for {
		next := shrinkStep(cur, sameFailure)
		if next == nil {
			return cur
		}
		cur = next
	}
}

// shrinkStep returns the first single-removal reduction that still
// fails, or nil when the scenario is minimal.
func shrinkStep(sc *Scenario, sameFailure func(*Scenario) bool) *Scenario {
	for _, drop := range droppable {
		for i := 0; ; i++ {
			cand := sc.clone()
			if !drop(cand, i) {
				break
			}
			if sameFailure(cand) {
				return cand
			}
		}
	}
	if sc.Faults.DropProb > 0 {
		cand := sc.clone()
		cand.Faults.DropProb = 0
		if sameFailure(cand) {
			return cand
		}
	}
	if len(sc.Workers) > 1 {
		for i := range sc.Workers {
			cand := sc.dropWorker(i)
			if cand != nil && sameFailure(cand) {
				return cand
			}
		}
	}
	return nil
}

// droppable holds the scenario's lists in shrink order, jobs first:
// each entry removes element i of its list from s, reporting false
// when there is none. The last job is never dropped.
var droppable = []func(s *Scenario, i int) bool{
	func(s *Scenario, i int) bool { return len(s.Jobs) > 1 && dropAt(&s.Jobs, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Kills, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Partitions, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Spikes, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Shrinks, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Joins, i) },
	func(s *Scenario, i int) bool { return dropAt(&s.Faults.Drains, i) },
}

// dropAt removes element i of list, reporting false past its end.
func dropAt[T any](list *[]T, i int) bool {
	if i >= len(*list) {
		return false
	}
	*list = slices.Delete(*list, i, i+1)
	return true
}

// clone deep-copies the scenario's slices so candidate edits never
// alias the original.
func (sc *Scenario) clone() *Scenario {
	cp := *sc
	cp.Workers = append([]WorkerCfg(nil), sc.Workers...)
	cp.Jobs = append([]JobCfg(nil), sc.Jobs...)
	cp.Faults.Kills = append([]engine.Kill(nil), sc.Faults.Kills...)
	cp.Faults.Partitions = append([]engine.Partition(nil), sc.Faults.Partitions...)
	cp.Faults.Spikes = append([]DelaySpike(nil), sc.Faults.Spikes...)
	cp.Faults.Shrinks = append([]engine.CacheShrink(nil), sc.Faults.Shrinks...)
	cp.Faults.Joins = append([]JoinFault(nil), sc.Faults.Joins...)
	cp.Faults.Drains = append([]engine.Drain(nil), sc.Faults.Drains...)
	return &cp
}

// dropWorker removes worker i along with every fault addressed to it
// (a kill of a nonexistent worker is a config error, not a scenario).
func (sc *Scenario) dropWorker(i int) *Scenario {
	name := sc.Workers[i].Name
	cand := sc.clone()
	cand.Workers = append(cand.Workers[:i:i], cand.Workers[i+1:]...)

	kills := cand.Faults.Kills[:0]
	for _, k := range cand.Faults.Kills {
		if k.Worker != name {
			kills = append(kills, k)
		}
	}
	cand.Faults.Kills = kills

	parts := cand.Faults.Partitions[:0]
	for _, p := range cand.Faults.Partitions {
		if p.Node != name {
			parts = append(parts, p)
		}
	}
	cand.Faults.Partitions = parts

	shrinks := cand.Faults.Shrinks[:0]
	for _, s := range cand.Faults.Shrinks {
		if s.Worker != name {
			shrinks = append(shrinks, s)
		}
	}
	cand.Faults.Shrinks = shrinks

	drains := cand.Faults.Drains[:0]
	for _, d := range cand.Faults.Drains {
		if d.Worker != name {
			drains = append(drains, d)
		}
	}
	cand.Faults.Drains = drains

	// Kills and drains together must still leave one initial worker
	// untouched, matching the generator's well-formedness guarantee.
	gone := make(map[string]bool, len(cand.Faults.Kills)+len(cand.Faults.Drains))
	for _, k := range cand.Faults.Kills {
		gone[k.Worker] = true
	}
	for _, d := range cand.Faults.Drains {
		gone[d.Worker] = true
	}
	if len(gone) >= len(cand.Workers) {
		return nil
	}
	return cand
}
