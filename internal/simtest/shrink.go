package simtest

import (
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
	for i := range sc.Jobs {
		cand := sc.clone()
		cand.Jobs = append(cand.Jobs[:i:i], cand.Jobs[i+1:]...)
		if len(cand.Jobs) > 0 && sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Kills {
		cand := sc.clone()
		cand.Faults.Kills = append(cand.Faults.Kills[:i:i], cand.Faults.Kills[i+1:]...)
		if sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Partitions {
		cand := sc.clone()
		cand.Faults.Partitions = append(cand.Faults.Partitions[:i:i], cand.Faults.Partitions[i+1:]...)
		if sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Spikes {
		cand := sc.clone()
		cand.Faults.Spikes = append(cand.Faults.Spikes[:i:i], cand.Faults.Spikes[i+1:]...)
		if sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Shrinks {
		cand := sc.clone()
		cand.Faults.Shrinks = append(cand.Faults.Shrinks[:i:i], cand.Faults.Shrinks[i+1:]...)
		if sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Joins {
		cand := sc.clone()
		cand.Faults.Joins = append(cand.Faults.Joins[:i:i], cand.Faults.Joins[i+1:]...)
		if sameFailure(cand) {
			return cand
		}
	}
	for i := range sc.Faults.Drains {
		cand := sc.clone()
		cand.Faults.Drains = append(cand.Faults.Drains[:i:i], cand.Faults.Drains[i+1:]...)
		if sameFailure(cand) {
			return cand
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
