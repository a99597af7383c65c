package core

import "crossflow/internal/engine"

// Policy bundles the two halves of an allocation strategy so harnesses
// and binaries can select schedulers by name.
type Policy struct {
	// Name is the policy's identifier ("bidding", "baseline", …).
	Name string
	// NewAllocator builds a fresh master-side strategy for one run.
	NewAllocator func() engine.Allocator
	// NewAgent builds the matching worker-side agent for one worker.
	NewAgent func(st *engine.WorkerState) engine.Agent
	// Concurrent says NewAllocator and NewAgent may be called from
	// several goroutines at once, with runs of the policy overlapping:
	// internal/experiments then runs its (cell, seed) strands in
	// parallel, each building its own allocator and agents. The
	// built-ins are stateless constructors and set it. A policy that
	// leaves it unset — one closing over state of its own, like a
	// tracing decorator that counts runs — keeps the old contract: a
	// sweep it is part of runs back to back, one run at a time.
	Concurrent bool
}

// Policies returns all available policies in presentation order: the
// paper's contribution first, then its baseline, then the comparators.
func Policies() []Policy {
	ps := []Policy{
		{
			Name:         "bidding",
			NewAllocator: func() engine.Allocator { return NewBidding() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewBiddingAgent() },
		},
		{
			Name:         "baseline",
			NewAllocator: func() engine.Allocator { return NewBaseline() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewBaselineAgent() },
		},
		{
			Name:         "spark-like",
			NewAllocator: func() engine.Allocator { return NewSparkLike() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewPassiveAgent() },
		},
		{
			Name:         "bidding-fast",
			NewAllocator: func() engine.Allocator { return &BiddingAllocator{FastLocalClose: true} },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewBiddingAgent() },
		},
		{
			Name:         "bidding-topk",
			NewAllocator: func() engine.Allocator { return NewTopK() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewTopKAgent() },
		},
		{
			Name:         "matchmaking",
			NewAllocator: func() engine.Allocator { return NewMatchmaking() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewMatchmakingAgent() },
		},
		{
			Name:         "delay",
			NewAllocator: func() engine.Allocator { return NewDelay() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewMatchmakingAgent() },
		},
		{
			Name:         "random",
			NewAllocator: func() engine.Allocator { return NewRandom() },
			NewAgent:     func(*engine.WorkerState) engine.Agent { return NewPassiveAgent() },
		},
	}
	for i := range ps {
		ps[i].Concurrent = true
	}
	return ps
}

// PolicyByName resolves a policy.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, true
		}
	}
	return Policy{}, false
}
