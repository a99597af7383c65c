// Package simtest is crossflow's deterministic simulation-testing
// harness, in the style of FoundationDB's simulation framework: a
// seeded generator draws adversarial scenarios — random worker fleets,
// job streams, data-key distributions, and fault plans (worker kills,
// network partitions, broker delay spikes, message loss, cache
// shrink, mid-run worker joins, graceful drains) — and drives every
// allocation policy through engine.Run on
// the simulated clock. A library of invariant checkers then audits the
// allocation trace: jobs finish exactly once, redispatches follow
// deaths, assignments respect each policy's protocol, cache accounting
// balances, and same-seed re-runs are byte-identical.
//
// Everything is a pure function of the scenario seed, so any failure
// found by cmd/xflow-fuzz (or the native FuzzScenario harness) replays
// from its seed alone, and greedy shrinking reduces it to a minimal
// reproduction deterministically.
package simtest

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"crossflow/internal/engine"
)

// WorkerCfg describes one worker of a scenario fleet: its speed tiers,
// noise profile, storage, and protocol timings.
type WorkerCfg struct {
	Name      string
	NetMBps   float64
	RWMBps    float64
	NoiseAmp  float64
	CacheMB   float64 // <= 0 unbounded
	Link      time.Duration
	BidDelay  time.Duration
	Heartbeat time.Duration
	Seed      int64
}

// JobCfg describes one job of a scenario stream. Poison jobs fail
// deterministically when executed, exercising the failure path.
type JobCfg struct {
	ID     string
	Key    string
	SizeMB float64
	At     time.Duration
	Poison bool
}

// DelaySpike multiplies (and pads) broker delivery delays inside a
// window — the "messaging instance under load" fault.
type DelaySpike struct {
	At       time.Duration
	Duration time.Duration
	Factor   float64
	Extra    time.Duration
}

// JoinFault scales the fleet up mid-run: a fresh worker with its own
// speed/noise/storage profile registers At after the run starts
// (engine.Join) and competes for every job submitted afterwards.
type JoinFault struct {
	Worker WorkerCfg
	At     time.Duration
}

// FaultPlan is the adversarial half of a scenario.
type FaultPlan struct {
	Kills      []engine.Kill
	Partitions []engine.Partition
	Spikes     []DelaySpike
	Shrinks    []engine.CacheShrink
	Joins      []JoinFault
	Drains     []engine.Drain
	// DropProb is the per-delivery message-loss probability (0 = lossless).
	// Drops are decided by a deterministic hash of the envelope, never by
	// call order, so runs stay replayable.
	DropProb float64
	// DropSalt decorrelates the drop hash across scenarios.
	DropSalt int64
}

// Empty reports whether the plan injects no faults at all.
func (p FaultPlan) Empty() bool {
	return len(p.Kills) == 0 && len(p.Partitions) == 0 && len(p.Spikes) == 0 &&
		len(p.Shrinks) == 0 && len(p.Joins) == 0 && len(p.Drains) == 0 &&
		p.DropProb == 0
}

// Lossy reports whether the plan can silently lose protocol messages.
// Lossy scenarios are not required to complete — only to stay safe and
// to terminate within the deadline.
func (p FaultPlan) Lossy() bool {
	return p.DropProb > 0 || len(p.Partitions) > 0
}

// Scenario is one complete simulation-test case. It is fully determined
// by (seed, limits); see Generate.
type Scenario struct {
	Seed    int64
	Workers []WorkerCfg
	Jobs    []JobCfg
	Faults  FaultPlan
	// Shards > 1 runs the scenario over a sharded control plane with
	// that many content-hash-partitioned contest masters; 0 runs the
	// classic single master.
	Shards   int
	Deadline time.Duration
}

// Limits bound scenario generation. The zero value is not usable; use
// DefaultLimits or ShortLimits.
type Limits struct {
	MaxWorkers int
	MaxJobs    int
	MaxKeys    int
	MaxKills   int
	// BigFleetWorkers, when above MaxWorkers, lets a fraction of
	// scenarios draw a fleet of up to this many workers — the scale
	// regime the targeted-contest policy exists for, where broadcast
	// O(fleet) contests stop being tenable. Zero disables big fleets.
	BigFleetWorkers int
}

// DefaultLimits is the standard fuzzing envelope.
func DefaultLimits() Limits {
	return Limits{MaxWorkers: 5, MaxJobs: 30, MaxKeys: 8, MaxKills: 2, BigFleetWorkers: 200}
}

// ShortLimits is the CI envelope: smaller fleets and streams, same
// fault coverage.
func ShortLimits() Limits {
	return Limits{MaxWorkers: 4, MaxJobs: 14, MaxKeys: 5, MaxKills: 2, BigFleetWorkers: 64}
}

// minKillAt keeps kills clear of the registration handshake: in
// lossless scenarios every worker has registered (links are <= 100ms,
// heartbeats <= 800ms) well before the first kill can fire, so the
// redispatch invariant never races fleet formation.
const minKillAt = 2 * time.Second

// Generate draws the scenario for a seed. Identical (seed, limits)
// always produce the identical scenario — the property replay and
// shrinking rest on.
func Generate(seed int64, lim Limits) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &Scenario{Seed: seed}

	// Fleet: 1..MaxWorkers workers with independent speed/noise/storage.
	// Roughly one scenario in six instead draws a big fleet (up to
	// BigFleetWorkers), so the invariants also run against the scale
	// regime that targeted contests exist for.
	nWorkers := 1 + rng.Intn(lim.MaxWorkers)
	if lim.BigFleetWorkers > lim.MaxWorkers && rng.Intn(6) == 0 {
		nWorkers = lim.MaxWorkers + 1 + rng.Intn(lim.BigFleetWorkers-lim.MaxWorkers)
	}
	maxJobMB := 0.0
	for i := 0; i < nWorkers; i++ {
		w := WorkerCfg{
			Name:      fmt.Sprintf("w%d", i),
			NetMBps:   2 + rng.Float64()*48,
			RWMBps:    10 + rng.Float64()*190,
			Link:      time.Duration(rng.Intn(101)) * time.Millisecond,
			BidDelay:  time.Duration(rng.Intn(51)) * time.Millisecond,
			Heartbeat: time.Duration(100+rng.Intn(701)) * time.Millisecond,
			Seed:      seed*1000 + int64(i) + 1,
		}
		if rng.Intn(2) == 0 {
			w.NoiseAmp = rng.Float64() * 0.3
		}
		switch rng.Intn(3) {
		case 0:
			w.CacheMB = -1 // unbounded
		case 1:
			w.CacheMB = 500 + rng.Float64()*4500 // roomy
		default:
			w.CacheMB = 50 + rng.Float64()*450 // eviction pressure
		}
		sc.Workers = append(sc.Workers, w)
	}

	// Job stream: sizes, a key distribution with an optional hot key,
	// exponential-ish arrival gaps, and the occasional poison job.
	nJobs := 1 + rng.Intn(lim.MaxJobs)
	nKeys := 1 + rng.Intn(lim.MaxKeys)
	hot := rng.Intn(2) == 0 // half the scenarios have a hot key
	poisonProb := 0.0
	if rng.Intn(10) == 0 {
		poisonProb = 0.15
	}
	var at time.Duration
	keySizes := make(map[string]float64, nKeys)
	for i := 0; i < nJobs; i++ {
		k := rng.Intn(nKeys)
		if hot && rng.Float64() < 0.5 {
			k = 0
		}
		key := fmt.Sprintf("key-%d", k)
		size, ok := keySizes[key]
		if !ok {
			size = 5 + rng.Float64()*395
			keySizes[key] = size
		}
		if size > maxJobMB {
			maxJobMB = size
		}
		j := JobCfg{
			ID:     fmt.Sprintf("job-%03d", i),
			Key:    key,
			SizeMB: size,
			At:     at,
		}
		if rng.Float64() < poisonProb {
			j.ID = fmt.Sprintf("poison-%03d", i)
			j.Poison = true
		}
		at += time.Duration(rng.ExpFloat64() * float64(2*time.Second))
		sc.Jobs = append(sc.Jobs, j)
	}

	// Fault plan: roughly half the scenarios run fault-free (pure
	// conservation/determinism cases); the rest draw from the menu.
	if rng.Intn(2) == 1 {
		sc.Faults = genFaults(rng, sc, lim)
	}

	// Sharded control plane: one scenario in four runs over 2–4 contest
	// shards, and half of those also partition one or two shard
	// endpoints (shard kill ≈ a never-healing shard partition: the rest
	// of the plane must keep making progress on its own partitions).
	// These draws come after the whole fault plan so every historical
	// seed still generates its exact pre-shard scenario.
	if rng.Intn(4) == 0 {
		sc.Shards = 2 + rng.Intn(3)
		if rng.Intn(2) == 0 {
			span := sc.Jobs[len(sc.Jobs)-1].At
			n := 1 + rng.Intn(2)
			for i := 0; i < n; i++ {
				pt := engine.Partition{
					Node:     engine.ShardName(rng.Intn(sc.Shards)),
					At:       minKillAt + time.Duration(rng.Int63n(int64(span+10*time.Second))),
					Duration: time.Duration(1+rng.Intn(30)) * time.Second,
				}
				if rng.Intn(8) == 0 {
					pt.Duration = 0 // the shard never comes back
				}
				sc.Faults.Partitions = append(sc.Faults.Partitions, pt)
			}
		}
	}

	sc.Deadline = deadlineFor(sc)
	return sc
}

// genFaults draws the adversarial plan. Every choice consumes rng in a
// fixed order, so the plan is part of the seed's deterministic output.
func genFaults(rng *rand.Rand, sc *Scenario, lim Limits) FaultPlan {
	var p FaultPlan
	span := sc.Jobs[len(sc.Jobs)-1].At

	// Kills: at most MaxKills, always leaving at least one survivor,
	// each no earlier than minKillAt.
	maxKills := lim.MaxKills
	if maxKills > len(sc.Workers)-1 {
		maxKills = len(sc.Workers) - 1
	}
	if maxKills > 0 {
		nKills := rng.Intn(maxKills + 1)
		perm := rng.Perm(len(sc.Workers))
		for i := 0; i < nKills; i++ {
			p.Kills = append(p.Kills, engine.Kill{
				Worker: sc.Workers[perm[i]].Name,
				At:     minKillAt + time.Duration(rng.Int63n(int64(span+30*time.Second))),
			})
		}
	}

	// Delay spikes: the broker slows down for a window.
	if rng.Intn(3) == 0 {
		p.Spikes = append(p.Spikes, DelaySpike{
			At:       time.Duration(rng.Int63n(int64(span + time.Second))),
			Duration: time.Duration(1+rng.Intn(30)) * time.Second,
			Factor:   2 + rng.Float64()*18,
			Extra:    time.Duration(rng.Intn(500)) * time.Millisecond,
		})
	}

	// Cache shrink: a worker's disk loses space mid-run.
	if rng.Intn(3) == 0 {
		w := sc.Workers[rng.Intn(len(sc.Workers))]
		p.Shrinks = append(p.Shrinks, engine.CacheShrink{
			Worker:     w.Name,
			At:         time.Duration(rng.Int63n(int64(span + 10*time.Second))),
			CapacityMB: 10 + rng.Float64()*190,
		})
	}

	// Lossy faults: partitions and probabilistic message drops. These
	// may prevent completion; the deadline bounds the damage.
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			node := sc.Workers[rng.Intn(len(sc.Workers))].Name
			if rng.Intn(8) == 0 {
				node = engine.MasterName
			}
			pt := engine.Partition{
				Node:     node,
				At:       time.Duration(rng.Int63n(int64(span + 10*time.Second))),
				Duration: time.Duration(1+rng.Intn(30)) * time.Second,
			}
			if rng.Intn(10) == 0 {
				pt.Duration = 0 // never heals
			}
			p.Partitions = append(p.Partitions, pt)
		}
	}
	if rng.Intn(4) == 0 {
		p.DropProb = 0.02 + rng.Float64()*0.18
		p.DropSalt = rng.Int63()
	}

	// Elastic faults. These draws come after every pre-elastic draw so
	// every older seed still generates the identical pre-elastic plan.
	//
	// Joins: one or two fresh workers register mid-run, each with an
	// independently drawn profile, and must win contests like anyone else.
	if rng.Intn(3) == 0 {
		n := 1 + rng.Intn(2)
		for i := 0; i < n; i++ {
			w := WorkerCfg{
				Name:      fmt.Sprintf("j%d", i),
				NetMBps:   2 + rng.Float64()*48,
				RWMBps:    10 + rng.Float64()*190,
				Link:      time.Duration(rng.Intn(101)) * time.Millisecond,
				BidDelay:  time.Duration(rng.Intn(51)) * time.Millisecond,
				Heartbeat: time.Duration(100+rng.Intn(701)) * time.Millisecond,
				Seed:      sc.Seed*1000 + 500 + int64(i),
			}
			if rng.Intn(2) == 0 {
				w.NoiseAmp = rng.Float64() * 0.3
			}
			switch rng.Intn(3) {
			case 0:
				w.CacheMB = -1
			case 1:
				w.CacheMB = 500 + rng.Float64()*4500
			default:
				w.CacheMB = 50 + rng.Float64()*450
			}
			p.Joins = append(p.Joins, JoinFault{
				Worker: w,
				At:     time.Duration(rng.Int63n(int64(span + 20*time.Second))),
			})
		}
	}

	// Drains: a graceful scale-down of an initial worker that is not
	// also killed, always leaving at least one initial worker neither
	// killed nor drained. A drain must lose no work, so unlike kills it
	// stays in fault-free-completion scenarios' safe set.
	if rng.Intn(3) == 0 {
		killed := make(map[string]bool, len(p.Kills))
		for _, k := range p.Kills {
			killed[k.Worker] = true
		}
		var candidates []string
		for _, w := range sc.Workers {
			if !killed[w.Name] {
				candidates = append(candidates, w.Name)
			}
		}
		if len(candidates) > 1 {
			n := 1 + rng.Intn(len(candidates)-1)
			if n > 2 {
				n = 2
			}
			perm := rng.Perm(len(candidates))
			for i := 0; i < n; i++ {
				p.Drains = append(p.Drains, engine.Drain{
					Worker: candidates[perm[i]],
					At:     minKillAt + time.Duration(rng.Int63n(int64(span+30*time.Second))),
				})
			}
		}
	}
	return p
}

// deadlineFor computes a generous completion bound: even the slowest
// worker executing every job serially, with every delay spike and a
// wide safety factor, finishes well inside it. Reaching the deadline
// therefore signals a liveness failure (or an accepted lossy stall),
// never an honestly slow run.
func deadlineFor(sc *Scenario) time.Duration {
	minNet, minRW := sc.Workers[0].NetMBps, sc.Workers[0].RWMBps
	speeds := make([]WorkerCfg, 0, len(sc.Workers)+len(sc.Faults.Joins))
	speeds = append(speeds, sc.Workers...)
	for _, j := range sc.Faults.Joins {
		speeds = append(speeds, j.Worker)
	}
	for _, w := range speeds {
		if w.NetMBps < minNet {
			minNet = w.NetMBps
		}
		if w.RWMBps < minRW {
			minRW = w.RWMBps
		}
	}
	var workMB float64
	var span time.Duration
	for _, j := range sc.Jobs {
		workMB += j.SizeMB
		if j.At > span {
			span = j.At
		}
	}
	serial := time.Duration((workMB/minNet + workMB/minRW) * float64(time.Second))
	d := span + 10*serial + 2*time.Minute
	for _, sp := range sc.Faults.Spikes {
		d += time.Duration(sp.Factor * float64(sp.Duration))
	}
	return d
}

// Arrivals materializes the job stream for one engine run. Jobs are
// freshly cloned each call: the engine mutates nothing in a Job, but
// records alias them and two runs must never share pointers.
func (sc *Scenario) Arrivals() []engine.Arrival {
	out := make([]engine.Arrival, 0, len(sc.Jobs))
	for _, j := range sc.Jobs {
		out = append(out, engine.Arrival{
			At: j.At,
			Job: &engine.Job{
				ID:         j.ID,
				Stream:     scenarioStream,
				DataKey:    j.Key,
				DataSizeMB: j.SizeMB,
			},
		})
	}
	return out
}

// BuildWorkers materializes a fresh fleet (cold caches, zeroed link
// accounting) for one engine run.
func (sc *Scenario) BuildWorkers() []*engine.WorkerState {
	states := make([]*engine.WorkerState, 0, len(sc.Workers))
	for _, w := range sc.Workers {
		states = append(states, buildWorker(w))
	}
	return states
}

// BuildJoins materializes the plan's mid-run joiners for one engine
// run, freshly like BuildWorkers so two runs never share state.
func (sc *Scenario) BuildJoins() []engine.Join {
	joins := make([]engine.Join, 0, len(sc.Faults.Joins))
	for _, j := range sc.Faults.Joins {
		joins = append(joins, engine.Join{State: buildWorker(j.Worker), At: j.At})
	}
	return joins
}

func buildWorker(w WorkerCfg) *engine.WorkerState {
	return engine.NewWorkerState(engine.WorkerSpec{
		Name:      w.Name,
		Net:       speed(w.NetMBps, w.NoiseAmp),
		RW:        speed(w.RWMBps, w.NoiseAmp),
		CacheMB:   w.CacheMB,
		Link:      w.Link,
		BidDelay:  w.BidDelay,
		Heartbeat: w.Heartbeat,
		Seed:      w.Seed,
	}, nil)
}

// String renders the scenario as a readable spec — what xflow-fuzz
// prints for a failing (or shrunk) case.
func (sc *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario seed=%d: %d workers, %d jobs, deadline %v\n",
		sc.Seed, len(sc.Workers), len(sc.Jobs), sc.Deadline)
	if sc.Shards > 1 {
		fmt.Fprintf(&b, "  control plane: %d contest shards\n", sc.Shards)
	}
	for _, w := range sc.Workers {
		fmt.Fprintf(&b, "  worker %-4s net=%.1fMB/s rw=%.1fMB/s noise=%.2f cache=%.0fMB link=%v bid=%v hb=%v\n",
			w.Name, w.NetMBps, w.RWMBps, w.NoiseAmp, w.CacheMB, w.Link, w.BidDelay, w.Heartbeat)
	}
	for _, j := range sc.Jobs {
		fmt.Fprintf(&b, "  job %-12s key=%-8s size=%.0fMB at=%v poison=%v\n",
			j.ID, j.Key, j.SizeMB, j.At, j.Poison)
	}
	for _, k := range sc.Faults.Kills {
		fmt.Fprintf(&b, "  fault kill %s at=%v\n", k.Worker, k.At)
	}
	for _, pt := range sc.Faults.Partitions {
		fmt.Fprintf(&b, "  fault partition %s at=%v for=%v\n", pt.Node, pt.At, pt.Duration)
	}
	for _, sp := range sc.Faults.Spikes {
		fmt.Fprintf(&b, "  fault delay-spike at=%v for=%v x%.1f +%v\n", sp.At, sp.Duration, sp.Factor, sp.Extra)
	}
	for _, sh := range sc.Faults.Shrinks {
		fmt.Fprintf(&b, "  fault cache-shrink %s at=%v to=%.0fMB\n", sh.Worker, sh.At, sh.CapacityMB)
	}
	for _, j := range sc.Faults.Joins {
		w := j.Worker
		fmt.Fprintf(&b, "  fault join %-4s at=%v net=%.1fMB/s rw=%.1fMB/s noise=%.2f cache=%.0fMB link=%v bid=%v hb=%v\n",
			w.Name, j.At, w.NetMBps, w.RWMBps, w.NoiseAmp, w.CacheMB, w.Link, w.BidDelay, w.Heartbeat)
	}
	for _, d := range sc.Faults.Drains {
		fmt.Fprintf(&b, "  fault drain %s at=%v\n", d.Worker, d.At)
	}
	if sc.Faults.DropProb > 0 {
		fmt.Fprintf(&b, "  fault drops p=%.3f salt=%d\n", sc.Faults.DropProb, sc.Faults.DropSalt)
	}
	return b.String()
}
