package modelcheck

import (
	"fmt"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/simtest"
)

// Bounds selects the bounded configuration BoundedScenario builds.
type Bounds struct {
	// Workers is the initial fleet size (>= 1).
	Workers int
	// Jobs is the job-stream length (>= 1).
	Jobs int
	// Kill names a worker killed at time zero. Virtual time is frozen
	// during exploration, so "time zero" means the kill is enabled from
	// the first scheduling decision on — the checker explores its
	// arrival at every point of the protocol, including mid-contest.
	// Empty means no kill.
	Kill string
	// Drain names a worker gracefully drained at time zero (same
	// any-point semantics as Kill). Empty means no drain.
	Drain string
	// Join adds one fresh worker ("j0") joining at time zero.
	Join bool
	// Shards > 1 runs the bounded configuration on the sharded control
	// plane: that many contest shards behind the frontend router, with
	// jobs partitioned by content hash of their data key. 0 or 1 keeps
	// the classic single master. Sharding multiplies the interleaving
	// space, so keep the bounds small: the router writes forwards
	// straight into a part's inbox, but each part's settle notices and
	// its traffic with the workers are schedulable deliveries of their
	// own.
	Shards int
}

// BoundedScenario builds the canonical small configuration the checker
// explores: a fleet of deterministic workers with distinct speeds (so
// estimates never tie by accident), a burst of jobs over two data keys,
// no noise, no message loss, and unbounded caches. Every delivery has a
// positive link latency, which is what turns it into a schedulable
// event the chooser controls.
//
// For push policies the workers' heartbeat retries are disabled
// (Heartbeat < 0): registration is lossless here, and without the
// retry chain the protocol quiesces, making the state space finite.
// Pull policies need their heartbeat to make progress at all, so they
// keep one — their exploration must be depth-bounded (see
// UsesPullTimers).
func BoundedScenario(b Bounds, pol core.Policy) *simtest.Scenario {
	if b.Workers < 1 {
		b.Workers = 1
	}
	if b.Jobs < 1 {
		b.Jobs = 1
	}
	heartbeat := -time.Nanosecond
	if UsesPullTimers(pol) {
		heartbeat = 50 * time.Millisecond
	}
	sc := &simtest.Scenario{Seed: int64(b.Workers*100 + b.Jobs)}
	if b.Shards > 1 {
		sc.Shards = b.Shards
	}
	worker := func(name string, i int) simtest.WorkerCfg {
		return simtest.WorkerCfg{
			Name:      name,
			NetMBps:   40 + 10*float64(i),
			RWMBps:    160 + 20*float64(i),
			CacheMB:   -1, // unbounded: no eviction traffic in the bounded model
			Link:      time.Millisecond,
			Heartbeat: heartbeat,
			Seed:      sc.Seed*100 + int64(i) + 1,
		}
	}
	for i := 0; i < b.Workers; i++ {
		sc.Workers = append(sc.Workers, worker(fmt.Sprintf("w%d", i), i))
	}
	for j := 0; j < b.Jobs; j++ {
		sc.Jobs = append(sc.Jobs, simtest.JobCfg{
			ID:     fmt.Sprintf("job-%d", j),
			Key:    fmt.Sprintf("key-%d", j%2),
			SizeMB: 32,
		})
	}
	if b.Kill != "" {
		sc.Faults.Kills = append(sc.Faults.Kills, engine.Kill{Worker: b.Kill})
	}
	if b.Drain != "" {
		sc.Faults.Drains = append(sc.Faults.Drains, engine.Drain{Worker: b.Drain})
	}
	if b.Join {
		sc.Faults.Joins = append(sc.Faults.Joins, simtest.JoinFault{
			Worker: worker("j0", b.Workers),
		})
	}
	return sc
}

// UsesPullTimers reports whether the policy's worker agents re-arm pull
// timers. Their heartbeat chains never quiesce — each retry carries a
// growing strike count, so the states never converge — and exhaustive
// exploration is impossible: give these policies a depth bound.
func UsesPullTimers(pol core.Policy) bool {
	switch pol.Name {
	case "matchmaking", "delay":
		return true
	}
	return false
}
