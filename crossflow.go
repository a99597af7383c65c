// Package crossflow is a distributed, data-locality-aware stream
// processing engine with pluggable job-allocation policies. It
// reimplements the system of "Distributed Data Locality-Aware Job
// Allocation" (Markovic, Kolovos, Indrusiak — SC 2023): a Crossflow-like
// master/worker engine with opinionated worker nodes, and the paper's
// Bidding Scheduler, in which workers bid for each incoming job with an
// estimate of when they can complete it and the master awards the job to
// the lowest bidder.
//
// # Quick start
//
//	wf := crossflow.NewWorkflow("demo")
//	wf.MustAddTask(crossflow.TaskSpec{Name: "analyze", Input: "jobs"})
//
//	workers := []*crossflow.Worker{
//		crossflow.NewWorker(crossflow.WorkerSpec{
//			Name: "w0",
//			Net:  crossflow.Speed{BaseMBps: 25},
//			RW:   crossflow.Speed{BaseMBps: 100},
//		}),
//		// ...
//	}
//
//	report, err := crossflow.Run(crossflow.Config{
//		Workers:   workers,
//		Scheduler: crossflow.Bidding(),
//		Workflow:  wf,
//		Arrivals:  arrivals,
//	})
//
// Runs execute on a discrete-event simulated clock by default — a
// workflow that takes an hour of engine time finishes in milliseconds of
// wall time — or on a (optionally compressed) real-time clock, and the
// same engine deploys as separate OS processes over TCP with the
// cmd/xflow-broker, cmd/xflow-master and cmd/xflow-worker binaries.
// There is one way a workflow runs: as a session on a long-lived
// cluster plane, opened once the fleet has formed, fed a job stream,
// and closed. Run is that with one session and a stop behind it, so the
// simulator, the fuzzer and the model checker exercise the session
// lifecycle the TCP deployment runs.
//
// Available schedulers: Bidding (the paper's contribution), BiddingTopK
// (the scalable variant: contests target a small index-planned candidate
// set instead of the whole fleet), Baseline (Crossflow's original
// opinionated pull), SparkLike (the centralized comparator), Matchmaking,
// and Random.
package crossflow

import (
	"errors"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/gitsim"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// Core engine types, re-exported for the public API.
type (
	// Job is one schedulable unit of work: a payload plus the data
	// resource it needs locally.
	Job = engine.Job
	// Arrival schedules a job's injection into the workflow.
	Arrival = engine.Arrival
	// Workflow is a task graph connected by named streams.
	Workflow = engine.Workflow
	// TaskSpec declares one task of a workflow.
	TaskSpec = engine.TaskSpec
	// TaskContext gives task bodies access to worker facilities.
	TaskContext = engine.TaskContext
	// WorkerSpec configures a worker node.
	WorkerSpec = engine.WorkerSpec
	// Worker is a worker node's persistent state (cache, link, learned
	// cost model); it survives across runs so caches stay warm.
	Worker = engine.WorkerState
	// Report aggregates one run's outcome, including the paper's three
	// metrics: makespan, data load, cache misses.
	Report = engine.Report
	// Kill schedules a worker crash for fault-injection experiments.
	Kill = engine.Kill
	// Speed describes one performance channel of a node in MB/s.
	Speed = netsim.Speed
	// CostModel estimates job costs for bid computation.
	CostModel = engine.CostModel
	// Hub is the synthetic repository service used by MSR-style tasks.
	Hub = gitsim.Hub
	// Repo is one synthetic repository.
	Repo = gitsim.Repo
	// Filter selects repositories in Hub searches.
	Filter = gitsim.Filter
	// Clock abstracts time; see NewSimClock and NewRealClock.
	Clock = vclock.Clock
	// TraceLog records per-job allocation events for a run.
	TraceLog = engine.TraceLog
	// TraceEvent is one entry in a TraceLog.
	TraceEvent = engine.TraceEvent
)

// NewTraceLog returns an empty allocation trace to pass as Config.Trace.
func NewTraceLog() *TraceLog { return engine.NewTraceLog() }

// Scheduler bundles a master-side allocator with its worker-side agent.
type Scheduler = core.Policy

// Bidding returns the paper's distributed locality-aware scheduler:
// workers bid their estimated completion time (current workload + data
// transfer + processing) and the master awards each job to the lowest
// bidder within a one-second window.
func Bidding() Scheduler { s, _ := core.PolicyByName("bidding"); return s }

// Baseline returns Crossflow's original opinionated scheduling: workers
// pull jobs and may reject a job once when its data is not local.
func Baseline() Scheduler { s, _ := core.PolicyByName("baseline"); return s }

// SparkLike returns the centralized comparator: up-front, equal-share
// allocation that ignores runtime locality and worker differences.
func SparkLike() Scheduler { s, _ := core.PolicyByName("spark-like"); return s }

// BiddingFast returns the Bidding scheduler with the local-bid fast
// path: a contest closes as soon as a data-local bid arrives, reducing
// the bidding overhead for highly local jobs (the paper's future-work
// item).
func BiddingFast() Scheduler { s, _ := core.PolicyByName("bidding-fast"); return s }

// BiddingTopK returns the scalable Bidding variant for large fleets:
// the master maintains an eventually-consistent data-location index and
// a per-worker load sketch, and each contest targets only the few
// workers believed to hold the job's data plus a power-of-two-choices
// sample of lightly-loaded nodes — O(K) contest messages per job
// instead of O(fleet), with a broadcast fallback so no job starves on a
// stale index.
func BiddingTopK() Scheduler { s, _ := core.PolicyByName("bidding-topk"); return s }

// Matchmaking returns the locality-aware pull scheduler of He et al.:
// idle workers request jobs matching their cached data and accept any
// job on their second consecutive empty heartbeat.
func Matchmaking() Scheduler { s, _ := core.PolicyByName("matchmaking"); return s }

// Delay returns the delay-scheduling policy of Zaharia et al.: jobs wait
// a bounded number of scheduling opportunities for a data-local worker
// before launching anywhere.
func Delay() Scheduler { s, _ := core.PolicyByName("delay"); return s }

// Random returns the uniformly random allocator (ablation floor).
func Random() Scheduler { s, _ := core.PolicyByName("random"); return s }

// Schedulers returns every available scheduler.
func Schedulers() []Scheduler { return core.Policies() }

// SchedulerByName resolves a scheduler by name.
func SchedulerByName(name string) (Scheduler, bool) { return core.PolicyByName(name) }

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow { return engine.NewWorkflow(name) }

// NewWorker builds a worker node with the default perfect-knowledge cost
// model (estimates from nominal speeds).
func NewWorker(spec WorkerSpec) *Worker { return engine.NewWorkerState(spec, nil) }

// NewWorkerWithCosts builds a worker with a custom cost model, e.g. the
// learning model returned by LearningCosts.
func NewWorkerWithCosts(spec WorkerSpec, costs CostModel) *Worker {
	return engine.NewWorkerState(spec, costs)
}

// LearningCosts returns the historic-average cost model of the paper's
// live experiments, primed with probed speeds.
func LearningCosts(probeNetMBps, probeRWMBps float64) CostModel {
	return core.NewLearningCosts(probeNetMBps, probeRWMBps)
}

// CalibratedCosts wraps a cost model with bid-history calibration:
// estimates are corrected by the observed actual/estimated ratio (EWMA
// with weight alpha; pass 0 for the default 0.2) — the paper's
// future-work item on learning from completed work to adjust bids.
func CalibratedCosts(inner CostModel, alpha float64) CostModel {
	return core.NewCalibratingCosts(inner, alpha)
}

// StaticCosts returns the perfect-knowledge cost model over nominal
// speeds, useful as the inner model for CalibratedCosts.
func StaticCosts(netMBps, rwMBps float64) CostModel {
	return engine.StaticCosts{NetMBps: netMBps, RWMBps: rwMBps}
}

// NewHub builds a synthetic repository service: n repositories generated
// deterministically from seed, answering searches after apiLatency.
// Class strings: "small", "medium", "large", "mixed", "huge-live".
func NewHub(n int, class string, seed int64, apiLatency time.Duration) *Hub {
	c := gitsim.Mixed
	for _, k := range []gitsim.SizeClass{gitsim.Small, gitsim.Medium, gitsim.Large,
		gitsim.Mixed, gitsim.HugeLive} {
		if k.String() == class {
			c = k
		}
	}
	return gitsim.NewHub(gitsim.GenerateCatalog(n, c, seed), apiLatency)
}

// NewSimClock returns a discrete-event simulated clock: engine time
// advances instantly whenever every node is blocked, so long workflows
// run in milliseconds and repeat deterministically under seeded noise.
func NewSimClock() Clock { return vclock.NewSim() }

// NewRealClock returns a wall-time clock compressed by scale (1 = real
// time); used when the engine drives live processes.
func NewRealClock(scale float64) Clock { return vclock.NewScaledReal(scale) }

// Config describes one workflow run.
type Config struct {
	// Workers is the fleet; worker state persists across runs.
	Workers []*Worker
	// Scheduler is the allocation policy (see Bidding, Baseline, …).
	Scheduler Scheduler
	// Shards > 1 partitions the control plane into that many contest
	// shards keyed by content hash of each job's data key; every shard
	// runs its own instance of the Scheduler's allocator over its
	// partition. 0 or 1 runs the classic single master.
	Shards int
	// Workflow is the task graph.
	Workflow *Workflow
	// Arrivals is the input job stream.
	Arrivals []Arrival
	// Hub optionally serves repository searches to task bodies.
	Hub *Hub
	// Clock selects the time source; nil uses a fresh simulated clock.
	Clock Clock
	// Seed drives the master's randomness (arbitrary-assignment
	// fallback).
	Seed int64
	// MasterLink is the master's one-way broker latency.
	MasterLink time.Duration
	// Kills schedules worker crashes.
	Kills []Kill
	// Trace, when non-nil, records every allocation event.
	Trace *TraceLog
}

// Run executes one workflow to completion and returns its report.
func Run(cfg Config) (*Report, error) {
	if cfg.Scheduler.NewAllocator == nil || cfg.Scheduler.NewAgent == nil {
		return nil, errors.New("crossflow: Config.Scheduler must be one of the provided schedulers")
	}
	ecfg := engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Clock:        cfg.Clock,
			Workers:      cfg.Workers,
			Shards:       cfg.Shards,
			NewAllocator: cfg.Scheduler.NewAllocator,
			NewAgent:     cfg.Scheduler.NewAgent,
			Hub:          cfg.Hub,
			MasterLink:   cfg.MasterLink,
			Seed:         cfg.Seed,
		},
		Workflow: cfg.Workflow,
		Arrivals: cfg.Arrivals,
		Kills:    cfg.Kills,
	}
	if cfg.Trace != nil {
		ecfg.Tracer = cfg.Trace
	}
	return engine.Run(ecfg)
}
