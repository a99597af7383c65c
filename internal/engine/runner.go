package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/gitsim"
	"crossflow/internal/vclock"
)

// Kill schedules a worker crash for fault-injection experiments: At
// after the workflow starts the worker drops off the broker and the
// master is told, re-dispatching its unfinished jobs.
type Kill struct {
	Worker string
	At     time.Duration
}

// Config describes one workflow run.
type Config struct {
	// Clock is the time source; nil defaults to a fresh simulated clock.
	Clock vclock.Clock
	// Workers is the cluster. WorkerStates persist across runs, so the
	// harness can execute warm-cache iterations.
	Workers []*WorkerState
	// Allocator is the master-side policy. Ignored when Shards > 1 —
	// every contest shard then builds its own instance via NewAllocator.
	Allocator Allocator
	// Shards > 1 shards the control plane by content hash of job data
	// keys (see ClusterConfig.Shards). 0 or 1 runs the classic single
	// master, bit-compatible with historical runs.
	Shards int
	// NewAllocator builds one allocator per contest shard; required when
	// Shards > 1, ignored otherwise.
	NewAllocator func() Allocator
	// NewAgent builds the matching worker-side policy per node.
	NewAgent func(st *WorkerState) Agent
	// Workflow is the task graph.
	Workflow *Workflow
	// Arrivals is the input job stream.
	Arrivals []Arrival
	// Hub optionally provides the synthetic GitHub to task bodies.
	Hub *gitsim.Hub
	// MasterLink is the master's one-way broker latency.
	MasterLink time.Duration
	// Seed seeds the master's random source.
	Seed int64
	// Rand, when non-nil, supplies the master's random source directly
	// and takes precedence over Seed — for harnesses that thread one
	// seeded generator through a whole experiment.
	Rand *rand.Rand
	// Kills schedules worker crashes (fault-injection experiments).
	Kills []Kill
	// Partitions schedules temporary endpoint disconnects.
	Partitions []Partition
	// CacheShrinks schedules mid-run worker cache capacity changes.
	CacheShrinks []CacheShrink
	// Joins schedules workers entering the fleet mid-run (elastic
	// scale-up). Joiners run the configured Workflow and appear in the
	// report's Workers after the configured fleet, in schedule order.
	Joins []Join
	// Drains schedules graceful departures (elastic scale-down): the
	// worker finishes its queued jobs, then leaves without losing work.
	Drains []Drain
	// DelayFunc overrides the broker's delivery-delay model (latency
	// spikes, asymmetric links). Nil keeps the default link-sum model.
	DelayFunc broker.DelayFunc
	// DropFunc installs a broker delivery-loss model. Implementations
	// must be deterministic (see broker.DropFunc).
	DropFunc broker.DropFunc
	// Probe, when non-nil, receives the assembled Cluster after
	// construction and before anything starts running. The model checker
	// uses it to capture the cluster for state fingerprinting; tests can
	// use it to reach nodes a run otherwise hides.
	Probe func(*Cluster)
	// Deadline bounds the run in simulated time: if the workflow has not
	// completed Deadline after the run starts, the master aborts, every
	// worker is force-stopped, and Run returns the partial report with
	// ErrDeadlineExceeded. Zero means no bound. Any run with a lossy
	// fault plan (Partitions, DropFunc) should set it — a lost message
	// that nothing retries would otherwise starve the master's
	// termination detection forever.
	Deadline time.Duration
	// Tracer, when non-nil, receives every allocation event.
	Tracer Tracer
}

// Run executes one workflow to completion and returns its report: one
// session on a Cluster — opened once the fleet has formed, fed the
// arrival stream as clock events, waited for, and followed by Stop —
// with the fault plan (including elastic Joins and Drains) scheduled
// around it.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("engine: no workers configured")
	}
	if cfg.Workflow == nil {
		return nil, errors.New("engine: no workflow configured")
	}
	c, err := NewCluster(ClusterConfig{
		Clock:        cfg.Clock,
		Workers:      cfg.Workers,
		Allocator:    cfg.Allocator,
		Shards:       cfg.Shards,
		NewAllocator: cfg.NewAllocator,
		NewAgent:     cfg.NewAgent,
		Hub:          cfg.Hub,
		MasterLink:   cfg.MasterLink,
		Seed:         cfg.Seed,
		Rand:         cfg.Rand,
		DelayFunc:    cfg.DelayFunc,
		DropFunc:     cfg.DropFunc,
		Tracer:       cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	clk, plane := c.clk, c.plane
	if cfg.Probe != nil {
		cfg.Probe(c)
	}
	// afterFunc labels fault-plan timers when a model-checking chooser is
	// active. Each fault gets its own serialization class, so it stays an
	// independently enabled event the checker can fire at any point of
	// the protocol — in the shared local-timer class it would be queued
	// behind (or ahead of) ordinary timers in deadline order and most
	// interleavings would be unreachable. Faults mutate both a worker and
	// the master, so they conflict with everything (empty Node).
	labeled := vclock.ActiveLabeled(clk)
	afterFunc := func(d time.Duration, detail string, f func()) {
		if labeled != nil {
			labeled.AfterFuncLabeled(d, vclock.EventLabel{Class: "fault " + detail, Detail: detail}, f)
			return
		}
		clk.AfterFunc(d, f)
	}

	for _, k := range cfg.Kills {
		w := c.worker(k.Worker)
		if w == nil {
			return nil, fmt.Errorf("engine: kill schedules unknown worker %q", k.Worker)
		}
		k, w := k, w
		afterFunc(k.At, "kill "+k.Worker, func() {
			w.kill()
			plane.Inject(MsgWorkerDead{Worker: k.Worker})
		})
	}
	for _, p := range cfg.Partitions {
		ep, ok := c.bus.Lookup(p.Node)
		if !ok {
			return nil, fmt.Errorf("engine: partition schedules unknown node %q", p.Node)
		}
		p := p
		clk.AfterFunc(p.At, ep.Disconnect)
		if p.Duration > 0 {
			clk.AfterFunc(p.At+p.Duration, ep.Reconnect)
		}
	}
	for _, cs := range cfg.CacheShrinks {
		w := c.worker(cs.Worker)
		if w == nil {
			return nil, fmt.Errorf("engine: cache shrink schedules unknown worker %q", cs.Worker)
		}
		cs, w := cs, w
		clk.AfterFunc(cs.At, func() { w.cache.SetCapacity(cs.CapacityMB) })
	}

	// Elastic fleet changes. Joiners are validated up front (fresh,
	// non-colliding names) but enter through Cluster.Join at fire time —
	// the same registration path a live deployment's newcomer takes.
	names := make(map[string]bool, len(cfg.Workers)+len(cfg.Joins))
	for _, st := range cfg.Workers {
		names[st.Spec.Name] = true
	}
	type joinRuntime struct {
		st     *WorkerState
		before workerSnapshot
		w      *Worker // nil until the join fires (or never, past deadline)
	}
	joiners := make([]*joinRuntime, 0, len(cfg.Joins))
	for _, j := range cfg.Joins {
		if j.State == nil {
			return nil, errors.New("engine: nil worker state")
		}
		name := j.State.Spec.Name
		if names[name] {
			return nil, fmt.Errorf("engine: join duplicates worker %q", name)
		}
		names[name] = true
		jr := &joinRuntime{st: j.State, before: snapshotWorker(j.State)}
		joiners = append(joiners, jr)
		if cfg.Deadline > 0 && j.At >= cfg.Deadline {
			continue // would join an already-aborted run
		}
		j, jr := j, jr
		afterFunc(j.At, "join "+name, func() {
			w, err := c.Join(j.State)
			if err != nil {
				return
			}
			jr.w = w
			if cfg.Deadline > 0 {
				// Fires at the shared deadline instant, after the master's
				// abort (whose timer was scheduled first).
				clk.AfterFunc(cfg.Deadline-j.At, w.kill)
			}
		})
	}
	for _, d := range cfg.Drains {
		if !names[d.Worker] {
			return nil, fmt.Errorf("engine: drain schedules unknown worker %q", d.Worker)
		}
		d := d
		afterFunc(d.At, "drain "+d.Worker, func() {
			plane.Inject(msgDrainStart{worker: d.Worker, ack: nil})
		})
	}

	if cfg.Deadline > 0 {
		// The master aborts first (its timer was scheduled first, so it
		// fires first at the shared deadline instant), then every worker
		// is force-stopped; a worker mid-execution drains its queue and
		// exits. Without the force-stop, a worker whose registration or
		// stop signal was lost would heartbeat forever and the simulation
		// would never go idle.
		clk.AfterFunc(cfg.Deadline, func() { plane.Inject(msgAbort{}) })
		for _, st := range cfg.Workers {
			w := c.worker(st.Spec.Name)
			clk.AfterFunc(cfg.Deadline, w.kill)
		}
	}

	// A lost message can leave every goroutine parked with no pending
	// timer; turn that into a clean error instead of a panic. The
	// handler records what was blocked for the error message.
	var deadlockWaiting []string
	if sim, ok := clk.(*vclock.Sim); ok {
		sim.SetDeadlockHandler(func(waiting []string) { deadlockWaiting = waiting })
	}

	// rep stays nil when the run is cut short before the fleet forms.
	var rep *Report
	c.Start(func() {
		if !c.WaitReady() {
			return
		}
		sess, err := c.Open("", cfg.Workflow)
		if err != nil {
			panic(err) // unreachable: the cluster is ours and has no session yet
		}
		sess.Schedule(cfg.Arrivals)
		rep = sess.Wait()
		c.Stop()
	})
	clk.Wait()

	// A deadlock after the master finished (a worker's stop signal lost
	// to a partition) strands that worker's goroutine but the run itself
	// concluded; only an unfinished master makes the deadlock the run's
	// outcome.
	if sim, ok := clk.(*vclock.Sim); ok && sim.Deadlocked() && !plane.finished {
		return nil, fmt.Errorf("%w (blocked: %v)", ErrDeadlocked, deadlockWaiting)
	}

	if rep == nil {
		rep = &Report{}
	}
	// The plane is gone. A caller that keeps the report must not keep
	// the plane with it: each record reaches its session, the session's
	// report mailbox its clock, and a Sim the whole finished fleet.
	for _, rec := range rep.Records {
		rec.sess = nil
	}
	rep.Workers = make([]WorkerReport, 0, len(cfg.Workers)+len(joiners))
	addWorker := func(st *WorkerState, before workerSnapshot, w *Worker) {
		wr := diffWorker(st, before)
		if w != nil {
			wr.JobsDone = w.JobsDone()
			wr.BusyTime = w.BusyTime()
			if rep.Makespan > 0 {
				wr.Utilization = float64(wr.BusyTime) / float64(rep.Makespan)
			}
		}
		rep.Workers = append(rep.Workers, wr)
		rep.CacheHits += wr.CacheHits
		rep.CacheMisses += wr.CacheMisses
		rep.Evictions += wr.Evictions
		rep.DataLoadMB += wr.DataLoadMB
		rep.Downloads += wr.Downloads
	}
	for _, st := range cfg.Workers {
		// The cluster is quiescent here, but members is mu-guarded
		// state; take the lock so the ownership rule holds uniformly.
		c.mu.Lock()
		mem := c.members[st.Spec.Name]
		c.mu.Unlock()
		addWorker(st, mem.before, mem.w)
	}
	for _, jr := range joiners {
		addWorker(jr.st, jr.before, jr.w)
	}
	if plane.aborted {
		return rep, fmt.Errorf("%w (%v of simulated time, %d/%d jobs completed)",
			ErrDeadlineExceeded, cfg.Deadline, rep.JobsCompleted, len(cfg.Arrivals))
	}
	return rep, nil
}

// workerSnapshot captures a worker's cumulative counters so Run can
// report per-run deltas even when state persists across iterations.
type workerSnapshot struct {
	hits, misses, evictions int
	dataMB                  float64
	downloads               int
}

func snapshotWorker(st *WorkerState) workerSnapshot {
	s := st.Cache.Stats()
	return workerSnapshot{
		hits:      s.Hits,
		misses:    s.Misses,
		evictions: s.Evictions,
		dataMB:    st.Link.DownloadedMB(),
		downloads: st.Link.Downloads(),
	}
}

func diffWorker(st *WorkerState, base workerSnapshot) WorkerReport {
	s := st.Cache.Stats()
	return WorkerReport{
		Name:        st.Spec.Name,
		CacheHits:   s.Hits - base.hits,
		CacheMisses: s.Misses - base.misses,
		Evictions:   s.Evictions - base.evictions,
		DataLoadMB:  st.Link.DownloadedMB() - base.dataMB,
		Downloads:   st.Link.Downloads() - base.downloads,
	}
}

// Report aggregates one run's outcome: the paper's three metrics (§6.1:
// end-to-end execution time, data load, cache misses) plus scheduling
// diagnostics.
type Report struct {
	// Allocator is the policy that produced this run.
	Allocator string
	// Start and End bound the workflow execution; Makespan = End-Start,
	// the paper's end-to-end execution time.
	Start    time.Time
	End      time.Time
	Makespan time.Duration
	// JobsCompleted counts jobs executed by workers; JobsFailed those
	// whose task returned an error.
	JobsCompleted int
	JobsFailed    int
	// Redispatched counts jobs rescued from lost workers.
	Redispatched int
	// Results collects terminal-stream payloads and task results.
	Results []any
	// CacheHits/CacheMisses/Evictions aggregate worker cache outcomes —
	// CacheMisses is the paper's cache-miss metric.
	CacheHits   int
	CacheMisses int
	Evictions   int
	// DataLoadMB is the total non-local data transferred — the paper's
	// data-load metric. Downloads counts individual transfers.
	DataLoadMB float64
	Downloads  int
	// Scheduling diagnostics. ContestMsgs counts bid requests addressed
	// to live workers (the live set per broadcast, the live targets per
	// targeted contest) — the wire cost that separates O(fleet) from
	// O(K) contest policies.
	Offers           int
	Rejections       int
	Contests         int
	ContestMsgs      int
	Bids             int
	Fallbacks        int
	MeanAllocLatency time.Duration
	// allocLatency and allocCount are the raw sums behind
	// MeanAllocLatency, kept so a sharded plane can merge per-shard
	// reports into an exact combined mean.
	allocLatency time.Duration
	allocCount   int
	// Workers breaks the counters down per node.
	Workers []WorkerReport
	// Records exposes the master's per-job book-keeping.
	Records map[string]*JobRecord
}

// WorkerReport is one node's share of a run.
type WorkerReport struct {
	Name        string
	JobsDone    int
	CacheHits   int
	CacheMisses int
	Evictions   int
	DataLoadMB  float64
	Downloads   int
	// BusyTime is the clock time spent executing jobs; Utilization is
	// BusyTime over the run's makespan. The paper's Figure 4 discussion
	// is about exactly this: centralized allocation leaves slow nodes
	// overloaded and fast ones idle.
	BusyTime    time.Duration
	Utilization float64
}
