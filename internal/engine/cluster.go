package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/gitsim"
	"crossflow/internal/vclock"
)

// ClusterConfig describes a long-lived cluster runtime: the fleet, the
// policy and the control plane. Work enters through sessions
// (Open/Submit) after Start, and the fleet itself is elastic
// (Join/Drain/Leave); Config adds a one-shot run's plan to it.
type ClusterConfig struct {
	// Clock is the time source; nil defaults to a fresh simulated clock.
	Clock vclock.Clock
	// Workers is the initial fleet; the master waits for all of them to
	// register before sessions start flowing. WorkerStates persist
	// across runs, so the harness can execute warm-cache iterations. May
	// be empty — an all-join cluster forms entirely at runtime.
	Workers []*WorkerState
	// Shards > 1 partitions the control plane into that many contest
	// shards: a frontend router on the master endpoint partitions jobs
	// by content hash of their data key across shard masters, each
	// owning its partition's contests, locindex slice, and load
	// accounting. 0 or 1 runs the classic single master, bit-compatible
	// with historical runs.
	Shards int
	// NewAllocator builds the master-side policy: once for the single
	// master, once per contest shard (allocators hold per-partition
	// state and cannot be shared).
	NewAllocator func() Allocator
	// NewAgent builds the matching worker-side policy per node.
	NewAgent func(st *WorkerState) Agent
	// Hub optionally provides the synthetic GitHub to task bodies.
	Hub *gitsim.Hub
	// MasterLink is the master's one-way broker latency.
	MasterLink time.Duration
	// Seed seeds the master's random source.
	Seed int64
	// DelayFunc overrides the broker's delivery-delay model (latency
	// spikes, asymmetric links). Nil keeps the default link-sum model.
	DelayFunc broker.DelayFunc
	// DropFunc installs a broker delivery-loss model. Implementations
	// must be deterministic (see broker.DropFunc).
	DropFunc broker.DropFunc
	// Tracer, when non-nil, receives every allocation event.
	Tracer Tracer
}

// clusterMember is one worker's runtime record: its persistent state,
// the live node, and the counter snapshot taken when it entered the
// cluster (so per-run report deltas survive state reuse).
type clusterMember struct {
	st     *WorkerState
	w      *Worker
	before workerSnapshot
}

// Cluster is the long-lived elastic runtime: one master, one broker,
// and a fleet of workers that can grow (Join) and shrink (Drain, Leave)
// while workflow sessions stream through it. The one-shot Run is one
// session on it.
//
// Lifecycle: NewCluster → Start → Open/Submit/Join/Drain … → Stop →
// Wait. On a simulated clock, everything that blocks (Drain,
// MasterSession.Wait) must run on a clock-tracked goroutine (clk.Go).
type Cluster struct {
	clk vclock.Clock
	bus *broker.Broker
	// plane is the control-plane core of the single master or of the
	// sharded frontend, and digest the fingerprint of whichever of the
	// two it is.
	plane  *Plane
	digest func() string
	cfg    ClusterConfig

	mu      sync.Mutex
	wfs     map[string]*Workflow      //xflow:owned mu=mu
	members map[string]*clusterMember //xflow:owned mu=mu
	order   []string                  //xflow:owned mu=mu
	started bool                      //xflow:owned mu=mu
}

// NewCluster builds a long-lived cluster runtime. Nothing runs until
// Start. The construction order (clock, rng, broker, master endpoint,
// master, then one Register+NewWorker per worker in input order) is
// load-bearing: mailbox and endpoint creation order is part of the
// deterministic replay surface.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NewAllocator == nil {
		return nil, errors.New("engine: no allocator configured")
	}
	if cfg.NewAgent == nil {
		return nil, errors.New("engine: no agent factory configured")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = vclock.NewSim()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bus := broker.New(clk)
	if cfg.DelayFunc != nil {
		bus.SetDelayFunc(cfg.DelayFunc)
	}
	if cfg.DropFunc != nil {
		bus.SetDropFunc(cfg.DropFunc)
	}
	masterEp := bus.Register(MasterName, cfg.MasterLink)
	c := &Cluster{
		clk:     clk,
		bus:     bus,
		cfg:     cfg,
		wfs:     make(map[string]*Workflow),
		members: make(map[string]*clusterMember, len(cfg.Workers)),
	}
	if cfg.Shards > 1 {
		// Shard endpoints register right after the master's, before any
		// worker, so their mailbox creation order is deterministic.
		shardPorts := make([]Port, cfg.Shards)
		for i := range shardPorts {
			shardPorts[i] = bus.Register(ShardName(i), cfg.MasterLink)
		}
		sm := newShardedMaster(clk, masterEp, shardPorts, cfg.NewAllocator,
			len(cfg.Workers), rng, cfg.Tracer)
		c.plane, c.digest = &sm.Plane, sm.StateDigest
	} else {
		alloc := cfg.NewAllocator()
		if alloc == nil {
			return nil, errors.New("engine: no allocator configured")
		}
		m := newMaster(clk, masterEp, alloc, len(cfg.Workers), rng, cfg.Tracer)
		c.plane, c.digest = &m.Plane, m.StateDigest
	}
	c.plane.signalReady(clk.NewMailbox(MasterName + ":ready"))
	for _, st := range cfg.Workers {
		if st == nil {
			return nil, errors.New("engine: nil worker state")
		}
		c.addMember(st)
	}
	return c, nil
}

// addMember registers st's endpoint, builds its worker node, and books
// it as a member; it reports whether the cluster is already running
// (the caller then starts the node itself).
func (c *Cluster) addMember(st *WorkerState) (w *Worker, running bool) {
	ep := c.bus.Register(st.Spec.Name, st.Spec.Link)
	w = NewWorker(c.clk, ep, nil, st, c.cfg.Hub, c.cfg.NewAgent(st))
	w.SetWorkflowResolver(c.workflowFor)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members[w.name] = &clusterMember{st: st, w: w, before: snapshotWorker(st)}
	c.order = append(c.order, w.name)
	return w, c.started
}

// Clock returns the cluster's time source.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// Start launches the control plane and the initial fleet, then runs
// driver — all on one clock-tracked start-up goroutine, so a simulated
// clock never observes the half-built system as idle. It returns
// immediately; a nil driver starts the fleet only.
//
// Rule: on a simulated clock, whatever drives the cluster (WaitReady,
// Open/Submit, Drain, Stop) goes in driver or in goroutines driver
// spawns. There is no other way to start a cluster precisely because a
// goroutine registered with clk.Go after Start returned races the
// fleet: if every node parks in its inbox first, the Sim sees all
// goroutines blocked with no timer pending and declares deadlock.
func (c *Cluster) Start(driver func()) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	initial := append([]string(nil), c.order...)
	c.mu.Unlock()
	c.clk.Go(func() {
		c.plane.Start()
		for _, name := range initial {
			c.worker(name).Start()
		}
		if driver != nil {
			driver()
		}
	})
}

// WaitReady blocks until the initial fleet has registered; it reports
// false if the cluster stopped first (see Plane.WaitReady). Call from a
// clock-tracked goroutine on a simulated clock.
func (c *Cluster) WaitReady() bool { return c.plane.awaitFleet() }

// Open starts a streaming workflow session: Submit jobs on the returned
// feed, Close it, then Wait for the session's report. Sessions on the
// same cluster share the fleet without cross-talk — every job is tagged
// with its session, and workers resolve the right workflow per job. The
// empty id is a session like any other whose jobs travel untagged.
func (c *Cluster) Open(id string, wf *Workflow) (*MasterSession, error) {
	if wf == nil {
		return nil, errors.New("engine: no workflow configured")
	}
	c.mu.Lock()
	if _, dup := c.wfs[id]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("engine: duplicate session id %q", id)
	}
	c.wfs[id] = wf
	c.mu.Unlock()
	return c.plane.OpenSession(id, wf), nil
}

// Join adds a worker to the running fleet. The node registers through
// the ordinary MsgRegister path, the allocator is told via WorkerJoined,
// and the joiner competes for contests from then on. On a simulated
// clock, call from a clock-tracked goroutine or timer callback. The
// name must be free (a drained worker's name may be reused).
func (c *Cluster) Join(st *WorkerState) (*Worker, error) {
	if st == nil {
		return nil, errors.New("engine: nil worker state")
	}
	if c.worker(st.Spec.Name) != nil {
		return nil, fmt.Errorf("engine: join duplicates worker %q", st.Spec.Name)
	}
	w, running := c.addMember(st)
	if running {
		w.Start()
	}
	return w, nil
}

// Drain gracefully removes a worker: the master stops allocating to it
// immediately, the worker finishes its queued jobs (completions reach
// the master before its goodbye on the same FIFO route), then leaves
// and frees its name. Drain blocks until the departure is settled; on a
// simulated clock call it from a clock-tracked goroutine.
func (c *Cluster) Drain(name string) {
	ack := c.plane.Drain(name)
	ack.Recv()
	c.forget(name)
}

// Leave removes a worker immediately, without waiting for its queue:
// the node drops off the broker and the master redispatches its
// unfinished jobs — operationally a controlled crash.
func (c *Cluster) Leave(name string) {
	c.mu.Lock()
	mem := c.members[name]
	c.mu.Unlock()
	if mem == nil {
		return
	}
	mem.w.kill()
	c.plane.Inject(MsgWorkerDead{Worker: name})
	c.forget(name)
}

// forget drops a departed member so its name can be reused by a future
// joiner. The WorkerState (and its counters) stays with the caller.
func (c *Cluster) forget(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[name]; !ok {
		return
	}
	delete(c.members, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Stop shuts the cluster down: the master publishes MsgStop to the
// fleet, flushes a final report to every session still waiting, and
// exits its loop. Follow with Wait to join all goroutines.
func (c *Cluster) Stop() { c.plane.Shutdown() }

// Wait blocks until every tracked goroutine has finished — after Stop,
// that is full quiescence. On a simulated clock this is also what
// advances virtual time.
func (c *Cluster) Wait() { c.clk.Wait() }

// workflowFor is the session→workflow resolver shared by every worker
// the cluster builds.
func (c *Cluster) workflowFor(session string) *Workflow {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wfs[session]
}

// worker returns a member's live node, nil if unknown or departed.
func (c *Cluster) worker(name string) *Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mem := c.members[name]; mem != nil {
		return mem.w
	}
	return nil
}
