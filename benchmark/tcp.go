package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

// plane is what the load generators need of a control plane; the single
// master and the sharded frontend both provide it.
type plane interface {
	WaitReady()
	OpenSession(id string, wf *engine.Workflow) *engine.MasterSession
	Shutdown()
}

// fleet is the fixed deployment of the tcp_* workloads in one process:
// a loopback broker server, a master (or a sharded control plane) and W
// real workers, every node on its own TCP connection. Every frame
// crosses wire codec, transport and kernel TCP exactly as deployed;
// only the process boundaries are gone (README.md has the measured
// reason).
type fleet struct {
	p       params
	srv     *transport.Server
	clk     *vclock.Real
	master  plane
	conns   []*transport.Client
	states  []*engine.WorkerState
	workers []*engine.Worker
	wf      *engine.Workflow
	members map[string]bool
	// wall0 and clock0 were read together: the pair converts between
	// wall instants and the fleet's compressed clock.
	wall0  time.Time
	clock0 time.Time

	mu        sync.Mutex
	submitted int // jobs handed to this fleet, for the worker-side totals
	sessions  int
}

// startFleet brings the deployment up and returns once every worker has
// registered. A non-nil tracer installs the decorators: on the master's
// and shards' ports, the allocators, the agents and the task body.
func startFleet(p params, shards int, seed int64, tr *tracer) (*fleet, error) {
	srv, err := transport.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f := &fleet{p: p, srv: srv, clk: vclock.NewScaledReal(clockScale), members: make(map[string]bool)}
	f.wall0, f.clock0 = time.Now(), f.clk.Now()
	pol, ok := core.PolicyByName("bidding")
	if !ok {
		return nil, fmt.Errorf("bidding policy unavailable")
	}
	task := engine.TaskFunc(engine.DefaultTask)
	if tr != nil {
		task = tr.tracedTask(task)
	}
	f.wf = engine.NewWorkflow("benchmark")
	f.wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: workload.Stream, Fn: task})

	dial := func(name string) (*transport.Client, error) {
		c, err := transport.DialOptions(srv.Addr(), name, 0, f.clk, transport.Options{Codec: "binary"})
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", name, err)
		}
		f.conns = append(f.conns, c)
		return c, nil
	}
	port := func(c *transport.Client) engine.Port {
		if tr != nil {
			return &tracedPort{c: c, t: tr, clk: f.clk}
		}
		return c
	}
	newAlloc := func() engine.Allocator {
		if tr != nil {
			return tr.tracedAllocator(pol.NewAllocator())
		}
		return pol.NewAllocator()
	}

	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("w%03d", i)
		c, err := dial(name)
		if err != nil {
			return nil, err
		}
		// Worker hardware as in cmd/xflow-wirebench: fast, noise-free,
		// and a cache big enough that repeat keys hit.
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name:    name,
			Net:     netsim.Speed{BaseMBps: 200},
			RW:      netsim.Speed{BaseMBps: 800},
			CacheMB: 1 << 20,
			Seed:    seed*1000 + int64(i) + 1,
		}, nil)
		agent := pol.NewAgent(st)
		if tr != nil {
			agent = &tracedAgent{Agent: agent, t: tr}
		}
		w := engine.NewWorker(f.clk, c, f.wf, st, nil, agent)
		w.Start()
		f.states = append(f.states, st)
		f.workers = append(f.workers, w)
		f.members[name] = true
	}

	mc, err := dial(engine.MasterName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if shards > 1 {
		shardPorts := make([]engine.Port, shards)
		for i := range shardPorts {
			sc, err := dial(engine.ShardName(i))
			if err != nil {
				return nil, err
			}
			shardPorts[i] = port(sc)
		}
		sm := engine.NewShardedClusterMaster(f.clk, port(mc), shardPorts, newAlloc, fleetWorkers, rng)
		sm.Start()
		f.master = sm
	} else {
		m := engine.NewClusterMaster(f.clk, port(mc), newAlloc(), fleetWorkers, rng)
		f.clk.Go(m.Run)
		f.master = m
	}
	f.master.WaitReady()
	return f, nil
}

// stop shuts the fleet down, waits for every goroutine it started, and
// checks the worker-side totals: every job handed to the fleet was
// executed exactly once, and every execution looked its data up once.
func (f *fleet) stop(res *result) {
	f.master.Shutdown()
	f.clk.Wait()
	for _, c := range f.conns {
		_ = c.Close() // the connection is only torn down; nothing to flush
	}
	_ = f.srv.Close()
	done := 0
	for _, w := range f.workers {
		done += w.JobsDone()
	}
	c := f.cacheTotals()
	if done != f.submitted {
		res.failf(abs(done-f.submitted), "workers executed %d jobs, %d were submitted", done, f.submitted)
	}
	if c.hits+c.misses != f.submitted {
		res.failf(abs(c.hits+c.misses-f.submitted), "cache hits %d + misses %d != %d jobs", c.hits, c.misses, f.submitted)
	}
}

// cacheCounts are the fleet-wide worker-side data counters.
type cacheCounts struct {
	hits, misses int
	downloadedMB float64
}

func (f *fleet) cacheTotals() cacheCounts {
	var c cacheCounts
	for _, st := range f.states {
		s := st.Cache.Stats()
		c.hits += s.Hits
		c.misses += s.Misses
		c.downloadedMB += st.Link.DownloadedMB()
	}
	return c
}

// dueClock converts a wall instant to the fleet's compressed clock:
// (wall0, clock0) were read together and the clock runs scale times
// faster than the wall.
func dueClock(wall0, clock0 time.Time, scale float64, wall time.Time) time.Time {
	return clock0.Add(time.Duration(float64(wall.Sub(wall0)) * scale))
}

// realMs converts an interval on the compressed clock to real
// milliseconds.
func realMs(d time.Duration, scale float64) float64 {
	return float64(d) / scale / float64(time.Millisecond)
}

// jobGen draws data keys: 80 % of jobs share the hot keys, the rest
// spread over the cold ones.
type jobGen struct {
	rng       *rand.Rand
	hot, cold []string
}

func newJobGen(seed int64) *jobGen {
	g := &jobGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < hotKeys; i++ {
		g.hot = append(g.hot, fmt.Sprintf("hot/%02d", i))
	}
	for i := 0; i < coldKeys; i++ {
		g.cold = append(g.cold, fmt.Sprintf("cold/%02d", i))
	}
	return g
}

func (g *jobGen) job(id string) *engine.Job {
	key := g.cold[g.rng.Intn(len(g.cold))]
	if g.rng.Intn(100) < 80 {
		key = g.hot[g.rng.Intn(len(g.hot))]
	}
	return &engine.Job{ID: id, Stream: workload.Stream, DataKey: key, DataSizeMB: jobMB}
}

// sessionRun is one session as the client saw it.
type sessionRun struct {
	id     string
	sess   *engine.MasterSession
	ids    []string
	due    []time.Time // when each job was due (closed loop: when it was submitted)
	open   time.Time
	report time.Time
	rep    *engine.Report
}

// newSession opens the fleet's next session, which will carry n jobs.
func (f *fleet) newSession(res *result, n int) *sessionRun {
	f.mu.Lock()
	// Fixed-width IDs keep the bytes a job puts on the wire independent
	// of how many sessions a window got through.
	id := fmt.Sprintf("s%05d", f.sessions)
	f.sessions++
	f.submitted += n
	f.mu.Unlock()
	res.attempt(n)
	return &sessionRun{
		id: id, ids: make([]string, 0, n), due: make([]time.Time, 0, n),
		open: time.Now(), sess: f.master.OpenSession(id, f.wf),
	}
}

// submit hands the session its next job, due at the given instant.
func (sr *sessionRun) submit(gen *jobGen, due time.Time) {
	n := strconv.Itoa(len(sr.ids))
	job := gen.job(sr.id + "-000"[:max(1, 4-len(n))] + n) // fixed width, like the session's
	sr.ids = append(sr.ids, job.ID)
	sr.due = append(sr.due, due)
	sr.sess.Submit(job)
}

// wait blocks until the session's report is in.
func (sr *sessionRun) wait() {
	sr.rep = sr.sess.Wait()
	sr.report = time.Now()
}

// closedLoop runs the client goroutines; each opens a session, submits
// SessionJobs jobs, closes it, waits for the report, and repeats while
// more, asked with the number of sessions the client has finished, says
// so.
func (f *fleet) closedLoop(res *result, seed int64, more func(finished int) bool) []*sessionRun {
	var (
		mu  sync.Mutex
		all []*sessionRun
		wg  sync.WaitGroup
	)
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newJobGen(seed*100 + int64(c))
			for n := 0; more(n); n++ {
				sr := f.newSession(res, f.p.SessionJobs)
				for i := 0; i < f.p.SessionJobs; i++ {
					sr.submit(gen, time.Now())
				}
				sr.sess.Close()
				sr.wait()
				mu.Lock()
				all = append(all, sr)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return all
}

// paced is the open loop: one generator (the caller) submits njobs jobs
// at pacedRate in back-to-back sessions of SessionJobs, whatever the
// system does; a collector goroutine waits for the reports. Each job is
// due at start + i/rate and timed from then, so a stalled generator
// charges the wait to the jobs it delayed; late is how far behind its
// schedule the generator submitted each job, and submitNs the mean cost
// of the Submit call.
func (f *fleet) paced(res *result, seed int64, njobs int) (runs []*sessionRun, late []float64, submitNs float64) {
	nsess := (njobs + f.p.SessionJobs - 1) / f.p.SessionJobs
	closed := make(chan *sessionRun, nsess) // sized to the number of sends
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sr := range closed {
			sr.wait()
			runs = append(runs, sr)
		}
	}()

	gen := newJobGen(seed * 100)
	interval := time.Second / pacedRate
	late = make([]float64, 0, njobs)
	var cur *sessionRun
	var inSubmit time.Duration
	start := time.Now()
	for i := 0; i < njobs; i++ {
		if i%f.p.SessionJobs == 0 {
			if cur != nil {
				cur.sess.Close()
				closed <- cur
			}
			cur = f.newSession(res, min(f.p.SessionJobs, njobs-i))
		}
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t := time.Now()
		cur.submit(gen, due)
		inSubmit += time.Since(t)
		late = append(late, ms(t.Sub(due)))
	}
	if cur != nil {
		cur.sess.Close()
		closed <- cur
	}
	close(closed)
	wg.Wait()
	return runs, late, float64(inSubmit) / float64(max(njobs, 1))
}

// warm pushes the warm-up load through the fleet and verifies it like
// any other traffic.
func (f *fleet) warm(res *result, seed int64, paced bool) {
	var runs []*sessionRun
	if paced {
		runs, _, _ = f.paced(res, seed, f.p.PacedWarmup)
	} else {
		per := max(1, f.p.WarmupJobs/(f.p.SessionJobs*loadClients))
		runs = f.closedLoop(res, seed, func(finished int) bool { return finished < per })
	}
	f.verify(res, runs, nil)
}

// checkRecord verifies one job's record: it exists, finished, on a
// fleet member, with Injected <= Queued <= Finished.
func checkRecord(res *result, id string, rec *engine.JobRecord, members map[string]bool) bool {
	switch {
	case rec == nil:
		res.failf(1, "job %s has no record", id)
	case rec.Status != engine.StatusFinished:
		res.failf(1, "job %s ended %s", id, rec.Status)
	case !members[rec.Worker]:
		res.failf(1, "job %s ran on %q, not a fleet member", id, rec.Worker)
	case rec.Queued.Before(rec.Injected) || rec.Finished.Before(rec.Queued):
		res.failf(1, "job %s has injected/queued/finished out of order", id)
	default:
		return true
	}
	return false
}

// jobTimes are per-job intervals in milliseconds, sorted once complete.
type jobTimes struct {
	assigned []float64 // due -> Queued
	done     []float64 // due -> Finished
	ingest   []float64 // due -> Injected
	alloc    []float64 // Injected -> Queued
	run      []float64 // Queued -> Finished
	// start and blockLen, on the clock the records are stamped with,
	// cut the window into blocks (see blocks.go); doneBy and assignedBy
	// hold the intervals of the jobs that finished in each block.
	start      time.Time
	blockLen   time.Duration
	doneBy     series
	assignedBy series
}

// verify checks every session's outputs — every submitted ID has
// exactly one record, finished, on a fleet member, with Injected <=
// Queued <= Finished, and the report's totals agree — and, when jt is
// non-nil, collects the per-job intervals.
func (f *fleet) verify(res *result, runs []*sessionRun, jt *jobTimes) {
	for _, sr := range runs {
		n := len(sr.ids)
		if sr.rep == nil {
			res.failf(n, "a session of %d jobs ended without a report", n)
			continue
		}
		if sr.rep.JobsCompleted != n || sr.rep.JobsFailed != 0 {
			res.failf(abs(n-sr.rep.JobsCompleted)+sr.rep.JobsFailed,
				"session completed %d of %d jobs, %d failed", sr.rep.JobsCompleted, n, sr.rep.JobsFailed)
		}
		if len(sr.rep.Records) != n {
			res.failf(abs(len(sr.rep.Records)-n), "session has %d records for %d jobs", len(sr.rep.Records), n)
		}
		ok := 0
		for i, id := range sr.ids {
			rec := sr.rep.Records[id]
			if !checkRecord(res, id, rec, f.members) {
				continue
			}
			ok++
			if jt == nil {
				continue
			}
			due := dueClock(f.wall0, f.clock0, clockScale, sr.due[i])
			jt.assigned = append(jt.assigned, realMs(rec.Queued.Sub(due), clockScale))
			jt.done = append(jt.done, realMs(rec.Finished.Sub(due), clockScale))
			jt.ingest = append(jt.ingest, realMs(rec.Injected.Sub(due), clockScale))
			jt.alloc = append(jt.alloc, realMs(rec.Queued.Sub(rec.Injected), clockScale))
			jt.run = append(jt.run, realMs(rec.Finished.Sub(rec.Queued), clockScale))
			if jt.blockLen > 0 && !rec.Finished.Before(jt.start) {
				b := int(rec.Finished.Sub(jt.start) / jt.blockLen)
				jt.doneBy.add(b, realMs(rec.Finished.Sub(due), clockScale))
				jt.assignedBy.add(b, realMs(rec.Queued.Sub(due), clockScale))
			}
		}
		res.pass(ok)
	}
	if jt != nil {
		for _, s := range []*[]float64{&jt.assigned, &jt.done, &jt.ingest, &jt.alloc, &jt.run} {
			sort.Float64s(*s)
		}
	}
}

// window is everything one timed window produced, on any workload; a
// field a workload cannot fill stays zero.
type window struct {
	jobs       int
	wall, cpu  time.Duration
	runs       []*sessionRun // tcp_* only
	sessionsMs []float64     // sorted wall time of each session or run
	// jt holds per-job intervals in milliseconds: real on a TCP fleet,
	// virtual on the simulated clock.
	jt jobTimes
	// wireIn and wireOut are the broker's byte counters on a TCP fleet;
	// a simulated window has only pricedBytes, its control messages at
	// binary frame sizes.
	wireIn      float64
	wireOut     float64
	pricedBytes float64
	cache       cacheCounts
	mem         memDelta
	late        []float64 // sorted; paced only
	submitNs    float64
	counts      planeCounts
	workerJobs  []int
	view        blockView
}

// planeCounts are the control-plane counters summed over a window.
type planeCounts struct {
	contests, bids, contestMsgs, fallbacks, redispatched int
	// allocLatencyMs is the sum over jobs of the allocation latency the
	// reports account, in the window's milliseconds.
	allocLatencyMs float64
}

func (w *window) perJob(v float64) float64 { return v / float64(max(w.jobs, 1)) }

// bytesPerJob is the window's wire_bytes_per_job.
func (w *window) bytesPerJob() float64 {
	return w.perJob(w.wireIn + w.wireOut + w.pricedBytes)
}

// measure runs one timed window of the workload's traffic on a warm
// fleet and verifies it.
func (f *fleet) measure(rc *runCtx, paced bool) *window {
	w := &window{}
	wire0, cache0 := f.srv.WireStats(), f.cacheTotals()
	before := make([]int, len(f.workers))
	for i, wk := range f.workers {
		before[i] = wk.JobsDone()
	}
	mem0 := readMem()
	blockLen := rc.window() / time.Duration(windowBlocks)
	start := time.Now()
	w.jt.start = dueClock(f.wall0, f.clock0, clockScale, start)
	w.jt.blockLen = time.Duration(float64(blockLen) * clockScale)
	sampler := sampleCPU(start, blockLen, windowBlocks)
	u := startUsage()
	if paced {
		njobs := int(pacedRate * rc.window().Seconds())
		w.runs, w.late, w.submitNs = f.paced(rc.res, rc.seed, max(njobs, 1))
		sort.Float64s(w.late)
	} else {
		deadline := start.Add(rc.window())
		w.runs = f.closedLoop(rc.res, rc.seed, func(int) bool { return time.Now().Before(deadline) })
	}
	w.wall, w.cpu = u.elapsed()
	w.view.cpuUs = sampler.perBlock()
	w.mem = memSince(mem0)
	wire1, cache1 := f.srv.WireStats(), f.cacheTotals()
	w.wireIn = float64(wire1.BytesIn - wire0.BytesIn)
	w.wireOut = float64(wire1.BytesOut - wire0.BytesOut)
	w.cache = cacheCounts{cache1.hits - cache0.hits, cache1.misses - cache0.misses, cache1.downloadedMB - cache0.downloadedMB}
	for i, wk := range f.workers {
		w.workerJobs = append(w.workerJobs, wk.JobsDone()-before[i])
	}

	f.verify(rc.res, w.runs, &w.jt)
	var submitSpan time.Duration
	for _, sr := range w.runs {
		w.jobs += len(sr.ids)
		w.sessionsMs = append(w.sessionsMs, ms(sr.report.Sub(sr.open)))
		w.view.sessions.add(int(sr.report.Sub(start)/blockLen), ms(sr.report.Sub(sr.open)))
		if n := len(sr.due); n > 1 {
			submitSpan += sr.due[n-1].Sub(sr.due[0]) / time.Duration(n-1)
		}
		if sr.rep != nil {
			w.counts.contests += sr.rep.Contests
			w.counts.bids += sr.rep.Bids
			w.counts.contestMsgs += sr.rep.ContestMsgs
			w.counts.fallbacks += sr.rep.Fallbacks
			w.counts.redispatched += sr.rep.Redispatched
			w.counts.allocLatencyMs += realMs(sr.rep.MeanAllocLatency, clockScale) * float64(sr.rep.JobsCompleted)
		}
	}
	sort.Float64s(w.sessionsMs)
	w.view.n = len(w.view.cpuUs) // the blocks that ended inside the window
	w.view.done, w.view.assigned = w.jt.doneBy, w.jt.assignedBy
	for b := 0; b < w.view.n; b++ {
		jobs := 0
		if b < len(w.jt.doneBy) {
			jobs = len(w.jt.doneBy[b])
		}
		w.view.jobs = append(w.view.jobs, float64(jobs))
		w.view.secs = append(w.view.secs, blockLen.Seconds())
	}
	if !paced && len(w.runs) > 0 {
		// A closed-loop client stamps each job just before its Submit, so
		// the gap between stamps is the cost of the call.
		w.submitNs = float64(submitSpan) / float64(len(w.runs))
	}
	return w
}

// runTCP is the three tcp_* workloads.
func runTCP(rc *runCtx, shards int, paced bool) error {
	if rc.trace {
		return traceTCP(rc, shards, paced)
	}
	res := rc.res
	// The fleet's quality depends on real timing, so the paper's
	// metrics on these rows come from the reference slice. It runs
	// first, in a fresh heap like the grid's own runs.
	ref, err := runReference(rc)
	if err != nil {
		return err
	}
	var f *fleet
	setup, n, err := rc.setUps(func(i int) error {
		if f != nil {
			f.stop(res)
		}
		var err error
		if f, err = startFleet(rc.p, shards, rc.seed, nil); err != nil {
			return err
		}
		f.warm(res, rc.seed+int64(i)+1, paced)
		return nil
	})
	if err != nil {
		return err
	}
	w := f.measure(rc, paced)
	rss := peakRSSMB()
	f.stop(res)

	res.setN("setup_s", setup, n)
	v := &w.view
	v.setTimings(res)
	res.setN("submit_done_p50_ms", v.done.over(v.n, pct(50)), v.done.count())
	res.setN("submit_done_p90_ms", v.done.over(v.n, pct(90)), v.done.count())
	res.setN("submit_assigned_p50_ms", v.assigned.over(v.n, pct(50)), v.assigned.count())
	// Both throughput names carry the row's own jobs per wall second.
	res.setN("sim_jobs_per_s", res.get("jobs_per_s"), w.jobs)
	res.set("wire_bytes_per_job", w.bytesPerJob())
	res.set("peak_rss_mb", rss)
	rc.logf("window: %d jobs in %.2fs (%.0f jobs/s over the whole window), %d sessions, %d blocks of %v",
		w.jobs, w.wall.Seconds(), float64(w.jobs)/w.wall.Seconds(), len(w.runs), v.n, rc.window()/time.Duration(windowBlocks))
	rc.logf("highest percentile with >=10 samples beyond it: p%g of submit_done = %.3f ms over the whole window",
		topPercentile(len(w.jt.done)), percentile(w.jt.done, topPercentile(len(w.jt.done))))
	if paced {
		rc.logf("generator lateness: p99 %.3f ms, max %.3f ms", percentile(w.late, 99), percentile(w.late, 100))
	}

	ref.setPaperMetrics(res)
	ref.setSpeedup(res)
	return nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
