package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"crossflow/internal/metrics"
)

// A traced run (--trace 1) times two short windows of the workload's
// traffic — one plain, one with the decorators of trace.go installed —
// checks that the decorators did not change the path the jobs took,
// runs the per-layer probes, and reports every per-layer metric. The
// end-to-end metrics never come from here.

// traceTCP is the traced pass of the tcp_* workloads.
func traceTCP(rc *runCtx, shards int, paced bool) error {
	res := rc.res
	run := func(tr *tracer) (*window, *fleet, error) {
		f, err := startFleet(rc.p, shards, rc.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		f.warm(res, rc.seed+1, paced)
		w := f.measure(rc, paced)
		f.stop(res)
		return w, f, nil
	}
	plain, _, err := run(nil)
	if err != nil {
		return err
	}
	tr := newTracer(clockScale, rc.p)
	traced, f, err := run(tr)
	if err != nil {
		return err
	}
	// Stage instants of the sampled jobs, from the master's records.
	stages := make(map[string]*stageTimes)
	for _, sr := range traced.runs {
		if sr.rep == nil {
			continue
		}
		for i, id := range sr.ids {
			rec := sr.rep.Records[id]
			if rec == nil || !tr.sampled(id) {
				continue
			}
			stages[id] = &stageTimes{
				Due:      tr.pos(dueClock(f.wall0, f.clock0, clockScale, sr.due[i])),
				Injected: tr.pos(rec.Injected),
				Queued:   tr.pos(rec.Queued),
				Finished: tr.pos(rec.Finished),
				done:     true,
			}
		}
	}
	if n := tr.stat("port.publish_sync").Calls; n > 0 {
		res.failf(1, "decorators changed the path: %d bid requests left by the synchronous publish", n)
	}
	// On a real clock a session can report before the late bids of its
	// last jobs are counted, so the counters agree only to within a
	// couple of jobs' worth per session.
	if err := finishTrace(rc, plain, traced, tr, stages, 2/float64(rc.p.SessionJobs)); err != nil {
		return err
	}
	if shards == 1 && !paced {
		costTable(rc, plain)
	}
	return nil
}

// traceSimFleet is the traced pass of sim_fleet_w500.
func traceSimFleet(rc *runCtx) error {
	toWindow := func(fw *fleetWindow) *window {
		w := &window{wall: fw.wall, cpu: fw.cpu, mem: fw.mem}
		fs := sizeFrames(fw.runs[0].arrivals[0].Job, "w0000")
		for _, fr := range fw.runs {
			w.sessionsMs = append(w.sessionsMs, ms(fr.wall))
			fr.times(&w.jt)
			w.addSummary(fr.summary())
			w.pricedBytes += fs.wireBytes(fr.summary())
			per := make(map[string]int)
			for _, wr := range fr.rep.Workers {
				per[wr.Name] = wr.JobsDone
			}
			for _, name := range sortedKeys(per) {
				w.workerJobs = append(w.workerJobs, per[name])
			}
		}
		w.sortTimes()
		return w
	}
	plainRuns, err := runFleetWindow(rc, 1, nil)
	if err != nil {
		return err
	}
	tr := newTracer(1, rc.p)
	tracedRuns, err := runFleetWindow(rc, 1, tr)
	if err != nil {
		return err
	}
	// The same seeds ran in both windows, so run for run the makespans
	// must agree.
	for i := 0; i < min(len(plainRuns.runs), len(tracedRuns.runs)); i++ {
		if a, b := plainRuns.runs[i].rep.Makespan, tracedRuns.runs[i].rep.Makespan; a != b {
			rc.res.failf(1, "decorators changed fleet run %d: makespan %v, traced %v", i, a, b)
		}
	}
	stages := make(map[string]*stageTimes)
	for _, fr := range tracedRuns.runs {
		for _, a := range fr.arrivals {
			rec := fr.rep.Records[a.Job.ID]
			if rec == nil || !tr.sampled(a.Job.ID) {
				continue
			}
			stages[a.Job.ID] = &stageTimes{
				Due:      tr.pos(fr.rep.Start.Add(a.At)),
				Injected: tr.pos(rec.Injected),
				Queued:   tr.pos(rec.Queued),
				Finished: tr.pos(rec.Finished),
				done:     true,
			}
		}
	}
	return finishTrace(rc, toWindow(plainRuns), toWindow(tracedRuns), tr, stages, 0)
}

// traceSimGrid is the traced pass of sim_paper_grid.
func traceSimGrid(rc *runCtx) error {
	toWindow := func(g *gridStats, wall, cpu time.Duration, mem memDelta) *window {
		w := &window{wall: wall, cpu: cpu, mem: mem, sessionsMs: g.gridMs(), pricedBytes: g.bytes()}
		for _, gr := range g.grids {
			for _, r := range gr.runs {
				w.addSummary(r)
			}
		}
		return w
	}
	mem0 := readMem()
	plainGrids, plainFirst, wall, cpu, err := gridWindow(rc, 1, nil)
	if err != nil {
		return err
	}
	plain := toWindow(plainGrids, wall, cpu, memSince(mem0))

	tr := newTracer(1, rc.p)
	tr.stages = make(map[string]*stageTimes)
	mem0 = readMem()
	tracedGrids, tracedFirst, wall, cpu, err := gridWindow(rc, 1, tracedPolicies(tr))
	if err != nil {
		return err
	}
	traced := toWindow(tracedGrids, wall, cpu, memSince(mem0))
	sameMakespans(rc.res, "decorated rerun", plainFirst, tracedFirst)
	traced.jt = stageLatencies(tr.stages)
	tr.mu.Lock()
	for _, name := range sortedKeys(tr.finishedBy) {
		traced.workerJobs = append(traced.workerJobs, tr.finishedBy[name])
	}
	tr.mu.Unlock()
	return finishTrace(rc, plain, traced, tr, tr.stages, 0)
}

// addSummary folds one simulated run's report into the window.
func (w *window) addSummary(r metrics.RunSummary) {
	w.jobs += r.Jobs
	w.counts.contests += r.Contests
	w.counts.bids += r.Bids
	w.counts.contestMsgs += r.ContestMsgs
	w.counts.fallbacks += r.Fallbacks
	w.counts.allocLatencyMs += ms(r.AllocLatency) * float64(r.Jobs)
	w.cache.hits += r.CacheHits
	w.cache.misses += r.CacheMisses
	w.cache.downloadedMB += r.DataLoadMB
}

func (w *window) sortTimes() {
	for _, s := range []*[]float64{&w.sessionsMs, &w.jt.assigned, &w.jt.done, &w.jt.ingest, &w.jt.alloc, &w.jt.run} {
		sort.Float64s(*s)
	}
}

// finishTrace is the common end of a traced run: the path-equivalence
// check, the probes, the per-layer metrics and the span file.
func finishTrace(rc *runCtx, plain, traced *window, tr *tracer, stages map[string]*stageTimes, tol float64) error {
	res := rc.res
	samePath(res, plain, traced, tol)
	if err := runProbes(rc); err != nil {
		return err
	}
	setLayerMetrics(res, plain, traced, tr)

	spans := tr.assemble(stages)
	path, err := writeSpans(rc.outDir, rc.workload, spans, tr.dropped)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	roots := 0
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
		}
	}
	rc.logf("traced window: %d jobs; %d spans of %d sampled jobs in %s (%d dropped)", traced.jobs, len(spans), roots, path, tr.dropped)
	self := selfTimes(spans)
	rc.logf("mean self time per sampled job, us (duration minus what child spans cover):")
	for _, name := range sortedKeys(self) {
		rc.logf("  %-24s %12.3f", name, self[name]/1e3)
	}
	return nil
}

// samePath fails the run unless the decorated window took the same path
// as the plain one: the same contests, bids and contest messages per
// job (within the share tol; exactly on the simulated clock, where
// both windows ran the same seeds), and wire bytes per job within 1 %.
func samePath(res *result, plain, traced *window, tol float64) {
	pj := func(w *window, n int) float64 { return w.perJob(float64(n)) }
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"contests", pj(plain, plain.counts.contests), pj(traced, traced.counts.contests)},
		{"bids", pj(plain, plain.counts.bids), pj(traced, traced.counts.bids)},
		{"contest messages", pj(plain, plain.counts.contestMsgs), pj(traced, traced.counts.contestMsgs)},
	} {
		if math.Abs(c.a-c.b) > tol*c.a+1e-9 {
			res.failf(1, "decorators changed the path: %s per job %.6f plain, %.6f traced", c.name, c.a, c.b)
		}
	}
	a, b := plain.bytesPerJob(), traced.bytesPerJob()
	if a > 0 && math.Abs(a-b)/a > 0.01 {
		res.failf(1, "decorators changed the path: wire bytes per job %.1f plain, %.1f traced", a, b)
	}
}

// setLayerMetrics reports the traced per-layer metrics. Counts and stage
// intervals come from the traced window, runtime and load-generator
// numbers from the plain one, and the tracing overhead from both.
func setLayerMetrics(res *result, plain, traced *window, tr *tracer) {
	jobs := float64(max(traced.jobs, 1))
	perJobUs := func(st callStat) float64 { return float64(st.BusyNs) / jobs / 1e3 }
	meanNs := func(st callStat) float64 { return float64(st.BusyNs) / float64(max(st.Calls, 1)) }

	port := tr.stat("port.")
	res.set("transport.bytes_in_per_job", traced.perJob(traced.wireIn))
	res.set("transport.bytes_out_per_job", traced.perJob(traced.wireOut))
	res.set("transport.port_busy_us_per_job", perJobUs(port))
	res.set("transport.port_calls_per_job", float64(port.Calls)/jobs)

	res.setN("engine.ingest_wait_p50_ms", percentile(traced.jt.ingest, 50), len(traced.jt.ingest))
	res.setN("engine.alloc_p50_ms", percentile(traced.jt.alloc, 50), len(traced.jt.alloc))
	res.setN("engine.alloc_p90_ms", percentile(traced.jt.alloc, 90), len(traced.jt.alloc))
	res.setN("engine.run_p50_ms", percentile(traced.jt.run, 50), len(traced.jt.run))
	res.set("engine.contests_per_job", float64(traced.counts.contests)/jobs)
	res.set("engine.bids_per_job", float64(traced.counts.bids)/jobs)
	res.set("engine.contest_msgs_per_job", float64(traced.counts.contestMsgs)/jobs)
	res.set("engine.fallbacks_per_job", float64(traced.counts.fallbacks)/jobs)
	res.set("engine.redispatched_per_job", float64(traced.counts.redispatched)/jobs)
	res.set("engine.mean_alloc_latency_ms", traced.counts.allocLatencyMs/jobs)
	if n := len(traced.workerJobs); n > 0 {
		most, sum := 0, 0
		for _, j := range traced.workerJobs {
			most = max(most, j)
			sum += j
		}
		res.set("engine.worker_jobs_max_over_mean", float64(most)*float64(n)/float64(max(sum, 1)))
	}
	res.set("engine.task_body_us_per_job", perJobUs(tr.stat("task.body")))

	alloc := tr.stat("alloc.")
	res.set("core.alloc_busy_us_per_job", perJobUs(alloc))
	res.set("core.alloc_calls_per_job", float64(alloc.Calls)/jobs)
	res.set("core.bid_received_ns", meanNs(tr.stat("alloc.BidReceived")))
	res.set("core.job_ready_ns", meanNs(tr.stat("alloc.JobReady")))
	res.set("core.agent_busy_us_per_job", perJobUs(tr.stat("agent.")))

	if lookups := traced.cache.hits + traced.cache.misses; lookups > 0 {
		res.set("storage.hit_ratio", float64(traced.cache.hits)/float64(lookups))
	}
	res.set("netsim.downloaded_mb_per_job", traced.cache.downloadedMB/jobs)

	res.set("runtime.allocs_per_job", plain.perJob(plain.mem.Allocs))
	res.set("runtime.alloc_kb_per_job", plain.perJob(plain.mem.AllocKB))
	res.set("runtime.gc_cycles", plain.mem.GCCycles)
	res.set("runtime.gc_pause_total_ms", plain.mem.GCPauseMs)

	res.set("loadgen.max_late_ms", percentile(plain.late, 100))
	res.set("loadgen.late_p99_ms", percentile(plain.late, 99))
	res.set("loadgen.submit_call_ns", plain.submitNs)

	done := plain.jt.done
	if len(done) == 0 {
		done = traced.jt.done // experiments.Grid exposes per-job times only to the decorators
	}
	res.setN("tail.submit_done_p99_ms", percentile(done, 99), len(done))
	res.setN("tail.submit_done_p999_ms", percentile(done, 99.9), len(done))
	res.setN("tail.session_p99_ms", percentile(plain.sessionsMs, 99), len(plain.sessionsMs))

	if p, t := plain.perJob(float64(plain.cpu)), traced.perJob(float64(traced.cpu)); p > 0 {
		res.set("trace.overhead_pct", (t/p-1)*100)
	}
}

// costTable prints tcp_sessions_w8's cost per job: the layers' rows,
// each a probe's price times how often a job pays it, summed against
// the CPU a job actually took and against what the box could give it
// (1/jobs_per_s x cores) — ROADMAP's "the rows add up, the unexplained
// remainder printed".
func costTable(rc *runCtx, plain *window) {
	res := rc.res
	w := float64(fleetWorkers)
	rows := []struct {
		layer string
		us    float64
		how   string
	}{
		{"loadgen", res.get("loadgen.submit_call_ns") / 1e3, "one Submit"},
		{"engine (master)", res.get("engine.master_us_per_job_w8"), "probe: master loop and bidding allocator, scripted fleet"},
		{"engine (workers)", res.get("engine.worker_us_per_job"), fmt.Sprintf("probe: %g bid requests answered, 1 job run", w)},
		{"transport, bid request", w * res.get("transport.fanout_cpu_us_per_delivery"), fmt.Sprintf("%g fanout deliveries", w)},
		{"transport, bids", w * res.get("transport.stream_cpu_us_per_msg"), fmt.Sprintf("%g worker-to-master sends", w)},
		{"transport, assign+done", 2 * res.get("transport.stream_cpu_us_per_msg"), "2 direct sends"},
	}
	cpu := plain.perJob(float64(plain.cpu.Microseconds()))
	budget := plain.wall.Seconds() * 1e6 / float64(max(plain.jobs, 1)) * float64(runtime.NumCPU())
	rc.logf("cost per job, tcp_sessions_w8 (us of CPU; transport rows include the wire codec and kernel TCP):")
	var sum float64
	for _, r := range rows {
		sum += r.us
		rc.logf("  %-26s %9.2f   %s", r.layer, r.us, r.how)
	}
	rc.logf("  %-26s %9.2f", "sum of rows", sum)
	rc.logf("  %-26s %9.2f   rusage over the plain window / jobs", "measured CPU per job", cpu)
	rc.logf("  %-26s %9.2f   measured minus rows: runtime, GC, scheduling, what no probe isolates", "unexplained", cpu-sum)
	rc.logf("  %-26s %9.2f   1/jobs_per_s x %d cores; measured/available = %.0f%% busy", "available per job", budget, runtime.NumCPU(), cpu/budget*100)
	rc.logf("  of which inside the master loop, traced: allocator %.2f us, port calls %.2f us per job",
		res.get("core.alloc_busy_us_per_job"), res.get("transport.port_busy_us_per_job"))
}
