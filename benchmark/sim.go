package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"crossflow"
	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/experiments"
	"crossflow/internal/metrics"
	"crossflow/internal/wire"
	"crossflow/internal/workload"
)

// --- control-plane bytes of a simulated run -----------------------------

// frameSizes are the bytes one protocol message takes on the binary
// wire, both hops (sender to broker, broker to receiver), length
// prefixes included.
type frameSizes struct {
	publishReq float64 // master -> broker, once per contest, plus its ack
	deliverReq float64 // broker -> worker, once per contest message
	bid        float64
	assign     float64
	offer      float64 // offer plus the worker's accept or reject
	done       float64
}

// frameLen is the stream size of one frame: its body plus the 4-byte
// length prefix.
func frameLen(f *wire.Frame) float64 {
	body, err := wire.AppendFrame(nil, f)
	if err != nil {
		panic(err) // every frame here carries an engine protocol message
	}
	return float64(len(body) + 4)
}

// hops is the size of a direct message: the sender's KindSend frame
// plus the receiver's KindDelivery frame.
func hops(from, to string, payload any) float64 {
	return frameLen(&wire.Frame{Kind: wire.KindSend, To: to, Payload: payload}) +
		frameLen(&wire.Frame{Kind: wire.KindDelivery, Env: broker.Envelope{From: from, To: to, Payload: payload}})
}

// sizeFrames measures the protocol messages of one representative job.
func sizeFrames(job *engine.Job, worker string) frameSizes {
	req := engine.MsgBidRequest{Job: job}
	m := engine.MasterName
	return frameSizes{
		publishReq: frameLen(&wire.Frame{Kind: wire.KindPublish, Seq: 1000, Topic: engine.TopicBids, Payload: req}) +
			frameLen(&wire.Frame{Kind: wire.KindPubAck, Seq: 1000, Count: 8}),
		deliverReq: frameLen(&wire.Frame{Kind: wire.KindDelivery, Env: broker.Envelope{From: m, Topic: engine.TopicBids, Payload: req}}),
		bid:        hops(worker, m, engine.MsgBid{JobID: job.ID, Worker: worker, Estimate: 5 * time.Second, JobCost: 5 * time.Second}),
		assign:     hops(m, worker, engine.MsgAssign{Job: job, EstimatedCost: 5 * time.Second}),
		offer:      hops(m, worker, engine.MsgOffer{Job: job}) + hops(worker, m, engine.MsgAccept{JobID: job.ID, Worker: worker}),
		done:       hops(worker, m, engine.MsgJobDone{JobID: job.ID, Worker: worker, Results: []any{job.ID}}),
	}
}

// wireBytes prices a run's control messages at binary frame sizes: what
// the same run would have put on the wire. A simulated run crosses no
// wire, so this is the simulated workloads' wire_bytes_per_job; it
// moves when a policy sends more or fewer messages or a frame grows.
func (fs frameSizes) wireBytes(r metrics.RunSummary) float64 {
	assigns := 0
	if r.Offers == 0 {
		assigns = r.Jobs // push policies assign every job once
	}
	return float64(r.Contests)*fs.publishReq + float64(r.ContestMsgs)*fs.deliverReq +
		float64(r.Bids)*fs.bid + float64(assigns)*fs.assign +
		float64(r.Offers)*fs.offer + float64(r.Jobs)*fs.done
}

// --- experiments.Grid ---------------------------------------------------

// gridResult is one experiments.Grid call.
type gridResult struct {
	runs    []metrics.RunSummary // every run, in grid order
	speedup float64              // Summary.AvgSpeedupPct
	wall    time.Duration
	cpu     time.Duration
	bidMB   float64 // pooled data load under bidding
	baseMB  float64 // ... and under baseline
	bytes   float64 // control-plane bytes at binary frame sizes
}

// gridStats is a sequence of grids, one per seed.
type gridStats struct {
	grids []gridResult
}

// first is the view of the first n grids.
func (g *gridStats) first(n int) *gridStats {
	return &gridStats{grids: g.grids[:min(n, len(g.grids))]}
}

func (g *gridStats) jobs() int {
	n := 0
	for _, gr := range g.grids {
		for _, r := range gr.runs {
			n += r.Jobs
		}
	}
	return n
}

func (g *gridStats) bytes() float64 {
	var b float64
	for _, gr := range g.grids {
		b += gr.bytes
	}
	return b
}

// view cuts the grids into blocks of consecutive grids.
func (g *gridStats) view(blocks int) *blockView {
	runs := make([]simRun, 0, len(g.grids))
	for _, gr := range g.grids {
		jobs := 0
		for _, r := range gr.runs {
			jobs += r.Jobs
		}
		runs = append(runs, simRun{gr.wall, gr.cpu, jobs})
	}
	return viewOfRuns(blocks, runs)
}

// gridMs is the sorted wall time of each grid in milliseconds.
func (g *gridStats) gridMs() []float64 {
	out := make([]float64, 0, len(g.grids))
	for _, gr := range g.grids {
		out = append(out, ms(gr.wall))
	}
	sort.Float64s(out)
	return out
}

// runGrid runs the full grid at one seed, verifies every run's outputs
// and appends it to g (which may be nil to only verify).
func runGrid(res *result, p params, seed int64, policies []core.Policy, g *gridStats) ([]*experiments.Cell, error) {
	jobs := p.GridJobs
	if jobs == 0 {
		jobs = 120
	}
	u := startUsage()
	cells, err := experiments.Grid(experiments.SimOptions{Seed: seed, Jobs: p.GridJobs, Iterations: p.GridIterations, Policies: policies})
	if err != nil {
		return nil, err
	}
	gr := gridResult{speedup: experiments.Summarize(cells).AvgSpeedupPct}
	gr.wall, gr.cpu = u.elapsed()
	var fs frameSizes
	for _, c := range cells {
		if fs == (frameSizes{}) {
			arr := workload.Generate(c.Workload, workload.Options{Jobs: 1, Seed: seed})
			fs = sizeFrames(arr[0].Job, "worker-0")
		}
		for _, name := range sortedKeys(c.Series) {
			for _, r := range c.Series[name].Runs {
				res.attempt(jobs)
				res.pass(min(r.Jobs, jobs))
				if r.Jobs != jobs {
					res.failf(abs(jobs-r.Jobs), "%s/%s %s seed %d completed %d of %d jobs", c.Workload, c.Profile, name, seed, r.Jobs, jobs)
				}
				if r.CacheHits+r.CacheMisses != r.Jobs {
					res.failf(abs(r.Jobs-r.CacheHits-r.CacheMisses), "%s/%s %s seed %d: hits %d + misses %d != %d jobs",
						c.Workload, c.Profile, name, seed, r.CacheHits, r.CacheMisses, r.Jobs)
				}
				gr.runs = append(gr.runs, r)
				gr.bytes += fs.wireBytes(r)
				switch name {
				case "bidding":
					gr.bidMB += r.DataLoadMB
				case "baseline":
					gr.baseMB += r.DataLoadMB
				}
			}
		}
	}
	if g != nil {
		g.grids = append(g.grids, gr)
	}
	return cells, nil
}

// setPaperMetrics reports the paper's three metrics over the
// accumulated runs.
func (g *gridStats) setPaperMetrics(res *result) {
	var makespan, mb float64
	var hits, misses, runs int
	for _, gr := range g.grids {
		for _, r := range gr.runs {
			makespan += r.Makespan.Seconds()
			mb += r.DataLoadMB
			hits += r.CacheHits
			misses += r.CacheMisses
			runs++
		}
	}
	jobs := g.jobs()
	res.setN("makespan_sim_s", makespan/float64(max(runs, 1)), runs)
	res.setN("data_load_mb_per_job", mb/float64(max(jobs, 1)), jobs)
	res.setN("cache_miss_ratio", float64(misses)/float64(max(hits+misses, 1)), hits+misses)
}

// setSpeedup reports the headline speed-up of bidding over baseline,
// and checks the claim it rests on: pooled over the grids, bidding
// loads no more data than the baseline.
func (g *gridStats) setSpeedup(res *result) {
	var speedup []float64
	var bidMB, baseMB float64
	for _, gr := range g.grids {
		speedup = append(speedup, gr.speedup)
		bidMB += gr.bidMB
		baseMB += gr.baseMB
	}
	res.setN("bidding_speedup_pct", mean(speedup), len(speedup))
	if bidMB > baseMB {
		res.failf(1, "bidding loaded %.0f MB over the grid, baseline %.0f MB", bidMB, baseMB)
	}
}

// runReference runs the reference slice: the first RefSeeds seeds of
// sim_paper_grid, for the paper's quality metrics on the rows whose own
// traffic cannot produce them repeatably.
func runReference(rc *runCtx) (*gridStats, error) {
	ref := &gridStats{}
	t0 := time.Now()
	for i := 0; i < rc.p.RefSeeds; i++ {
		if _, err := runGrid(rc.res, rc.p, rc.seed+int64(i), nil, ref); err != nil {
			return nil, err
		}
	}
	rc.logf("reference slice: %d grids (seeds %d..%d), %d simulated jobs in %.2fs",
		len(ref.grids), rc.seed, rc.seed+int64(rc.p.RefSeeds)-1, ref.jobs(), time.Since(t0).Seconds())
	return ref, nil
}

// sameMakespans checks that two runs of the same grid agree run for run.
func sameMakespans(res *result, what string, a, b []*experiments.Cell) {
	if len(a) != len(b) {
		res.failf(1, "%s: %d cells against %d", what, len(a), len(b))
		return
	}
	for i := range a {
		for _, name := range sortedKeys(a[i].Series) {
			ra, sb := a[i].Series[name].Runs, b[i].Series[name]
			if sb == nil || len(sb.Runs) != len(ra) {
				res.failf(1, "%s: %s/%s %s has a different number of runs", what, a[i].Workload, a[i].Profile, name)
				continue
			}
			for k := range ra {
				if ra[k].Makespan != sb.Runs[k].Makespan {
					res.failf(1, "%s: %s/%s %s iteration %d took %v, then %v", what,
						a[i].Workload, a[i].Profile, name, k, ra[k].Makespan, sb.Runs[k].Makespan)
				}
			}
		}
	}
}

// stageLatencies turns allocator-side stage instants into sorted
// per-job intervals in milliseconds of virtual time.
func stageLatencies(stages map[string]*stageTimes) jobTimes {
	var jt jobTimes
	for _, s := range stages {
		if !s.done {
			continue
		}
		jt.assigned = append(jt.assigned, float64(s.Queued-s.Due)/1e6)
		jt.done = append(jt.done, float64(s.Finished-s.Due)/1e6)
		jt.ingest = append(jt.ingest, float64(s.Injected-s.Due)/1e6)
		jt.alloc = append(jt.alloc, float64(s.Queued-s.Injected)/1e6)
		jt.run = append(jt.run, float64(s.Finished-s.Queued)/1e6)
	}
	for _, s := range []*[]float64{&jt.assigned, &jt.done, &jt.ingest, &jt.alloc, &jt.run} {
		sort.Float64s(*s)
	}
	return jt
}

// tracedPolicies are the grid's two policies, decorated by tr.
func tracedPolicies(tr *tracer) []core.Policy {
	var out []core.Policy
	for _, name := range []string{"bidding", "baseline"} {
		pol, _ := core.PolicyByName(name)
		out = append(out, tr.tracedPolicy(pol))
	}
	return out
}

// gridWindow runs grids for seeds seed, seed+1, ... until at least
// minSeeds have run and the window has passed, and returns them with
// the first grid's cells.
func gridWindow(rc *runCtx, minSeeds int, policies []core.Policy) (g *gridStats, first []*experiments.Cell, wall, cpu time.Duration, err error) {
	g = &gridStats{}
	u := startUsage()
	for i := 0; ; i++ {
		if wall, _ := u.elapsed(); i >= minSeeds && wall >= rc.window() {
			break
		}
		cells, err := runGrid(rc.res, rc.p, rc.seed+int64(i), policies, g)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		if i == 0 {
			first = cells
		}
	}
	wall, cpu = u.elapsed()
	return g, first, wall, cpu, nil
}

// runSimGrid is the sim_paper_grid workload.
func runSimGrid(rc *runCtx) error {
	if rc.trace {
		return traceSimGrid(rc)
	}
	res := rc.res
	// Set-up: the grid needs no fleet; what a run pays before its first
	// timed job is one grid's worth of lazy initialisation and heap
	// growth, so that is what is repeated and timed.
	setup, n, err := rc.setUps(func(int) error {
		_, err := runGrid(res, rc.p, rc.seed, nil, nil)
		return err
	})
	if err != nil {
		return err
	}

	all, first, wall, _, err := gridWindow(rc, rc.p.GridMinSeeds, nil)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	// Quality over the first GridMinSeeds seeds: a fixed set whatever
	// the machine's speed. Every grid counts for throughput.
	quality := all.first(rc.p.GridMinSeeds)
	jobs := all.jobs()
	res.setN("setup_s", setup, n)
	setSimTimings(res, all.view(windowBlocks), float64(jobs)/float64(len(all.grids)))
	res.set("wire_bytes_per_job", quality.bytes()/float64(max(quality.jobs(), 1)))
	res.set("peak_rss_mb", rss)
	quality.setPaperMetrics(res)
	quality.setSpeedup(res)
	rc.logf("window: %d grids, %d simulated jobs in %.2fs (%.0f jobs/s over the whole window); quality over the first %d seeds",
		len(all.grids), jobs, wall.Seconds(), float64(jobs)/wall.Seconds(), len(quality.grids))

	// A same-seed rerun must reproduce every makespan.
	again, err := runGrid(res, rc.p, rc.seed, nil, nil)
	if err != nil {
		return err
	}
	sameMakespans(res, "same-seed rerun", first, again)
	return nil
}

// simRun is one simulated run (a crossflow.Run or a whole grid) as the
// timings see it.
type simRun struct {
	wall, cpu time.Duration
	jobs      int
}

// viewOfRuns cuts back-to-back simulated runs into blocks of
// consecutive runs, equally many in each; runs left over at the end
// are dropped.
func viewOfRuns(blocks int, runs []simRun) *blockView {
	size := max(1, len(runs)/max(blocks, 1))
	v := &blockView{n: len(runs) / size}
	for b := 0; b < v.n; b++ {
		var jobs int
		var wall, cpu time.Duration
		for _, r := range runs[b*size : (b+1)*size] {
			jobs += r.jobs
			wall += r.wall
			cpu += r.cpu
			v.sessions.add(b, ms(r.wall))
		}
		v.jobs = append(v.jobs, float64(jobs))
		v.secs = append(v.secs, wall.Seconds())
		v.cpuUs = append(v.cpuUs, float64(cpu.Microseconds()))
	}
	return v
}

// setSimTimings reports the timing metrics of a simulated row. A
// "session" there is one run. A simulated job has no wall-clock latency
// of its own — what the researcher waits for is the run — so the
// submit_done metrics carry a run's wall time per simulated job, and
// submit_assigned, which has no wall-clock counterpart either, repeats
// the median. (Virtual-time latencies would be constants of the
// configuration: 50.087 ms to assign on the grid at every seed.) Both
// throughput names carry the row's simulated jobs per wall second.
func setSimTimings(res *result, v *blockView, jobsPerRun float64) {
	v.setTimings(res)
	res.setN("sim_jobs_per_s", res.get("jobs_per_s"), v.sessions.count())
	runs := v.sessions.count()
	res.setN("submit_done_p50_ms", res.get("session_p50_ms")/jobsPerRun, runs)
	res.setN("submit_done_p90_ms", res.get("session_p90_ms")/jobsPerRun, runs)
	res.setN("submit_assigned_p50_ms", res.get("session_p50_ms")/jobsPerRun, runs)
}

// --- sim_fleet_w500 -----------------------------------------------------

// fleetRun is one crossflow.Run of the big-fleet configuration.
type fleetRun struct {
	rep      *crossflow.Report
	arrivals []crossflow.Arrival
	wall     time.Duration
	cpu      time.Duration
}

// runFleet runs the fleet_w500_bidding configuration of internal/bench
// once: FleetJobs jobs over FleetKeys keys at FleetGap spacing, broadcast
// bidding over FleetW cold workers. run names the job IDs and, with the
// seed, draws the data keys and seeds the workers. A non-nil tracer
// decorates the policy and the task body.
func runFleet(res *result, p params, seed int64, run int, tr *tracer) (*fleetRun, error) {
	workers := make([]*crossflow.Worker, p.FleetW)
	for j := range workers {
		workers[j] = crossflow.NewWorker(crossflow.WorkerSpec{
			Name: fmt.Sprintf("w%04d", j),
			Net:  crossflow.Speed{BaseMBps: 25},
			RW:   crossflow.Speed{BaseMBps: 100},
			Seed: seed*10000 + int64(j) + 1,
		})
	}
	sched := crossflow.Bidding()
	task := engine.TaskFunc(engine.DefaultTask)
	if tr != nil {
		sched = tr.tracedPolicy(sched)
		task = tr.tracedTask(task)
	}
	wf := crossflow.NewWorkflow("benchmark")
	wf.MustAddTask(crossflow.TaskSpec{Name: "t", Input: "jobs", Fn: task})
	rng := rand.New(rand.NewSource(seed))
	arrivals := make([]crossflow.Arrival, p.FleetJobs)
	for j := range arrivals {
		arrivals[j] = crossflow.Arrival{
			At: time.Duration(j) * fleetGap,
			Job: &crossflow.Job{
				ID: fmt.Sprintf("r%d-j%03d", run, j), Stream: "jobs",
				DataKey: fmt.Sprintf("r%d", rng.Intn(p.FleetKeys)), DataSizeMB: 100,
			},
		}
	}
	res.attempt(len(arrivals))
	u := startUsage()
	rep, err := crossflow.Run(crossflow.Config{
		Workers: workers, Scheduler: sched, Workflow: wf, Arrivals: arrivals, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet run %d: %w", run, err)
	}
	fr := &fleetRun{rep: rep, arrivals: arrivals}
	fr.wall, fr.cpu = u.elapsed()
	fr.verify(res, workers)
	return fr, nil
}

// verify checks one fleet run's outputs.
func (fr *fleetRun) verify(res *result, workers []*crossflow.Worker) {
	rep, n := fr.rep, len(fr.arrivals)
	if rep.JobsCompleted != n || rep.JobsFailed != 0 {
		res.failf(abs(n-rep.JobsCompleted)+rep.JobsFailed, "fleet run completed %d of %d jobs, %d failed", rep.JobsCompleted, n, rep.JobsFailed)
	}
	if len(rep.Records) != n {
		res.failf(abs(len(rep.Records)-n), "fleet run has %d records for %d jobs", len(rep.Records), n)
	}
	members := make(map[string]bool, len(workers))
	for _, w := range workers {
		members[w.Spec.Name] = true
	}
	for _, a := range fr.arrivals {
		if checkRecord(res, a.Job.ID, rep.Records[a.Job.ID], members) {
			res.pass(1)
		}
	}
	done := 0
	for _, w := range rep.Workers {
		done += w.JobsDone
	}
	if done != n {
		res.failf(abs(done-n), "fleet workers executed %d jobs, %d arrived", done, n)
	}
	if rep.CacheHits+rep.CacheMisses != n {
		res.failf(abs(rep.CacheHits+rep.CacheMisses-n), "fleet cache hits %d + misses %d != %d jobs", rep.CacheHits, rep.CacheMisses, n)
	}
}

// summary is the run in the shape the grid's accounting uses.
func (fr *fleetRun) summary() metrics.RunSummary { return metrics.FromReport(fr.rep) }

// times appends the run's per-job intervals in virtual milliseconds.
func (fr *fleetRun) times(jt *jobTimes) {
	for _, a := range fr.arrivals {
		rec := fr.rep.Records[a.Job.ID]
		if rec == nil || rec.Status != engine.StatusFinished {
			continue
		}
		due := fr.rep.Start.Add(a.At)
		jt.assigned = append(jt.assigned, ms(rec.Queued.Sub(due)))
		jt.done = append(jt.done, ms(rec.Finished.Sub(due)))
		jt.ingest = append(jt.ingest, ms(rec.Injected.Sub(due)))
		jt.alloc = append(jt.alloc, ms(rec.Queued.Sub(rec.Injected)))
		jt.run = append(jt.run, ms(rec.Finished.Sub(rec.Queued)))
	}
}

// fleetWindow runs the fleet configuration back to back, run i on seed
// seed+i, until at least minRuns have run and the window has passed.
type fleetWindow struct {
	runs      []*fleetRun
	wall, cpu time.Duration
	mem       memDelta
}

func runFleetWindow(rc *runCtx, minRuns int, tr *tracer) (*fleetWindow, error) {
	w := &fleetWindow{}
	mem0 := readMem()
	u := startUsage()
	for i := 0; ; i++ {
		if wall, _ := u.elapsed(); i >= minRuns && wall >= rc.window() {
			break
		}
		fr, err := runFleet(rc.res, rc.p, rc.seed+int64(i), i, tr)
		if err != nil {
			return nil, err
		}
		w.runs = append(w.runs, fr)
	}
	w.wall, w.cpu = u.elapsed()
	w.mem = memSince(mem0)
	return w, nil
}

func (w *fleetWindow) jobs() int {
	n := 0
	for _, fr := range w.runs {
		n += fr.rep.JobsCompleted
	}
	return n
}

// runSimFleet is the sim_fleet_w500 workload.
func runSimFleet(rc *runCtx) error {
	if rc.trace {
		return traceSimFleet(rc)
	}
	res := rc.res
	// Set-up: as on the grid, one run's worth of lazy initialisation.
	// Broadcast bidding against an idle 500-worker fleet has no
	// baseline worth a ratio; the headline speed-up on this row is the
	// reference slice's.
	ref, err := runReference(rc)
	if err != nil {
		return err
	}
	setup, n, err := rc.setUps(func(i int) error {
		_, err := runFleet(res, rc.p, rc.seed, -1-i, nil)
		return err
	})
	if err != nil {
		return err
	}

	w, err := runFleetWindow(rc, rc.p.FleetMinRuns, nil)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	jobs := w.jobs()

	// Quality over the first FleetMinRuns runs: a fixed set whatever the
	// machine's speed. Every run counts for throughput.
	var q gridResult
	runs := make([]simRun, 0, len(w.runs))
	fs := sizeFrames(w.runs[0].arrivals[0].Job, "w0000")
	for i, fr := range w.runs {
		runs = append(runs, simRun{fr.wall, fr.cpu, fr.rep.JobsCompleted})
		if i >= rc.p.FleetMinRuns {
			continue
		}
		s := fr.summary()
		q.runs = append(q.runs, s)
		q.bytes += fs.wireBytes(s)
	}
	quality := &gridStats{grids: []gridResult{q}}

	res.setN("setup_s", setup, n)
	setSimTimings(res, viewOfRuns(windowBlocks, runs), float64(rc.p.FleetJobs))
	res.set("wire_bytes_per_job", q.bytes/float64(max(quality.jobs(), 1)))
	res.set("peak_rss_mb", rss)
	quality.setPaperMetrics(res)
	rc.logf("window: %d runs, %d simulated jobs in %.2fs (%.0f jobs/s over the whole window); quality over the first %d runs",
		len(w.runs), jobs, w.wall.Seconds(), float64(jobs)/w.wall.Seconds(), len(q.runs))

	// A same-seed rerun must reproduce the makespan.
	again, err := runFleet(res, rc.p, rc.seed, 0, nil)
	if err != nil {
		return err
	}
	if again.rep.Makespan != w.runs[0].rep.Makespan {
		res.failf(1, "same-seed fleet rerun took %v, then %v", w.runs[0].rep.Makespan, again.rep.Makespan)
	}

	ref.setSpeedup(res)
	return nil
}
