// Package bench defines the fixed benchmark suite cmd/xflow-bench
// runs: the simulation kernel's hot-path microbenches plus the
// Figure-2/Figure-3 experiment benches, each expressed as a
// func(*testing.B) so one binary can execute them via
// testing.Benchmark and collect ns/op, allocs/op and the custom
// metrics uniformly.
//
// The suite is intentionally small and stable: CI compares every run
// against a checked-in baseline by benchmark name, so a benchmark that
// disappears fails the comparison. Add new entries freely; rename or
// remove only together with the baseline.
package bench

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
	"time"

	"crossflow"
	"crossflow/internal/broker"
	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/experiments"
	"crossflow/internal/netsim"
	"crossflow/internal/storage"
	"crossflow/internal/vclock"
	"crossflow/internal/workload"
)

// Spec is one suite entry. Name is the identity CI diffs on; Group
// buckets related entries for reporting ("kernel", "engine",
// "experiment").
type Spec struct {
	Name  string
	Group string
	F     func(b *testing.B)
}

// Suite returns the fixed benchmark list in execution order.
func Suite() []Spec {
	return []Spec{
		{"vclock_sleep_events", "kernel", benchSleepEvents},
		{"vclock_mailbox_pingpong", "kernel", benchMailboxPingPong},
		{"vclock_afterfunc_timers", "kernel", benchAfterFuncTimers},
		{"vclock_sendafter", "kernel", benchSendAfter},
		{"broker_direct_send", "kernel", benchDirectSend},
		{"broker_publish_fanout", "kernel", benchPublishFanout},
		{"broker_deliver_sim", "kernel", benchDeliverSim},
		{"storage_cache_put_access", "kernel", benchCachePutAccess},
		{"engine_throughput", "engine", benchEngineThroughput},
		{"serve_w50", "engine", benchServeSteadyState},
		{"fleet_w5_bidding", "scale", benchFleetScaling(5, crossflow.Bidding)},
		{"fleet_w5_bidding_topk", "scale", benchFleetScaling(5, crossflow.BiddingTopK)},
		{"fleet_w50_bidding", "scale", benchFleetScaling(50, crossflow.Bidding)},
		{"fleet_w50_bidding_topk", "scale", benchFleetScaling(50, crossflow.BiddingTopK)},
		{"fleet_w500_bidding", "scale", benchFleetScaling(500, crossflow.Bidding)},
		{"fleet_w500_bidding_topk", "scale", benchFleetScaling(500, crossflow.BiddingTopK)},
		{"fleet_w2000_bidding", "scale", benchFleetScaling(2000, crossflow.Bidding)},
		{"fleet_w2000_bidding_topk", "scale", benchFleetScaling(2000, crossflow.BiddingTopK)},
		{"fleet_shard_s1_w500", "scale", benchShardScaling(1, 500)},
		{"fleet_shard_s2_w500", "scale", benchShardScaling(2, 500)},
		{"fleet_shard_s4_w500", "scale", benchShardScaling(4, 500)},
		{"figure2_group1_fastslow_large", "experiment", benchFigure2Group1},
		{"figure3_rep80small_fastslow", "experiment", benchFigure3Cell},
	}
}

// --- kernel -----------------------------------------------------------------

// benchSleepEvents measures raw event throughput of the simulated
// clock: one goroutine sleeping in a tight loop.
func benchSleepEvents(b *testing.B) {
	s := vclock.NewSim()
	b.ReportAllocs()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Second)
		}
	})
	s.Wait()
}

// benchMailboxPingPong measures one full handoff cycle: send, wake,
// receive, reply.
func benchMailboxPingPong(b *testing.B) {
	s := vclock.NewSim()
	a, c := s.NewMailbox("a"), s.NewMailbox("b")
	b.ReportAllocs()
	// One tracked driver starts both sides: started from this untracked
	// goroutine, the receiver could park before the sender registered
	// and the clock would report a deadlock.
	s.Go(func() {
		s.Go(func() {
			for i := 0; i < b.N; i++ {
				v, _ := a.Recv()
				c.Send(v)
			}
		})
		s.Go(func() {
			for i := 0; i < b.N; i++ {
				a.Send(i)
				c.Recv()
			}
		})
	})
	s.Wait()
}

// benchAfterFuncTimers measures timer scheduling and firing.
func benchAfterFuncTimers(b *testing.B) {
	s := vclock.NewSim()
	b.ReportAllocs()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			done := s.NewMailbox("t")
			s.AfterFunc(time.Second, func() { done.Send(struct{}{}) })
			done.Recv()
		}
	})
	s.Wait()
}

// benchSendAfter measures the message path's primitive: one timed
// delivery into a parked receiver's mailbox. The AfterFunc+Send pair it
// replaced on that path is vclock_afterfunc_timers.
func benchSendAfter(b *testing.B) {
	s := vclock.NewSim()
	mb := s.NewMailbox("t")
	msg := &struct{}{}
	b.ReportAllocs()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.SendAfter(time.Second, mb, msg)
			mb.Recv()
		}
	})
	s.Wait()
}

// benchDirectSend measures point-to-point delivery throughput on the
// simulated clock with zero latency.
func benchDirectSend(b *testing.B) {
	sim := vclock.NewSim()
	bus := broker.New(sim)
	src := bus.Register("src", 0)
	dst := bus.Register("dst", 0)
	b.ReportAllocs()
	sim.Go(func() {
		for i := 0; i < b.N; i++ {
			src.Send("dst", i)
			dst.Inbox().Recv()
		}
	})
	sim.Wait()
}

// benchPublishFanout measures a bid-request broadcast to a five-worker
// fleet.
func benchPublishFanout(b *testing.B) {
	sim := vclock.NewSim()
	bus := broker.New(sim)
	master := bus.Register("master", 0)
	subs := make([]*broker.Endpoint, 5)
	for i := range subs {
		subs[i] = bus.Register(string(rune('a'+i)), 0)
		subs[i].Subscribe("bids")
	}
	b.ReportAllocs()
	sim.Go(func() {
		for i := 0; i < b.N; i++ {
			master.Publish("bids", i)
			for _, s := range subs {
				s.Inbox().Recv()
			}
		}
	})
	sim.Wait()
}

// benchDeliverSim measures the broker's timed delivery path at fleet
// width: one publish to 500 subscribers over 1ms links — 500 clock
// events — received by one goroutine. ns/op is per publish; the
// ns_per_delivery metric is the number sim_fleet_w500 pays 1000 times a
// job.
func benchDeliverSim(b *testing.B) {
	const fleet = 500
	sim := vclock.NewSim()
	bus := broker.New(sim)
	master := bus.Register("master", time.Millisecond)
	subs := make([]*broker.Endpoint, fleet)
	for i := range subs {
		subs[i] = bus.Register(fmt.Sprintf("w%04d", i), time.Millisecond)
		subs[i].Subscribe("bids")
	}
	b.ReportAllocs()
	sim.Go(func() {
		for i := 0; i < b.N; i++ {
			master.Publish("bids", i)
			for _, s := range subs {
				s.Inbox().Recv()
			}
		}
	})
	sim.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fleet), "ns_per_delivery")
}

// benchCachePutAccess measures the hot path of worker execution: one
// Access plus one Put per job under steady eviction pressure.
func benchCachePutAccess(b *testing.B) {
	c := storage.New(1000)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("repo-%03d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if !c.Access(k) {
			c.Put(k, 25)
		}
	}
}

// --- engine -----------------------------------------------------------------

// benchEngineThroughput measures the simulator end to end: simulated
// jobs executed per second of wall time, the capacity-planning number
// for larger studies.
func benchEngineThroughput(b *testing.B) {
	const jobs = 120
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workers := make([]*crossflow.Worker, 5)
		for j := range workers {
			workers[j] = crossflow.NewWorker(crossflow.WorkerSpec{
				Name: fmt.Sprintf("w%d", j),
				Net:  crossflow.Speed{BaseMBps: 25},
				RW:   crossflow.Speed{BaseMBps: 100},
				Seed: int64(j + 1),
			})
		}
		wf := crossflow.NewWorkflow("bench")
		wf.MustAddTask(crossflow.TaskSpec{Name: "t", Input: "jobs"})
		arrivals := make([]crossflow.Arrival, jobs)
		for j := range arrivals {
			arrivals[j] = crossflow.Arrival{Job: &crossflow.Job{
				Stream: "jobs", DataKey: fmt.Sprintf("r%d", j%40), DataSizeMB: 100,
			}}
		}
		rep, err := crossflow.Run(crossflow.Config{
			Workers: workers, Scheduler: crossflow.Bidding(), Workflow: wf, Arrivals: arrivals,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.JobsCompleted != jobs {
			b.Fatalf("completed %d", rep.JobsCompleted)
		}
	}
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*jobs)/elapsed, "sim_jobs_per_sec")
	}
}

// benchServeSteadyState measures the long-lived cluster runtime in its
// deployment shape: one 50-worker fleet stays up while workflow
// sessions stream through it back to back, caches staying warm across
// sessions. Each op is one full session (open, paced submits, close,
// report); the headline metric is steady-state jobs per second of wall
// time.
func benchServeSteadyState(b *testing.B) {
	const (
		fleet = 50
		jobs  = 120
		keys  = 40
	)
	pol, _ := core.PolicyByName("bidding")
	clk := vclock.NewSim()
	states := make([]*engine.WorkerState, fleet)
	for j := range states {
		states[j] = engine.NewWorkerState(engine.WorkerSpec{
			Name: fmt.Sprintf("w%04d", j),
			Net:  netsim.Speed{BaseMBps: 25},
			RW:   netsim.Speed{BaseMBps: 100},
			Seed: int64(j + 1),
		}, nil)
	}
	c, err := engine.NewCluster(engine.ClusterConfig{
		Clock:     clk,
		Workers:   states,
		Allocator: pol.NewAllocator(),
		NewAgent:  pol.NewAgent,
	})
	if err != nil {
		b.Fatal(err)
	}
	wf := engine.NewWorkflow("serve")
	wf.MustAddTask(engine.TaskSpec{Name: "t", Input: "jobs"})

	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan error, 1)
	c.Start(func() {
		err := func() error {
			c.WaitReady()
			for i := 0; i < b.N; i++ {
				sess, err := c.Open(fmt.Sprintf("s%d", i), wf)
				if err != nil {
					return err
				}
				for j := 0; j < jobs; j++ {
					sess.Submit(&engine.Job{
						ID:         fmt.Sprintf("s%d-j%d", i, j),
						Stream:     "jobs",
						DataKey:    fmt.Sprintf("r%d", j%keys),
						DataSizeMB: 100,
					})
					clk.Sleep(time.Second)
				}
				sess.Close()
				rep := sess.Wait()
				if rep == nil {
					return fmt.Errorf("session s%d: no report", i)
				}
				if rep.JobsCompleted != jobs {
					return fmt.Errorf("session s%d completed %d of %d", i, rep.JobsCompleted, jobs)
				}
			}
			return nil
		}()
		c.Stop()
		done <- err
	})
	c.Wait()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*jobs)/elapsed, "serve_jobs_per_sec")
	}
}

// --- fleet scaling ----------------------------------------------------------

// wireSize returns the steady-state gob encoding size of one message,
// the broker-independent estimate of its on-the-wire cost (the TCP
// transport frames exactly these encodings). Encoded twice so the
// one-time type descriptor is excluded.
func wireSize(msg any) float64 {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(msg); err != nil {
		panic(err)
	}
	first := buf.Len()
	if err := enc.Encode(msg); err != nil {
		panic(err)
	}
	return float64(buf.Len() - first)
}

// benchFleetScaling measures the bidding contest protocols as the fleet
// grows: the same 160-job, 40-key workload dispatched to W workers
// under broadcast contests (bidding) or index-targeted contests
// (bidding-topk). Beyond wall time it reports the scheduling wire cost
// — contest messages and estimated KB per job, request plus returned
// bids — and cache misses per job, the locality price of not asking
// everyone.
func benchFleetScaling(fleet int, sched func() crossflow.Scheduler) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			jobs = 160
			keys = 40
		)
		reqSize := wireSize(engine.MsgBidRequest{Job: &engine.Job{
			ID: "job-0123", Stream: "jobs", DataKey: "repo-0123", DataSizeMB: 100,
		}})
		bidSize := wireSize(engine.MsgBid{
			JobID: "job-0123", Worker: "w0123",
			Estimate: 5 * time.Second, JobCost: 5 * time.Second,
		})
		var msgsPerJob, kbPerJob, missesPerJob float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workers := make([]*crossflow.Worker, fleet)
			for j := range workers {
				workers[j] = crossflow.NewWorker(crossflow.WorkerSpec{
					Name: fmt.Sprintf("w%04d", j),
					Net:  crossflow.Speed{BaseMBps: 25},
					RW:   crossflow.Speed{BaseMBps: 100},
					Seed: int64(j + 1),
				})
			}
			wf := crossflow.NewWorkflow("bench")
			wf.MustAddTask(crossflow.TaskSpec{Name: "t", Input: "jobs"})
			arrivals := make([]crossflow.Arrival, jobs)
			for j := range arrivals {
				// 2s spacing keeps arrivals past the bid window, so the
				// location index warms before repeat keys recur.
				arrivals[j] = crossflow.Arrival{
					At: time.Duration(j) * 2 * time.Second,
					Job: &crossflow.Job{
						Stream: "jobs", DataKey: fmt.Sprintf("r%d", j%keys), DataSizeMB: 100,
					},
				}
			}
			rep, err := crossflow.Run(crossflow.Config{
				Workers: workers, Scheduler: sched(), Workflow: wf, Arrivals: arrivals,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.JobsCompleted != jobs {
				b.Fatalf("completed %d of %d", rep.JobsCompleted, jobs)
			}
			msgsPerJob = float64(rep.ContestMsgs+rep.Bids) / jobs
			kbPerJob = (float64(rep.ContestMsgs)*reqSize + float64(rep.Bids)*bidSize) / jobs / 1024
			missesPerJob = float64(rep.CacheMisses) / jobs
		}
		b.ReportMetric(msgsPerJob, "contest_msgs_per_job")
		b.ReportMetric(kbPerJob, "contest_kb_per_job")
		b.ReportMetric(missesPerJob, "cache_misses_per_job")
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(b.N*jobs)/elapsed, "sim_jobs_per_sec")
		}
	}
}

// benchShardScaling measures the sharded control plane against the
// single master it replaces: the same 500-worker fleet and 240-job,
// 60-key workload, dispatched through S contest shards. Arrivals come
// in bursts of 8 jobs at the same instant: the simulated clock runs
// same-instant events on parallel OS threads, so a burst's contests —
// and the 500 bids each one draws — land on one serialized master loop
// at S=1 but spread across shard loops at S>1. That burst contention is
// the workload a sharded control plane exists to absorb, and the
// jobs-per-second delta across the ladder is the price/win of the
// router hop versus parallel contest processing. S=1 is the classic
// single master, the ladder's baseline row.
func benchShardScaling(shards, fleet int) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			jobs  = 240
			keys  = 60
			burst = 8
		)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			workers := make([]*crossflow.Worker, fleet)
			for j := range workers {
				workers[j] = crossflow.NewWorker(crossflow.WorkerSpec{
					Name: fmt.Sprintf("w%04d", j),
					Net:  crossflow.Speed{BaseMBps: 25},
					RW:   crossflow.Speed{BaseMBps: 100},
					Seed: int64(j + 1),
				})
			}
			wf := crossflow.NewWorkflow("bench")
			wf.MustAddTask(crossflow.TaskSpec{Name: "t", Input: "jobs"})
			arrivals := make([]crossflow.Arrival, jobs)
			for j := range arrivals {
				arrivals[j] = crossflow.Arrival{
					At: time.Duration(j/burst) * 800 * time.Millisecond,
					Job: &crossflow.Job{
						Stream: "jobs", DataKey: fmt.Sprintf("r%d", j%keys), DataSizeMB: 100,
					},
				}
			}
			rep, err := crossflow.Run(crossflow.Config{
				Workers: workers, Scheduler: crossflow.Bidding(), Shards: shards,
				Workflow: wf, Arrivals: arrivals,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.JobsCompleted != jobs {
				b.Fatalf("completed %d of %d", rep.JobsCompleted, jobs)
			}
		}
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(b.N*jobs)/elapsed, "sim_jobs_per_sec")
		}
	}
}

// --- experiments ------------------------------------------------------------

// benchFigure2Group1 regenerates Figure 2's first column group
// (Spark-like vs Crossflow-Baseline, fast/slow fleet, all-different
// large jobs) and reports the headline ratio alongside simulator cost.
func benchFigure2Group1(b *testing.B) {
	const jobsPerOp = 2 * 120 // two policies, one iteration each
	var ratio float64
	for i := 0; i < b.N; i++ {
		spark, _ := core.PolicyByName("spark-like")
		base, _ := core.PolicyByName("baseline")
		cell, err := experiments.RunCell(workload.AllDiffLarge, cluster.FastSlow, experiments.SimOptions{
			Iterations: 1, Seed: 1,
			Policies: []core.Policy{spark, base},
		})
		if err != nil {
			b.Fatal(err)
		}
		ratio = cell.Series["spark-like"].MeanSeconds() / cell.Series["baseline"].MeanSeconds()
	}
	b.ReportMetric(ratio, "spark_over_crossflow_ratio")
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*jobsPerOp)/elapsed, "sim_jobs_per_sec")
	}
}

// benchFigure3Cell regenerates one Figure-3 cell (Bidding vs Baseline,
// repetitive-small workload on the fast/slow fleet, the paper's
// three warm-cache iterations) and reports the speedup metric.
func benchFigure3Cell(b *testing.B) {
	const jobsPerOp = 2 * 3 * 120 // two policies, three iterations each
	var speedup float64
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCell(workload.Rep80Small, cluster.FastSlow,
			experiments.SimOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		speedup = cell.Series["baseline"].MeanSeconds() / cell.Series["bidding"].MeanSeconds()
	}
	b.ReportMetric(speedup, "speedup_ratio")
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*jobsPerOp)/elapsed, "sim_jobs_per_sec")
	}
}
