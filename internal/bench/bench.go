// Package bench holds the repo's layer benchmarks: the simulation
// kernel's hot-path microbenches, the engine's throughput and serve
// benches, and the fleet and shard scaling ladders, each a
// func(*testing.B). Every body lives here once. `go test -bench
// Suite/<name> ./internal/bench` runs one; the repository benchmark
// (benchmark/probes.go) runs some of them by name through
// testing.Benchmark, so rename or remove those only together with it.
// The paper's figures are the Benchmark* functions in the root
// package.
package bench

import (
	"fmt"
	"testing"
	"time"

	"crossflow"
	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/storage"
	"crossflow/internal/vclock"
)

// Spec is one suite entry; Name is how callers find it.
type Spec struct {
	Name string
	F    func(b *testing.B)
}

// Suite returns the fixed benchmark list in execution order.
func Suite() []Spec {
	return []Spec{
		{"vclock_sleep_events", benchSleepEvents},
		{"vclock_mailbox_pingpong", benchMailboxPingPong},
		{"vclock_afterfunc_timers", benchAfterFuncTimers},
		{"vclock_sendafter", benchSendAfter},
		{"broker_direct_send", benchDirectSend},
		{"broker_publish_fanout", benchPublishFanout},
		{"broker_deliver_sim", benchDeliverSim},
		{"storage_cache_put_access", benchCachePutAccess},
		{"engine_throughput", benchEngineThroughput},
		{"serve_w50", benchServeSteadyState},
		{"fleet_w5_bidding", benchFleetScaling(5, crossflow.Bidding)},
		{"fleet_w5_bidding_topk", benchFleetScaling(5, crossflow.BiddingTopK)},
		{"fleet_w50_bidding", benchFleetScaling(50, crossflow.Bidding)},
		{"fleet_w50_bidding_topk", benchFleetScaling(50, crossflow.BiddingTopK)},
		{"fleet_w500_bidding", benchFleetScaling(500, crossflow.Bidding)},
		{"fleet_w500_bidding_topk", benchFleetScaling(500, crossflow.BiddingTopK)},
		{"fleet_w2000_bidding", benchFleetScaling(2000, crossflow.Bidding)},
		{"fleet_w2000_bidding_topk", benchFleetScaling(2000, crossflow.BiddingTopK)},
		{"fleet_shard_s1_w500", benchShardScaling(1, 500)},
		{"fleet_shard_s2_w500", benchShardScaling(2, 500)},
		{"fleet_shard_s4_w500", benchShardScaling(4, 500)},
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
		runFleet(b, crossflow.Config{Scheduler: crossflow.Bidding()}, 5, jobs, 40,
			func(int) time.Duration { return 0 })
	}
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(b.N*jobs)/elapsed, "sim_jobs_per_sec")
	}
}

// runFleet runs cfg through crossflow.Run on a fleet of identical
// workers with jobs arrivals, job j arriving at at(j) for data key
// r<j%keys>, and fails b unless every job completes.
func runFleet(b *testing.B, cfg crossflow.Config, fleet, jobs, keys int, at func(j int) time.Duration) *crossflow.Report {
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
		arrivals[j] = crossflow.Arrival{At: at(j), Job: &crossflow.Job{
			Stream: "jobs", DataKey: fmt.Sprintf("r%d", j%keys), DataSizeMB: 100,
		}}
	}
	cfg.Workers, cfg.Workflow, cfg.Arrivals = workers, wf, arrivals
	rep, err := crossflow.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if rep.JobsCompleted != jobs {
		b.Fatalf("completed %d of %d", rep.JobsCompleted, jobs)
	}
	return rep
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
		Clock:        clk,
		Workers:      states,
		NewAllocator: pol.NewAllocator,
		NewAgent:     pol.NewAgent,
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

// benchFleetScaling measures the bidding contest protocols as the fleet
// grows: the same 160-job, 40-key workload dispatched to W workers
// under broadcast contests (bidding) or index-targeted contests
// (bidding-topk). Beyond wall time it reports the scheduling traffic —
// contest messages per job, request plus returned bids — and cache
// misses per job, the locality price of not asking everyone. Their
// bytes on a real wire are the repository benchmark's
// wire_bytes_per_job.
func benchFleetScaling(fleet int, sched func() crossflow.Scheduler) func(b *testing.B) {
	return func(b *testing.B) {
		const (
			jobs = 160
			keys = 40
		)
		var msgsPerJob, missesPerJob float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// 2s spacing keeps arrivals past the bid window, so the
			// location index warms before repeat keys recur.
			rep := runFleet(b, crossflow.Config{Scheduler: sched()}, fleet, jobs, keys,
				func(j int) time.Duration { return time.Duration(j) * 2 * time.Second })
			msgsPerJob = float64(rep.ContestMsgs+rep.Bids) / jobs
			missesPerJob = float64(rep.CacheMisses) / jobs
		}
		b.ReportMetric(msgsPerJob, "contest_msgs_per_job")
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
			runFleet(b, crossflow.Config{Scheduler: crossflow.Bidding(), Shards: shards}, fleet, jobs, keys,
				func(j int) time.Duration { return time.Duration(j/burst) * 800 * time.Millisecond })
		}
		if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
			b.ReportMetric(float64(b.N*jobs)/elapsed, "sim_jobs_per_sec")
		}
	}
}
