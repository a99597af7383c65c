package engine_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/simtest"
	"crossflow/internal/vclock"
)

// TestRunEqualsOneSession pins what Run is: one session on a Cluster.
// The same seed, fleet, arrivals and fault plan (a kill and a drain)
// driven by hand through NewCluster → Start → WaitReady → Open →
// Schedule → Wait → Stop — the calls a long-lived deployment makes —
// must produce the same allocation trace and the same report as Run,
// on the single master and on the two-shard plane.
func TestRunEqualsOneSession(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		const seed = 11
		arrivals := func() []engine.Arrival {
			arr := make([]engine.Arrival, 14)
			for i := range arr {
				arr[i] = engine.Arrival{
					At: time.Duration(i) * 700 * time.Millisecond,
					Job: &engine.Job{
						ID:         fmt.Sprintf("j%02d", i),
						Stream:     "work",
						DataKey:    fmt.Sprintf("k%d", i%5),
						DataSizeMB: 40,
					},
				}
			}
			return arr
		}
		const killAt, drainAt = 3 * time.Second, 4 * time.Second

		runTrace := engine.NewTraceLog()
		runRep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      testCluster(4, 20, 100, 0),
				Shards:       shards,
				NewAllocator: func() engine.Allocator { return core.NewBidding() },
				NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
				Seed:         seed,
				Tracer:       runTrace,
			},
			Workflow: dataWorkflow(),
			Arrivals: arrivals(),
			Kills:    []engine.Kill{{Worker: "w3", At: killAt}},
			Drains:   []engine.Drain{{Worker: "w1", At: drainAt}},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if runRep.Redispatched == 0 {
			t.Fatal("the kill rescued nothing; the fault plan does not bite")
		}

		states := testCluster(4, 20, 100, 0)
		handTrace := engine.NewTraceLog()
		c, err := engine.NewCluster(biddingPlane(shards, engine.ClusterConfig{
			Workers: states,
			Seed:    seed,
			Tracer:  handTrace,
		}))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		nodes := make([]*engine.Worker, len(states))
		for i, st := range states {
			nodes[i] = c.Node(st.Spec.Name) // Leave and Drain forget their member
		}
		c.Clock().AfterFunc(killAt, func() { c.Leave("w3") })
		c.Clock().AfterFunc(drainAt, func() { c.Drain("w1") })
		var handRep *engine.Report
		c.Start(func() {
			c.WaitReady()
			sess, err := c.Open("", dataWorkflow())
			if err != nil {
				t.Errorf("Open: %v", err)
				c.Stop()
				return
			}
			sess.Schedule(arrivals())
			handRep = sess.Wait()
			c.Stop()
		})
		c.Wait()
		if handRep == nil {
			t.Fatal("hand-driven session returned no report")
		}
		// Run's report is the session's plus each worker's share.
		for i, st := range states {
			stats := st.Cache.Stats()
			wr := engine.WorkerReport{
				Name:        st.Spec.Name,
				JobsDone:    nodes[i].JobsDone(),
				BusyTime:    nodes[i].BusyTime(),
				CacheHits:   stats.Hits,
				CacheMisses: stats.Misses,
				Evictions:   stats.Evictions,
				DataLoadMB:  st.Link.DownloadedMB(),
				Downloads:   st.Link.Downloads(),
			}
			handRep.Workers = append(handRep.Workers, wr)
			handRep.CacheHits += wr.CacheHits
			handRep.CacheMisses += wr.CacheMisses
			handRep.Evictions += wr.Evictions
			handRep.DataLoadMB += wr.DataLoadMB
			handRep.Downloads += wr.Downloads
		}

		if run, hand := simtest.FormatTrace(runTrace.Events()), simtest.FormatTrace(handTrace.Events()); run != hand {
			t.Errorf("traces differ\n--- Run ---\n%s--- by hand ---\n%s", run, hand)
		}
		if run, hand := simtest.FormatReport(runRep), simtest.FormatReport(handRep); run != hand {
			t.Errorf("reports differ\n--- Run ---\n%s--- by hand ---\n%s", run, hand)
		}
	})
}

// sampledSpark is the round-robin allocator sampling the goroutine
// count whenever the master hands it a submitted job.
type sampledSpark struct {
	*core.SparkLikeAllocator
	peak int
}

func (a *sampledSpark) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	a.peak = max(a.peak, runtime.NumGoroutine())
	a.SparkLikeAllocator.JobReady(ctx, job)
}

// TestScheduledArrivalsSpawnNoGoroutine: a session's scheduled feed is
// clock events. Schedule parks 10 000 submissions and the close in the
// kernel's heap without starting anything, and each one is taken in by
// the master on the goroutine advancing the clock — whereas every
// Submit from a sleeping driver is a direct send that costs a served
// inbox one drain goroutine.
func TestScheduledArrivalsSpawnNoGoroutine(t *testing.T) {
	const jobs = 10_000
	arrivals := make([]engine.Arrival, jobs)
	for i := range arrivals {
		arrivals[i] = engine.Arrival{
			At:  time.Duration(i) * time.Millisecond,
			Job: &engine.Job{Stream: "work", DataKey: fmt.Sprintf("k%d", i%3), DataSizeMB: 0.001},
		}
	}
	alloc := &sampledSpark{SparkLikeAllocator: core.NewSparkLike()}
	c, err := engine.NewCluster(engine.ClusterConfig{
		Clock:        vclock.NewSim(),
		Workers:      testCluster(1, 1000, 1000, 0),
		NewAllocator: func() engine.Allocator { return alloc },
		NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewPassiveAgent() },
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var before, scheduled int
	var rep *engine.Report
	c.Start(func() {
		c.WaitReady()
		before = runtime.NumGoroutine()
		sess, err := c.Open("", dataWorkflow())
		if err != nil {
			t.Errorf("Open: %v", err)
			c.Stop()
			return
		}
		// Open's direct send cost the served inbox a drain goroutine.
		// Park once so it is through: were this driver to park in Wait
		// first, that goroutine would be the one advancing the clock and
		// would take in the first arrivals itself, counted in the peak.
		c.Clock().Sleep(time.Millisecond)
		sess.Schedule(arrivals)
		scheduled = runtime.NumGoroutine()
		rep = sess.Wait()
		c.Stop()
	})
	c.Wait()
	if rep == nil || rep.JobsCompleted != jobs {
		t.Fatalf("report = %+v, want %d jobs completed", rep, jobs)
	}
	// The drain goroutine may still be on its way out.
	if scheduled > before+1 {
		t.Errorf("Schedule started goroutines: %d before, %d after", before, scheduled)
	}
	if alloc.peak > before {
		t.Errorf("taking in %d scheduled jobs raised the goroutine count from %d to %d", jobs, before, alloc.peak)
	}
}

// sampledBidding is the bidding allocator sampling the goroutine count
// whenever a bid reaches the master.
type sampledBidding struct {
	engine.Allocator
	bids, peak int
}

func (a *sampledBidding) BidReceived(ctx engine.AllocCtx, bid engine.MsgBid) {
	a.bids++
	a.peak = max(a.peak, runtime.NumGoroutine())
	a.Allocator.BidReceived(ctx, bid)
}

// TestWorkerTimersSpawnNoGoroutine: a worker's bid delay is a timer on
// its served timer mailbox. Its firing sends the bid on the goroutine
// advancing the clock, so contests with a bid delay start nothing: the
// goroutine count whenever a bid lands is what it was before the jobs
// were scheduled.
func TestWorkerTimersSpawnNoGoroutine(t *testing.T) {
	const jobs = 200
	arrivals := make([]engine.Arrival, jobs)
	for i := range arrivals {
		arrivals[i] = engine.Arrival{
			At:  time.Duration(i) * 50 * time.Millisecond,
			Job: &engine.Job{Stream: "work", DataKey: fmt.Sprintf("k%d", i%3), DataSizeMB: 0.001},
		}
	}
	ws := testCluster(3, 1000, 1000, 0)
	for _, st := range ws {
		st.Spec.BidDelay = 10 * time.Millisecond
	}
	pol, _ := core.PolicyByName("bidding")
	alloc := &sampledBidding{Allocator: pol.NewAllocator()}
	c, err := engine.NewCluster(engine.ClusterConfig{
		Clock:        vclock.NewSim(),
		Workers:      ws,
		NewAllocator: func() engine.Allocator { return alloc },
		NewAgent:     pol.NewAgent,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var before int
	var rep *engine.Report
	c.Start(func() {
		c.WaitReady()
		before = runtime.NumGoroutine()
		sess, err := c.Open("", dataWorkflow())
		if err != nil {
			t.Errorf("Open: %v", err)
			c.Stop()
			return
		}
		// Let Open's drain goroutine finish, as in
		// TestScheduledArrivalsSpawnNoGoroutine.
		c.Clock().Sleep(time.Millisecond)
		sess.Schedule(arrivals)
		rep = sess.Wait()
		c.Stop()
	})
	c.Wait()
	if rep == nil || rep.JobsCompleted != jobs {
		t.Fatalf("report = %+v, want %d jobs completed", rep, jobs)
	}
	if alloc.bids < jobs*len(ws) {
		t.Fatalf("%d bids reached the master, want at least %d", alloc.bids, jobs*len(ws))
	}
	if alloc.peak > before {
		t.Errorf("delayed bids raised the goroutine count from %d to %d", before, alloc.peak)
	}
}

// TestRetainedReportDoesNotPinTheSimulation: a caller may keep Reports
// (the benchmark keeps every run's). A record reaches its session, and
// the session's report mailbox would pin the simulated clock and
// through it the whole finished fleet — so Run cuts its records loose
// from the plane it has stopped. Kept reports of 200-worker runs must
// cost what 8 records cost, not what a fleet does.
func TestRetainedReportDoesNotPinTheSimulation(t *testing.T) {
	forEachPlane(t, func(t *testing.T, shards int) {
		heap := func() uint64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		const runs = 8
		kept := make([]*engine.Report, 0, runs)
		before := heap()
		for i := 0; i < runs; i++ {
			kept = append(kept, runOrFail(t, engine.Config{
				ClusterConfig: engine.ClusterConfig{
					Workers:      testCluster(200, 20, 100, 0),
					Shards:       shards,
					NewAllocator: func() engine.Allocator { return core.NewBidding() },
					NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
				},
				Workflow: dataWorkflow(),
				Arrivals: dataJobs([]string{"a", "b", "c", "d", "a", "b", "c", "d"}, 10),
			}))
		}
		perReport := (int64(heap()) - int64(before)) / runs
		// Measured: 27–50 KiB per report (8 records, 200 worker rows);
		// 250–280 KiB with the session still attached.
		if perReport > 128<<10 {
			t.Errorf("each kept report retains %d KiB; it is holding on to its simulation", perReport>>10)
		}
		runtime.KeepAlive(kept)
	})
}
