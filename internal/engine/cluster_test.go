package engine_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

func namedWorkflow(name, prefix string) *engine.Workflow {
	wf := engine.NewWorkflow(name)
	wf.MustAddTask(engine.TaskSpec{
		Name:  "process",
		Input: "work",
		Fn: func(ctx *engine.TaskContext, job *engine.Job) ([]*engine.Job, []any, error) {
			ctx.RequireData(job.DataKey, job.DataSizeMB)
			ctx.Process(job.DataSizeMB)
			return nil, []any{prefix + job.ID}, nil
		},
	})
	return wf
}

// biddingPlane returns the bidding cluster config for a control plane of
// the given shape: the single master for shards <= 1, else that many
// contest shards behind the frontend router.
func biddingPlane(shards int, cfg engine.ClusterConfig) engine.ClusterConfig {
	cfg.NewAgent = func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() }
	if shards > 1 {
		cfg.Shards = shards
		cfg.NewAllocator = func() engine.Allocator { return core.NewBidding() }
	} else {
		cfg.Allocator = core.NewBidding()
	}
	return cfg
}

// forEachPlane runs a cluster scenario once on the single master and
// once on a two-shard plane: the elastic protocol must hold on both.
func forEachPlane(t *testing.T, scenario func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { scenario(t, shards) })
	}
}

// TestClusterElasticLifecycle drives the long-lived runtime end to end:
// two workflow sessions stream jobs through one shared fleet, a worker
// joins mid-stream and wins work, a worker drains gracefully, and the
// per-session reports stay disjoint.
func TestClusterElasticLifecycle(t *testing.T) {
	clk := vclock.NewSim()
	joiner := engine.NewWorkerState(engine.WorkerSpec{
		Name: "wj",
		Net:  netsim.Speed{BaseMBps: 20},
		RW:   netsim.Speed{BaseMBps: 100},
		Seed: 99,
	}, nil)
	// The joiner arrives holding the "hot" repositories, so bidding must
	// route the post-join jobs to it once it is in the fleet.
	joiner.Cache.Put("hotJ", 50)

	c, err := engine.NewCluster(engine.ClusterConfig{
		Clock:     clk,
		Workers:   testCluster(2, 20, 100, 0),
		Allocator: core.NewBidding(),
		NewAgent:  func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var repA, repB *engine.Report
	c.Start(func() {
		c.WaitReady()
		sessA, err := c.Open("alpha", namedWorkflow("alpha", "A:"))
		if err != nil {
			t.Errorf("Open alpha: %v", err)
			return
		}
		sessB, err := c.Open("beta", namedWorkflow("beta", "B:"))
		if err != nil {
			t.Errorf("Open beta: %v", err)
			return
		}
		// Stream the first wave while only the initial fleet exists.
		for i := 0; i < 4; i++ {
			sessA.Submit(&engine.Job{ID: fmt.Sprintf("a%d", i), Stream: "work",
				DataKey: fmt.Sprintf("ra%d", i), DataSizeMB: 20})
			sessB.Submit(&engine.Job{ID: fmt.Sprintf("b%d", i), Stream: "work",
				DataKey: fmt.Sprintf("rb%d", i), DataSizeMB: 20})
			clk.Sleep(500 * time.Millisecond)
		}
		if _, err := c.Join(joiner); err != nil {
			t.Errorf("Join: %v", err)
			return
		}
		// Give the joiner's registration a beat to land, then submit the
		// wave whose data it already holds.
		clk.Sleep(time.Second)
		for i := 0; i < 4; i++ {
			sessA.Submit(&engine.Job{ID: fmt.Sprintf("aj%d", i), Stream: "work",
				DataKey: "hotJ", DataSizeMB: 50})
			clk.Sleep(200 * time.Millisecond)
		}
		sessA.Close()
		sessB.Close()
		repA = sessA.Wait()
		repB = sessB.Wait()
		// Scale down gracefully, then stop the cluster.
		c.Drain("w0")
		c.Stop()
	})
	clk.Wait()

	if repA == nil || repB == nil {
		t.Fatal("session reports missing")
	}
	if repA.JobsCompleted != 8 {
		t.Errorf("session alpha completed %d jobs, want 8", repA.JobsCompleted)
	}
	if repB.JobsCompleted != 4 {
		t.Errorf("session beta completed %d jobs, want 4", repB.JobsCompleted)
	}
	// Tenancy: each session sees only its own workflow's results.
	for _, r := range repA.Results {
		if s, ok := r.(string); !ok || s[:2] != "A:" {
			t.Errorf("alpha result %v leaked from another session", r)
		}
	}
	for _, r := range repB.Results {
		if s, ok := r.(string); !ok || s[:2] != "B:" {
			t.Errorf("beta result %v leaked from another session", r)
		}
	}
	if len(repA.Records) != 8 || len(repB.Records) != 4 {
		t.Errorf("record split = %d/%d, want 8/4", len(repA.Records), len(repB.Records))
	}
	// The joiner held the hot data, so it must have won the post-join wave.
	if got := joinerJobs(t, repA); got < 3 {
		t.Errorf("joiner completed %d post-join jobs, want >= 3", got)
	}
}

// joinerJobs counts session records that finished on the joiner.
func joinerJobs(t *testing.T, rep *engine.Report) int {
	t.Helper()
	n := 0
	for _, rec := range rep.Records {
		if rec.Worker == "wj" && rec.Status == engine.StatusFinished {
			n++
		}
	}
	return n
}

// redispatchEvents filters a trace down to the redispatch records.
func redispatchEvents(trace *engine.TraceLog) []engine.TraceEvent {
	var out []engine.TraceEvent
	for _, ev := range trace.Events() {
		if ev.Kind == engine.TraceRedispatch {
			out = append(out, ev)
		}
	}
	return out
}

// TestClusterDrainWhileContestInFlight drains a worker while a bid
// window for freshly submitted jobs is still open. The drained worker
// must win none of the racing contests, every job must still complete
// exactly once, and the rescue invariant must hold end to end:
// the session's Redispatched counter equals the trace's redispatch
// events, and each such event names the departed worker.
func TestClusterDrainWhileContestInFlight(t *testing.T) {
	forEachPlane(t, testClusterDrainWhileContestInFlight)
}

func testClusterDrainWhileContestInFlight(t *testing.T, shards int) {
	clk := vclock.NewSim()
	trace := engine.NewTraceLog()
	c, err := engine.NewCluster(biddingPlane(shards, engine.ClusterConfig{
		Clock:   clk,
		Workers: testCluster(3, 20, 100, 0),
		Tracer:  trace,
	}))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var rep *engine.Report
	c.Start(func() {
		c.WaitReady()
		sess, err := c.Open("drain-race", namedWorkflow("drain-race", "D:"))
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		// First wave lands and keeps the fleet (including w1) busy.
		for i := 0; i < 4; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("d%d", i), Stream: "work",
				DataKey: fmt.Sprintf("rd%d", i), DataSizeMB: 40})
		}
		clk.Sleep(300 * time.Millisecond)
		// Second wave opens fresh contests, and the drain races them: the
		// master pulls w1 from the live set while the bid windows are open.
		for i := 4; i < 7; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("d%d", i), Stream: "work",
				DataKey: fmt.Sprintf("rd%d", i), DataSizeMB: 40})
		}
		c.Drain("w1")
		sess.Close()
		rep = sess.Wait()
		c.Stop()
	})
	clk.Wait()

	if rep == nil {
		t.Fatal("session report missing")
	}
	if rep.JobsCompleted != 7 {
		t.Errorf("JobsCompleted = %d, want 7 despite the racing drain", rep.JobsCompleted)
	}
	finishes := make(map[string]int)
	for _, ev := range trace.Events() {
		if ev.Kind == engine.TraceFinished {
			finishes[ev.JobID]++
		}
	}
	for id, rec := range rep.Records {
		if rec.Status != engine.StatusFinished || rec.Worker == "" {
			t.Errorf("job %s ended status=%v worker=%q", id, rec.Status, rec.Worker)
		}
		if finishes[id] != 1 {
			t.Errorf("job %s finished %d times, want exactly once", id, finishes[id])
		}
	}
	// The rescue accounting invariant: every redispatch in the
	// trace is attributed to the one departed worker, and the session
	// counter agrees with the trace.
	redis := redispatchEvents(trace)
	if rep.Redispatched != len(redis) {
		t.Errorf("Redispatched = %d but trace has %d redispatch events", rep.Redispatched, len(redis))
	}
	for _, ev := range redis {
		if ev.Node != "w1" {
			t.Errorf("redispatch of %s attributed to live worker %q", ev.JobID, ev.Node)
		}
	}
}

// TestContestDuringDrainClosesOnLastLiveBid opens a contest while a
// worker is draining: it is still subscribed to bid requests but no
// longer live, so the contest expects only the live workers and closes
// on the last of their bids instead of waiting out the window.
func TestContestDuringDrainClosesOnLastLiveBid(t *testing.T) {
	forEachPlane(t, testContestDuringDrainClosesOnLastLiveBid)
}

func testContestDuringDrainClosesOnLastLiveBid(t *testing.T, shards int) {
	clk := vclock.NewSim()
	c, err := engine.NewCluster(biddingPlane(shards, engine.ClusterConfig{
		Clock:   clk,
		Workers: testCluster(3, 20, 100, 0),
	}))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var rep *engine.Report
	c.Start(func() {
		c.WaitReady()
		sess, err := c.Open("drain-probe", namedWorkflow("drain-probe", "P:"))
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		// Two 20 s jobs, two windows apart: w0 wins the first, w1 the
		// second, so w1's drain stays pending while it works.
		for i := 0; i < 2; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("big%d", i), Stream: "work",
				DataKey: fmt.Sprintf("rb%d", i), DataSizeMB: 400})
			clk.Sleep(2 * core.DefaultBidWindow)
		}
		drained := clk.NewMailbox("drained")
		clk.Go(func() {
			c.Drain("w1")
			drained.Send(struct{}{})
		})
		clk.Sleep(10 * time.Millisecond)
		sess.Submit(&engine.Job{ID: "probe", Stream: "work", DataKey: "rp", DataSizeMB: 1})
		sess.Close()
		rep = sess.Wait()
		drained.Recv()
		c.Stop()
	})
	clk.Wait()

	if rep == nil {
		t.Fatal("session report missing")
	}
	probe := rep.Records["probe"]
	if probe == nil || probe.Status != engine.StatusFinished {
		t.Fatalf("probe record = %+v, want finished", probe)
	}
	if probe.Worker == "w1" {
		t.Errorf("draining w1 won the probe")
	}
	if wait := probe.Queued.Sub(probe.Injected); wait >= core.DefaultBidWindow/2 {
		t.Errorf("probe waited %v for assignment, want < %v: the draining worker held the contest open",
			wait, core.DefaultBidWindow/2)
	}
}

// TestClusterJoinImmediatelyLeave joins a fast worker holding the hot
// data, lets it win the wave, then yanks it with Leave while its queue
// is full — operationally a controlled crash moments after joining.
// Every stranded job must be redispatched to the survivors and complete
// exactly once, with the Redispatched counter matching the trace.
func TestClusterJoinImmediatelyLeave(t *testing.T) {
	forEachPlane(t, testClusterJoinImmediatelyLeave)
}

func testClusterJoinImmediatelyLeave(t *testing.T, shards int) {
	clk := vclock.NewSim()
	trace := engine.NewTraceLog()
	joiner := engine.NewWorkerState(engine.WorkerSpec{
		Name: "wj",
		Net:  netsim.Speed{BaseMBps: 20},
		RW:   netsim.Speed{BaseMBps: 50}, // 1s per hot job: busy at Leave time
		Seed: 99,
	}, nil)
	joiner.Cache.Put("hotJ", 50)

	c, err := engine.NewCluster(biddingPlane(shards, engine.ClusterConfig{
		Clock:   clk,
		Workers: testCluster(2, 20, 100, 0),
		Tracer:  trace,
	}))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	var rep *engine.Report
	c.Start(func() {
		c.WaitReady()
		sess, err := c.Open("join-leave", namedWorkflow("join-leave", "J:"))
		if err != nil {
			t.Errorf("Open: %v", err)
			return
		}
		if _, err := c.Join(joiner); err != nil {
			t.Errorf("Join: %v", err)
			return
		}
		// One beat for the registration, then the wave the joiner's hot
		// cache wins: it holds hotJ, the initial fleet would pay a 2.5s
		// download, so every contest goes to wj.
		clk.Sleep(100 * time.Millisecond)
		for i := 0; i < 3; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("h%d", i), Stream: "work",
				DataKey: "hotJ", DataSizeMB: 50})
		}
		// Leave mid-execution: the first job is running on wj (1s each),
		// the rest sit in its queue. All of them must be rescued.
		clk.Sleep(500 * time.Millisecond)
		c.Leave("wj")
		sess.Close()
		rep = sess.Wait()
		c.Stop()
	})
	clk.Wait()

	if rep == nil {
		t.Fatal("session report missing")
	}
	if rep.JobsCompleted != 3 {
		t.Errorf("JobsCompleted = %d, want 3 despite the leave", rep.JobsCompleted)
	}
	for id, rec := range rep.Records {
		if rec.Status != engine.StatusFinished {
			t.Errorf("job %s ended in status %v", id, rec.Status)
		}
		if rec.Worker == "wj" {
			t.Errorf("job %s still attributed to the departed joiner", id)
		}
	}
	redis := redispatchEvents(trace)
	if rep.Redispatched != len(redis) {
		t.Errorf("Redispatched = %d but trace has %d redispatch events", rep.Redispatched, len(redis))
	}
	// The joiner had won the whole wave when it left, so the rescue is
	// non-trivial: at least the running job was stranded on it.
	if rep.Redispatched == 0 {
		t.Error("leave stranded no work: the scenario lost its race, redispatch path untested")
	}
	for _, ev := range redis {
		if ev.Node != "wj" {
			t.Errorf("redispatch of %s attributed to %q, want the departed wj", ev.JobID, ev.Node)
		}
	}
}

// membershipLines extracts every membership line of a cluster digest:
// one for a single master; the router's plus one per shard part on a
// sharded plane.
func membershipLines(digest string) []string {
	var out []string
	for _, line := range strings.Split(digest, "\n") {
		if strings.HasPrefix(line, "members ") {
			out = append(out, line)
		}
	}
	return out
}

// TestMembershipViewIdenticalAcrossPlanes runs one scripted join / kill
// / drain sequence through a single master and a two-shard plane and
// samples the membership digest after every step. Both planes run the
// same membership component over the same events, so every view — the
// single master's, the router's, each shard part's — must render the
// same line at every sample.
func TestMembershipViewIdenticalAcrossPlanes(t *testing.T) {
	script := func(shards int) []string {
		clk := vclock.NewSim()
		c, err := engine.NewCluster(biddingPlane(shards, engine.ClusterConfig{
			Clock:   clk,
			Workers: testCluster(3, 20, 100, 0),
		}))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		var samples []string
		sample := func(step string) {
			// Let the step's messages land; the plane loops are parked in
			// their inboxes again when the driver wakes.
			clk.Sleep(time.Second)
			lines := membershipLines(c.StateDigest())
			want := 1
			if shards > 1 {
				want = 1 + shards // the router's and one per part
			}
			if len(lines) != want {
				t.Errorf("shards=%d %s: %d membership lines, want %d", shards, step, len(lines), want)
				return
			}
			for _, l := range lines[1:] {
				if l != lines[0] {
					t.Errorf("shards=%d %s: a shard part's view drifted from the router's:\n %s\n %s", shards, step, lines[0], l)
				}
			}
			samples = append(samples, step+": "+lines[0])
		}
		c.Start(func() {
			c.WaitReady()
			sample("formed")
			joiner := engine.NewWorkerState(engine.WorkerSpec{Name: "wj",
				Net: netsim.Speed{BaseMBps: 20}, RW: netsim.Speed{BaseMBps: 100}, Seed: 9}, nil)
			if _, err := c.Join(joiner); err != nil {
				t.Errorf("Join: %v", err)
			}
			sample("join wj")
			c.Leave("w0")
			sample("kill w0")
			c.Drain("w1")
			sample("drain w1")
			c.Stop()
		})
		c.Wait()
		samples = append(samples, "stopped: "+membershipLines(c.StateDigest())[0])
		return samples
	}
	single, sharded := script(1), script(2)
	if len(single) != 5 {
		t.Fatalf("script sampled %d steps, want 5: %v", len(single), single)
	}
	for i := range single {
		if single[i] != sharded[i] {
			t.Errorf("membership views diverge:\n shards=1 %s\n shards=2 %s", single[i], sharded[i])
		}
	}
	if want := "kill w0: members ready=true exp=3 workers=w2,w1,wj dead=w0 drains="; single[2] != want {
		t.Errorf("after the kill:\n got  %s\n want %s", single[2], want)
	}
}

// TestRunWithJoinSchedulesMidRunScaleUp exercises the batch wrapper's
// elastic path: a joiner entering mid-run appears in the report and
// takes real work off the initial fleet.
func TestRunWithJoinSchedulesMidRunScaleUp(t *testing.T) {
	joiner := engine.NewWorkerState(engine.WorkerSpec{
		Name: "late",
		Net:  netsim.Speed{BaseMBps: 200},
		RW:   netsim.Speed{BaseMBps: 400},
		Seed: 7,
	}, nil)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("r%d", i)
	}
	arrivals := dataJobs(keys, 100)
	for i := range arrivals {
		arrivals[i].At = time.Duration(i) * 2 * time.Second
	}
	rep := runOrFail(t, engine.Config{
		Workers:   testCluster(2, 10, 50, 0),
		Allocator: core.NewBidding(),
		NewAgent:  func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		Workflow:  dataWorkflow(),
		Arrivals:  arrivals,
		Joins:     []engine.Join{{State: joiner, At: 5 * time.Second}},
	})
	if rep.JobsCompleted != 16 {
		t.Fatalf("JobsCompleted = %d, want 16", rep.JobsCompleted)
	}
	if len(rep.Workers) != 3 {
		t.Fatalf("report has %d workers, want 3 (2 initial + joiner)", len(rep.Workers))
	}
	late := rep.Workers[2]
	if late.Name != "late" {
		t.Fatalf("joiner report name = %q", late.Name)
	}
	// The joiner is an order of magnitude faster than the initial nodes,
	// so it must end up doing the bulk of the staggered stream.
	if late.JobsDone < 4 {
		t.Errorf("joiner did %d jobs, want >= 4", late.JobsDone)
	}
	var total int
	for _, w := range rep.Workers {
		total += w.JobsDone
	}
	if total != 16 {
		t.Errorf("per-worker JobsDone sums to %d, want 16 (no lost or duplicated work)", total)
	}
}

// TestRunWithDrainLosesNoWork drains a worker mid-run: every job still
// completes exactly once, and the drained worker's completions before
// departure are preserved.
func TestRunWithDrainLosesNoWork(t *testing.T) {
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("r%d", i)
	}
	arrivals := dataJobs(keys, 100)
	for i := range arrivals {
		arrivals[i].At = time.Duration(i) * time.Second
	}
	rep := runOrFail(t, engine.Config{
		Workers:   testCluster(3, 10, 100, 0), // ~10.5s per cold job
		Allocator: core.NewBidding(),
		NewAgent:  func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		Workflow:  dataWorkflow(),
		Arrivals:  arrivals,
		Drains:    []engine.Drain{{Worker: "w1", At: 15 * time.Second}},
	})
	if rep.JobsCompleted != 12 {
		t.Fatalf("JobsCompleted = %d, want all 12 despite the drain", rep.JobsCompleted)
	}
	var total int
	for _, w := range rep.Workers {
		total += w.JobsDone
	}
	if total != 12 {
		t.Errorf("per-worker JobsDone sums to %d, want 12 (zero lost or duplicated)", total)
	}
	// A drain is not a crash: the worker was mid-queue at 15s, so it must
	// have finished at least the job it was executing.
	if rep.Workers[1].JobsDone == 0 {
		t.Error("drained worker reports no completed jobs")
	}
	for id, rec := range rep.Records {
		if rec.Status != engine.StatusFinished {
			t.Errorf("job %s ended in status %v", id, rec.Status)
		}
		if rec.Worker == "" {
			t.Errorf("job %s finished with no worker attribution", id)
		}
	}
}

// TestRunValidatesElasticPlan covers the new fault-plan validation.
func TestRunValidatesElasticPlan(t *testing.T) {
	base := func() engine.Config {
		return engine.Config{
			Workers:   testCluster(2, 10, 100, 0),
			Allocator: core.NewBidding(),
			NewAgent:  func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
			Workflow:  dataWorkflow(),
			Arrivals:  dataJobs([]string{"a"}, 10),
		}
	}
	dup := base()
	dup.Joins = []engine.Join{{State: engine.NewWorkerState(engine.WorkerSpec{Name: "w0"}, nil)}}
	if _, err := engine.Run(dup); err == nil {
		t.Error("join duplicating an existing worker accepted")
	}
	nilJoin := base()
	nilJoin.Joins = []engine.Join{{}}
	if _, err := engine.Run(nilJoin); err == nil {
		t.Error("nil join state accepted")
	}
	ghost := base()
	ghost.Drains = []engine.Drain{{Worker: "ghost", At: time.Second}}
	if _, err := engine.Run(ghost); err == nil {
		t.Error("drain of unknown worker accepted")
	}
}
