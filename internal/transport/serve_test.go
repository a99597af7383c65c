package transport

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// TestServeLifecycleTCP drives the long-lived cluster runtime over real
// loopback TCP: Start → streaming Submit → a worker Joins mid-stream
// and wins at least one contest → a worker Drains without losing work →
// Stop. This is also the CI race-detector smoke test for the serve
// path.
func TestServeLifecycleTCP(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// 100x, not faster: the joiner must win its contests on bids, and
	// the 1 s bid window is this many wall milliseconds. At 1000x bids
	// under -race missed a 1 ms window about once in 80 runs, the
	// fallback assigned the second wave at random and the joiner could
	// end with none of it.
	clk := vclock.NewScaledReal(100)

	wf := engine.NewWorkflow("serve")
	wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: "work"})

	masterPort, err := Dial(srv.Addr(), engine.MasterName, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer masterPort.Close()
	master := engine.NewClusterMaster(clk, masterPort, core.NewBidding(), 2,
		rand.New(rand.NewSource(1)))
	clk.Go(master.Run)
	waitRegistered(t, srv, engine.MasterName)

	newNode := func(name string, seed int64) (*engine.Worker, *engine.WorkerState) {
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name: name,
			Net:  netsim.Speed{BaseMBps: 100},
			RW:   netsim.Speed{BaseMBps: 400},
			Seed: seed,
		}, nil)
		port, err := Dial(srv.Addr(), name, 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { port.Close() })
		return engine.NewWorker(clk, port, wf, st, nil, core.NewBiddingAgent()), st
	}
	w0, _ := newNode("w0", 1)
	w1, _ := newNode("w1", 2)
	w0.Start()
	w1.Start()

	var rep *engine.Report
	var joinerDone int
	clk.Go(func() {
		master.WaitReady()
		sess := master.OpenSession("s1", wf)
		for i := 0; i < 4; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("pre%d", i), Stream: "work",
				DataKey: fmt.Sprintf("r%d", i), DataSizeMB: 100})
			clk.Sleep(500 * time.Millisecond)
		}
		// Mid-stream join. The joiner arrives holding the data of the
		// second wave, so once registered it must win those contests.
		joiner, jst := newNode("w2", 3)
		jst.Cache.Put("hotJ", 100)
		joiner.Start()
		for i := 0; !joiner.Registered(); i++ {
			if i > 200 {
				t.Error("joiner never registered")
				return
			}
			clk.Sleep(100 * time.Millisecond)
		}
		for i := 0; i < 4; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("post%d", i), Stream: "work",
				DataKey: "hotJ", DataSizeMB: 100})
			clk.Sleep(200 * time.Millisecond)
		}
		sess.Close()
		rep = sess.Wait()
		joinerDone = joiner.JobsDone()
		// Graceful scale-down, then stop the fleet.
		master.Drain("w0").Recv()
		master.Shutdown()
	})

	done := make(chan struct{})
	go func() {
		clk.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("serve lifecycle never completed")
	}

	if rep == nil {
		t.Fatal("session report missing")
	}
	if rep.JobsCompleted != 8 {
		t.Fatalf("JobsCompleted = %d, want 8", rep.JobsCompleted)
	}
	if joinerDone < 1 {
		t.Errorf("joiner completed %d jobs, want >= 1 (won no contest after joining)", joinerDone)
	}
	for id, rec := range rep.Records {
		if rec.Status != engine.StatusFinished {
			t.Errorf("job %s ended in status %v after drain", id, rec.Status)
		}
	}
	if w0.JobsDone()+w1.JobsDone()+joinerDone != 8 {
		t.Errorf("per-worker completions sum to %d, want 8 (no lost or duplicated work)",
			w0.JobsDone()+w1.JobsDone()+joinerDone)
	}
}

// TestServeShardedTCP drives the sharded control plane over real
// loopback TCP: the frontend router on the master name plus two contest
// shards on their own broker endpoints, a streamed session whose keys
// split across both shards, then a drain and shutdown. Workers address
// only the master name; the routing is invisible to them. This is the
// CI race-detector smoke test for the sharded serve path.
func TestServeShardedTCP(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewScaledReal(1000)

	wf := engine.NewWorkflow("serve")
	wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: "work"})

	masterPort, err := Dial(srv.Addr(), engine.MasterName, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer masterPort.Close()
	const shards = 2
	var shardPorts []engine.Port
	for i := 0; i < shards; i++ {
		sp, err := Dial(srv.Addr(), engine.ShardName(i), 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		shardPorts = append(shardPorts, sp)
	}
	master := engine.NewShardedClusterMaster(clk, masterPort, shardPorts,
		func() engine.Allocator { return core.NewBidding() }, 2, rand.New(rand.NewSource(1)))
	master.Start()
	waitRegistered(t, srv, engine.MasterName)

	newNode := func(name string, seed int64) *engine.Worker {
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name: name,
			Net:  netsim.Speed{BaseMBps: 100},
			RW:   netsim.Speed{BaseMBps: 400},
			Seed: seed,
		}, nil)
		port, err := Dial(srv.Addr(), name, 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { port.Close() })
		return engine.NewWorker(clk, port, wf, st, nil, core.NewBiddingAgent())
	}
	w0 := newNode("w0", 1)
	w1 := newNode("w1", 2)
	w0.Start()
	w1.Start()

	var rep *engine.Report
	clk.Go(func() {
		master.WaitReady()
		sess := master.OpenSession("s1", wf)
		// Keys r0..r7 hash to alternating shards, so both contest shards
		// run contests within the one session.
		for i := 0; i < 8; i++ {
			sess.Submit(&engine.Job{ID: fmt.Sprintf("j%d", i), Stream: "work",
				DataKey: fmt.Sprintf("r%d", i), DataSizeMB: 100})
			clk.Sleep(300 * time.Millisecond)
		}
		sess.Close()
		rep = sess.Wait()
		// Drain passes through the router to every shard; the ack fires
		// only after each shard has processed the goodbye.
		master.Drain("w0").Recv()
		master.Shutdown()
	})

	done := make(chan struct{})
	go func() {
		clk.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded serve lifecycle never completed")
	}

	if rep == nil {
		t.Fatal("session report missing")
	}
	if rep.JobsCompleted != 8 {
		t.Fatalf("JobsCompleted = %d, want 8", rep.JobsCompleted)
	}
	if len(rep.Records) != 8 {
		t.Fatalf("merged report has %d records, want 8", len(rep.Records))
	}
	for id, rec := range rep.Records {
		if rec.Status != engine.StatusFinished {
			t.Errorf("job %s ended in status %v", id, rec.Status)
		}
	}
	if w0.JobsDone()+w1.JobsDone() != 8 {
		t.Errorf("per-worker completions sum to %d, want 8 (no lost or duplicated work)",
			w0.JobsDone()+w1.JobsDone())
	}
}

// TestAutoClientReconnects drops the broker out from under a DialAuto
// client and verifies it redials with backoff, replays its
// subscriptions, runs the reconnect hook, and resumes delivery.
func TestAutoClientReconnects(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	clk := vclock.NewReal()

	a, err := DialAuto(addr, "node", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Subscribe("news")
	hooked := make(chan struct{}, 4)
	a.SetOnReconnect(func(*Client) { hooked <- struct{}{} })
	waitRegistered(t, srv, "node")

	// Kill the broker; the client must start redialing instead of dying.
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	srv2, err := Serve(addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer srv2.Close()

	select {
	case <-hooked:
	case <-time.After(20 * time.Second):
		t.Fatal("reconnect hook never ran")
	}
	if a.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", a.Reconnects())
	}

	// Subscription replay: a fresh publisher on the new server must reach
	// the reconnected node on the old topic.
	pub, err := Dial(addr, "pub", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	reached := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reached = pub.Publish("news", engine.MsgStop{}); reached >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if reached < 1 {
		t.Fatal("replayed subscription never took effect on the new server")
	}
	v := recvWithin(t, a.Inbox(), 5*time.Second)
	if _, isStop := v.(*broker.Envelope).Payload.(engine.MsgStop); !isStop {
		t.Errorf("unexpected payload %T", v.(*broker.Envelope).Payload)
	}
}

// TestAutoClientDeregisterStaysGone: a redialing client that leaves
// gracefully must not treat its own teardown as a drop to recover from —
// a redial's hello would re-register the name it just freed.
func TestAutoClientDeregisterStaysGone(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := DialAuto(srv.Addr(), "node", 0, vclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, srv, "node")
	a.Deregister()
	if _, ok := a.Inbox().Recv(); ok {
		t.Error("inbox still open after Deregister")
	}
	// Past the first redial attempt (immediate) and the second (100ms).
	time.Sleep(250 * time.Millisecond)
	if _, ok := srv.bus.Lookup("node"); ok {
		t.Error("deregistered name is back on the broker")
	}
	if n := a.Reconnects(); n != 0 {
		t.Errorf("Reconnects = %d after a graceful leave", n)
	}
}

// TestClientDeregisterFreesName verifies the graceful-leave frame: after
// Deregister, the name is free for a fresh joiner to claim.
func TestClientDeregisterFreesName(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()

	c1, err := Dial(srv.Addr(), "node", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	waitRegistered(t, srv, "node")
	c1.Deregister()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := srv.bus.Lookup("node"); !ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := srv.bus.Lookup("node"); ok {
		t.Fatal("deregistered name still present on the broker")
	}
	c2, err := Dial(srv.Addr(), "node", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitRegistered(t, srv, "node")
}
