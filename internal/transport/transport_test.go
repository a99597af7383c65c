package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
	"crossflow/internal/wire"
)

// waitRegistered blocks until the server has processed the endpoints'
// hello frames (Dial only guarantees the frame was written).
func waitRegistered(t *testing.T, srv *Server, names ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range names {
			if _, ok := srv.bus.Lookup(n); !ok {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("endpoints %v never registered", names)
}

// recvWithin returns mb's next message, failing the test if none
// arrives within d of wall time. It polls, so a wait that gives up
// leaves no receiver behind to take a later message.
func recvWithin(t *testing.T, mb vclock.Mailbox, d time.Duration) any {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if v, ok := mb.TryRecv(); ok {
			return v
		}
	}
	t.Fatalf("nothing arrived in %s within %v", mb.Name(), d)
	return nil
}

func TestClientServerBasicDelivery(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clk := vclock.NewReal()
	a, err := Dial(srv.Addr(), "a", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr(), "b", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if a.Name() != "a" {
		t.Errorf("Name = %q", a.Name())
	}
	waitRegistered(t, srv, "a", "b")
	if !a.Send("b", engine.MsgRegister{Worker: "a"}) {
		t.Fatal("Send failed")
	}
	env := recvWithin(t, b.Inbox(), 5*time.Second).(*broker.Envelope)
	if env.From != "a" || env.Payload.(engine.MsgRegister).Worker != "a" {
		t.Errorf("envelope = %+v", env)
	}
}

func TestPublishReturnsSubscriberCount(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()

	pub, _ := Dial(srv.Addr(), "pub", 0, clk)
	defer pub.Close()
	subs := make([]*Client, 3)
	for i := range subs {
		c, err := Dial(srv.Addr(), fmt.Sprintf("sub%d", i), 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Subscribe("news")
		subs[i] = c
	}
	// Subscriptions race the publish; wait for all to take effect.
	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		if n = pub.Publish("news", engine.MsgStop{}); n == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n != 3 {
		t.Fatalf("Publish reached %d subscribers, want 3", n)
	}
	for _, c := range subs {
		recvWithin(t, c.Inbox(), 5*time.Second)
	}
	subs[0].Unsubscribe("news")
	time.Sleep(20 * time.Millisecond)
	if n := pub.Publish("news", engine.MsgStop{}); n != 2 {
		t.Errorf("after unsubscribe Publish reached %d, want 2", n)
	}
}

func TestClosedClientOperationsFailGracefully(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "x", 0, vclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	if c.Send("y", engine.MsgStop{}) {
		t.Error("Send on closed client succeeded")
	}
	if n := c.Publish("t", engine.MsgStop{}); n != 0 {
		t.Errorf("Publish on closed client = %d", n)
	}
	if _, ok := c.Inbox().Recv(); ok {
		t.Error("closed client inbox still open")
	}
}

// TestDistributedWorkflow runs the full engine over real TCP: a broker
// server, a master port, and two worker ports, all in one process but
// communicating only through the wire.
func TestDistributedWorkflow(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewScaledReal(1000) // 1000x compressed time

	wf := engine.NewWorkflow("dist")
	wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: "work"})

	arrivals := make([]engine.Arrival, 6)
	for i := range arrivals {
		arrivals[i] = engine.Arrival{Job: &engine.Job{
			ID:         fmt.Sprintf("j%d", i),
			Stream:     "work",
			DataKey:    fmt.Sprintf("r%d", i%3),
			DataSizeMB: 200,
		}}
	}

	masterPort, err := Dial(srv.Addr(), engine.MasterName, 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer masterPort.Close()
	master := engine.NewClusterMaster(clk, masterPort, core.NewBidding(), 2,
		rand.New(rand.NewSource(1)))
	clk.Go(master.Run)
	waitRegistered(t, srv, engine.MasterName)

	states := make([]*engine.WorkerState, 2)
	for i := range states {
		states[i] = engine.NewWorkerState(engine.WorkerSpec{
			Name: fmt.Sprintf("w%d", i),
			Net:  netsim.Speed{BaseMBps: 100},
			RW:   netsim.Speed{BaseMBps: 400},
			Seed: int64(i + 1),
		}, nil)
		port, err := Dial(srv.Addr(), states[i].Spec.Name, 0, clk)
		if err != nil {
			t.Fatal(err)
		}
		defer port.Close()
		engine.NewWorker(clk, port, wf, states[i], nil, core.NewBiddingAgent()).Start()
	}

	done := make(chan *engine.Report, 1)
	clk.Go(func() {
		master.WaitReady()
		sess := master.OpenSession("", wf)
		sess.Schedule(arrivals)
		done <- sess.Wait()
		master.Shutdown()
	})
	select {
	case rep := <-done:
		if rep.JobsCompleted != 6 {
			t.Errorf("JobsCompleted = %d, want 6", rep.JobsCompleted)
		}
		if rep.Contests != 6 {
			t.Errorf("Contests = %d, want 6", rep.Contests)
		}
		if rep.Makespan <= 0 {
			t.Errorf("Makespan = %v", rep.Makespan)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("distributed workflow never completed")
	}
}

func TestServerEndpointReconnect(t *testing.T) {
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
	c1.Close()
	time.Sleep(20 * time.Millisecond) // let the server notice
	c2, err := Dial(srv.Addr(), "node", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	other, err := Dial(srv.Addr(), "other", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	ok := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !ok {
		other.Send("node", engine.MsgStop{})
		time.Sleep(10 * time.Millisecond)
		_, ok = c2.Inbox().TryRecv()
	}
	if !ok {
		t.Error("reconnected endpoint never received")
	}
}

// TestWireRoundTripAllMessages pushes every engine protocol message
// through a live connection, guarding the codec end to end.
func TestWireRoundTripAllMessages(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()
	a, err := Dial(srv.Addr(), "a", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr(), "b", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitRegistered(t, srv, "a", "b")

	job := &engine.Job{ID: "j", Stream: "s", DataKey: "k", DataSizeMB: 12.5,
		ComputeMB: 3, CostHint: time.Second}
	payloads := []any{
		engine.MsgRegister{Worker: "a"},
		engine.MsgRegisterAck{},
		engine.MsgBidRequest{Job: job},
		engine.MsgBid{JobID: "j", Worker: "a", Estimate: time.Second, JobCost: time.Second / 2, Local: true},
		engine.MsgAssign{Job: job, EstimatedCost: time.Minute},
		engine.MsgOffer{Job: job},
		engine.MsgAccept{JobID: "j", Worker: "a"},
		engine.MsgReject{JobID: "j", Worker: "a"},
		engine.MsgRequestJob{Worker: "a", CachedKeys: []string{"k1", "k2"}, Strikes: 1},
		engine.MsgNoWork{Backoff: time.Second},
		engine.MsgJobDone{JobID: "j", Worker: "a", NewJobs: []*engine.Job{job}, Failed: true, Error: "x"},
		engine.MsgEmit{Job: job, Worker: "a"},
		engine.MsgStop{},
		engine.MsgWorkerDead{Worker: "a"},
		engine.MsgDrain{},
		engine.MsgLeave{Worker: "a"},
	}
	for i, payload := range payloads {
		if !a.Send("b", payload) {
			t.Fatalf("payload %d: send failed", i)
		}
		env := recvWithin(t, b.Inbox(), 5*time.Second).(*broker.Envelope)
		if fmt.Sprintf("%T", env.Payload) != fmt.Sprintf("%T", payload) {
			t.Fatalf("payload %d: type %T became %T", i, payload, env.Payload)
		}
	}
	// Spot-check deep fields survive.
	a.Send("b", engine.MsgAssign{Job: job, EstimatedCost: time.Minute})
	got := recvWithin(t, b.Inbox(), 5*time.Second).(*broker.Envelope).Payload.(engine.MsgAssign)
	if got.Job.DataSizeMB != 12.5 || got.Job.CostHint != time.Second || got.EstimatedCost != time.Minute {
		t.Errorf("MsgAssign fields lost: %+v", got)
	}
}

// TestServerRefusesNonBinaryPeers opens raw connections that do not
// start with the XFW header — the previous release's headerless gob
// hello, a stray HTTP request, a peer that hangs up mid-header, a
// future protocol version. Each must be closed without a byte written
// back, without registering an endpoint name or leaving its handler
// goroutine behind, and the server must keep serving real clients.
func TestServerRefusesNonBinaryPeers(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(&wire.Frame{Kind: wire.KindHello, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"legacy gob hello", legacy.Bytes()},
		{"http request", []byte("GET / HTTP/1.1\r\nHost: broker\r\n\r\n")},
		{"two bytes then EOF", []byte{'X', 'F'}},
		{"wrong version", []byte{'X', 'F', 'W', wire.Version + 1, 'b'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			// EOF, or a reset when the server closed with our bytes unread.
			n, err := conn.Read(make([]byte, 16))
			var nerr net.Error
			if n != 0 || err == nil || (errors.As(err, &nerr) && nerr.Timeout()) {
				t.Fatalf("server answered a non-XFW opening: %d bytes, err %v", n, err)
			}
		})
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d refused connections still have a live handler", open)
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := srv.bus.Lookup("old"); ok {
		t.Error("the refused gob hello registered its endpoint name")
	}

	clk := vclock.NewReal()
	a, err := Dial(srv.Addr(), "a", 0, clk)
	if err != nil {
		t.Fatalf("server stopped serving after refusals: %v", err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr(), "b", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitRegistered(t, srv, "a", "b")
	a.Send("b", engine.MsgStop{})
	recvWithin(t, b.Inbox(), 5*time.Second)
}

// TestDialRejectsUnknownCodec: Options.Codec no longer selects anything;
// a name other than "binary" fails before any connection is made.
func TestDialRejectsUnknownCodec(t *testing.T) {
	clk := vclock.NewReal()
	// Nothing listens here: the error must come from validation.
	if _, err := DialOptions("127.0.0.1:0", "x", 0, clk, Options{Codec: "gob"}); err == nil || !strings.Contains(err.Error(), "codec") {
		t.Fatalf("Dial with Codec gob: err = %v, want an unknown-codec error", err)
	}
}

// TestSendMultiOverWire: the client's targeted multicast reaches
// exactly the named endpoints and acks the reached count.
func TestSendMultiOverWire(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()
	src, _ := Dial(srv.Addr(), "src", 0, clk)
	defer src.Close()
	w1, _ := Dial(srv.Addr(), "w1", 0, clk)
	defer w1.Close()
	w2, _ := Dial(srv.Addr(), "w2", 0, clk)
	defer w2.Close()
	w3, _ := Dial(srv.Addr(), "w3", 0, clk)
	defer w3.Close()
	waitRegistered(t, srv, "src", "w1", "w2", "w3")

	n := src.SendMulti([]string{"w1", "w2", "ghost"}, engine.MsgOffer{Job: &engine.Job{ID: "j"}})
	if n != 2 {
		t.Fatalf("SendMulti reached %d, want 2 (ghost skipped)", n)
	}
	for _, c := range []*Client{w1, w2} {
		v := recvWithin(t, c.Inbox(), 5*time.Second)
		if v.(*broker.Envelope).Payload.(engine.MsgOffer).Job.ID != "j" {
			t.Fatalf("multicast payload mangled: %#v", v)
		}
	}
	if v, ok := w3.Inbox().TryRecv(); ok {
		t.Fatalf("untargeted w3 received %#v", v)
	}
}

// TestPublishAsyncPipelines: the future returns the subscriber count
// without the caller having blocked on the round trip at publish time.
func TestPublishAsyncPipelines(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()
	pub, _ := Dial(srv.Addr(), "pub", 0, clk)
	defer pub.Close()
	sub, _ := Dial(srv.Addr(), "sub", 0, clk)
	defer sub.Close()
	sub.Subscribe("topic")
	waitRegistered(t, srv, "pub", "sub")

	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		waits := make([]func() int, 3)
		for i := range waits {
			waits[i] = pub.PublishAsync("topic", engine.MsgStop{})
		}
		n = 0
		for _, wait := range waits {
			n += wait()
		}
		if n == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n != 3 {
		t.Fatalf("three pipelined publishes acked %d total, want 3", n)
	}
}

// TestAckTimeoutConfigurable dials a mute server (header echoed, acks
// never sent) and requires Publish to give up after the configured
// timeout — not the 10s default — leaving no ack entry behind.
func TestAckTimeoutConfigurable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Echo the binary header, then swallow everything.
		buf := make([]byte, 4096)
		if _, err := io.ReadFull(conn, buf[:5]); err != nil {
			return
		}
		if _, err := conn.Write(buf[:5]); err != nil {
			return
		}
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := DialOptions(ln.Addr().String(), "x", 0, vclock.NewReal(),
		Options{AckTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if n := c.Publish("t", engine.MsgStop{}); n != 0 {
		t.Errorf("Publish against mute server = %d", n)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Publish took %v; the 100ms AckTimeout was ignored", elapsed)
	}
	c.mu.Lock()
	leaked := len(c.acks)
	c.mu.Unlock()
	if leaked != 0 {
		t.Errorf("%d ack entries leaked after timeout", leaked)
	}
}

// TestAckMapNoLeakOnEncodeFailure kills the connection under the
// client and publishes: the encode/flush fails, Publish returns 0, and
// the ack map must not retain the dead entry (the PR-8 leak fix).
func TestAckMapNoLeakOnEncodeFailure(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), "x", 0, vclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.conn.Close() // sever the socket without closing the client
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n := c.Publish("t", engine.MsgStop{}); n != 0 {
			t.Fatalf("Publish on severed connection = %d", n)
		}
		c.mu.Lock()
		leaked := len(c.acks)
		closed := c.closed
		c.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("%d ack entries leaked after encode failure", leaked)
		}
		if closed {
			return // recvLoop noticed the dead socket; path fully covered
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeferredSendArrivesBySafetyFlush: a send issued while deliveries
// are queued in the inbox is taken for one reply of a burst and skips
// its flush. When no later write comes along to carry it out, the
// safety timer must.
func TestDeferredSendArrivesBySafetyFlush(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := vclock.NewReal()
	a, err := Dial(srv.Addr(), "a", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(srv.Addr(), "b", 0, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitRegistered(t, srv, "a", "b")

	// Park one delivery in a's inbox and never read it: every send from
	// a now sees a non-empty inbox.
	if !b.Send("a", engine.MsgStop{}) {
		t.Fatal("priming send failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Inbox().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("priming delivery never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if !a.Send("b", engine.MsgAccept{JobID: "j", Worker: "a"}) {
		t.Fatal("send failed")
	}
	recvWithin(t, b.Inbox(), 5*time.Second)
	if stats := srv.WireStats(); stats.BytesIn == 0 || stats.BytesOut == 0 {
		t.Errorf("WireStats = %+v, want nonzero traffic", stats)
	}
}

// TestTakeoverKeepsEndpointUp redials a name while its first connection
// is still up, over raw conns so the test controls when each one dies:
// the second connection owns the endpoint from its hello on, the server
// closes the first, and the first's teardown must not mark the endpoint
// down under the second.
func TestTakeoverKeepsEndpointUp(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hello := func() (net.Conn, *wire.Decoder) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		enc := wire.NewEncoder(conn)
		if err := wire.WriteHeader(conn); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Name: "node"}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if err := wire.ExpectHeader(br); err != nil {
			t.Fatal(err)
		}
		return conn, wire.NewDecoder(br)
	}
	first, firstDec := hello()
	defer first.Close()
	waitRegistered(t, srv, "node")
	second, secondDec := hello()
	defer second.Close()

	// Taking over closes the older connection from the server side.
	_ = first.SetReadDeadline(time.Now().Add(5 * time.Second))
	var f wire.Frame
	if err := firstDec.Decode(&f); err == nil {
		t.Fatalf("first connection still served after takeover: got %+v", f)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never closed the taken-over connection")
	}
	// Kill the first for good measure and give its handler time to exit.
	first.Close()
	time.Sleep(50 * time.Millisecond)

	ep, ok := srv.bus.Lookup("node")
	if !ok {
		t.Fatal("endpoint vanished")
	}
	if ep.Down() {
		t.Fatal("older connection's teardown marked the endpoint down under its new owner")
	}
	other, err := Dial(srv.Addr(), "other", 0, vclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	// Every send must arrive, the first included: no pump of the old
	// connection may be left behind to swallow a delivery.
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("j%d", i)
		if !other.Send("node", engine.MsgAccept{JobID: id, Worker: "other"}) {
			t.Fatalf("send %d refused: endpoint treated as down", i)
		}
		var got wire.Frame
		if err := secondDec.Decode(&got); err != nil {
			t.Fatalf("send %d never reached the second connection: %v", i, err)
		}
		if acc, ok := got.Env.Payload.(engine.MsgAccept); got.Kind != wire.KindDelivery || !ok || acc.JobID != id {
			t.Fatalf("send %d: got %+v", i, got)
		}
	}
	if ep.Down() {
		t.Error("endpoint went down after the takeover settled")
	}
}
