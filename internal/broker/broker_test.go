package broker

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"crossflow/internal/vclock"
)

// startAll starts every actor from one tracked driver goroutine. The
// test goroutine is untracked: calling sim.Go once per actor lets an
// early receiver park before its sender is registered, and the clock
// then reports a deadlock at 00:00:00.000 — but only under CPU
// contention (the race PR 14 fixed in engine's Cluster.Start).
func startAll(sim *vclock.Sim, actors ...func()) {
	sim.Go(func() {
		for _, a := range actors {
			sim.Go(a)
		}
	})
}

func TestDirectSendArrivesAfterLinkLatency(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 10*time.Millisecond)
	c := b.Register("c", 40*time.Millisecond)
	var at time.Time
	var env Envelope
	startAll(sim, func() {
		a.Send("c", "ping")
	}, func() {
		v, ok := c.Inbox().Recv()
		if !ok {
			t.Error("inbox closed")
			return
		}
		env = *v.(*Envelope)
		at = sim.Now()
	})
	sim.Wait()
	if want := vclock.Epoch.Add(50*time.Millisecond + routeSkew("a", "c")); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	if env.From != "a" || env.To != "c" || env.Payload.(string) != "ping" {
		t.Errorf("envelope = %+v", env)
	}
}

// routeSkew is the broker's skew on the route from → to.
func routeSkew(from, to string) time.Duration { return skewFrom(routeSeed(from), to) }

// TestRouteSkewIsFNV1a pins the seeded route hash to hash/fnv's 64-bit
// FNV-1a over from, a zero byte and to: every simulated delivery time,
// and so every seeded trace, depends on it.
func TestRouteSkewIsFNV1a(t *testing.T) {
	names := []string{"", "a", "c", "master", "shard-1", "w0", "w499", "worker-12", "pub"}
	for _, from := range names {
		for _, to := range names {
			h := fnv.New64a()
			_, _ = h.Write([]byte(from))
			_, _ = h.Write([]byte{0})
			_, _ = h.Write([]byte(to))
			if want := time.Duration(h.Sum64() & maxRouteSkew); routeSkew(from, to) != want {
				t.Errorf("routeSkew(%q, %q) = %d, want %d", from, to, routeSkew(from, to), want)
			}
		}
	}
}

func TestSendToUnknownEndpointDropped(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 0)
	c := b.Register("c", 0)
	var ok bool
	sim.Go(func() { ok = a.Send("ghost", 1) })
	sim.Wait()
	if ok {
		t.Error("Send to unknown endpoint reported true")
	}
	for _, ep := range []*Endpoint{a, c} {
		if v, got := ep.Inbox().TryRecv(); got {
			t.Errorf("%s received %+v from a send to an unknown endpoint", ep.Name(), v)
		}
	}
}

func TestPublishFansOutToSubscribersOnly(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	pub := b.Register("pub", 0)
	subs := []*Endpoint{b.Register("w1", 0), b.Register("w2", 0), b.Register("w3", 0)}
	other := b.Register("outsider", 0)
	for _, s := range subs {
		s.Subscribe("jobs")
	}
	var n int
	got := make([]string, 0, 3)
	sim.Go(func() {
		n = pub.Publish("jobs", "job-1")
		for _, s := range subs {
			v, _ := s.Inbox().Recv()
			env := v.(*Envelope)
			if env.Topic != "jobs" {
				t.Errorf("Topic = %q", env.Topic)
			}
			got = append(got, env.Payload.(string))
		}
		if _, ok := other.Inbox().TryRecv(); ok {
			t.Error("non-subscriber received publication")
		}
	})
	sim.Wait()
	if n != 3 || len(got) != 3 {
		t.Errorf("delivered to %d/%d subscribers", n, len(got))
	}
	for _, ep := range append(subs, pub) {
		if _, dup := ep.Inbox().TryRecv(); dup {
			t.Errorf("%s received more than its one publication", ep.Name())
		}
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	pub := b.Register("pub", 0)
	w := b.Register("w", 0)
	w.Subscribe("t")
	w.Unsubscribe("t")
	var n int
	sim.Go(func() { n = pub.Publish("t", 1) })
	sim.Wait()
	if n != 0 {
		t.Errorf("Publish delivered to %d endpoints after unsubscribe", n)
	}
}

func TestDisconnectedEndpointDropsTraffic(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 0)
	w := b.Register("w", 0)
	w.Subscribe("t")
	w.Disconnect()
	var sendOK bool
	var fan int
	sim.Go(func() {
		sendOK = a.Send("w", 1)
		fan = a.Publish("t", 2)
	})
	sim.Wait()
	if sendOK || fan != 0 {
		t.Errorf("disconnected endpoint still reachable: send=%v fanout=%d", sendOK, fan)
	}
	w.Reconnect()
	var okAgain bool
	sim.Go(func() { okAgain = a.Send("w", 3) })
	sim.Wait()
	if !okAgain {
		t.Error("reconnected endpoint unreachable")
	}
}

func TestDisconnectedSenderCannotSend(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 0)
	b.Register("w", 0)
	a.Disconnect()
	var ok bool
	var fan int
	sim.Go(func() {
		ok = a.Send("w", 1)
		fan = a.Publish("t", 1)
	})
	sim.Wait()
	if ok || fan != 0 {
		t.Error("disconnected sender's messages were delivered")
	}
}

func TestCustomDelayFunc(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	b.SetDelayFunc(func(from, to *Endpoint) time.Duration { return time.Second })
	a := b.Register("a", 0)
	c := b.Register("c", 0)
	var at time.Time
	startAll(sim, func() { a.Send("c", 1) }, func() {
		c.Inbox().Recv()
		at = sim.Now()
	})
	sim.Wait()
	if want := vclock.Epoch.Add(time.Second + routeSkew("a", "c")); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
	b.SetDelayFunc(nil) // restores the default without panicking
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate registration")
		}
	}()
	b := New(vclock.NewSim())
	b.Register("x", 0)
	b.Register("x", 0)
}

func TestLookupAndEndpoints(t *testing.T) {
	b := New(vclock.NewSim())
	ep := b.Register("node-1", 5*time.Millisecond)
	if ep.Name() != "node-1" || ep.Link() != 5*time.Millisecond {
		t.Errorf("endpoint accessors: %q %v", ep.Name(), ep.Link())
	}
	got, ok := b.Lookup("node-1")
	if !ok || got != ep {
		t.Error("Lookup failed")
	}
	if _, ok := b.Lookup("nope"); ok {
		t.Error("Lookup found missing endpoint")
	}
	b.Deregister("node-1")
	if _, ok := b.Lookup("node-1"); ok {
		t.Error("Lookup found a deregistered endpoint")
	}
	if again := b.Register("node-1", 0); again == ep {
		t.Error("re-registering a freed name returned the old endpoint")
	}
}

func TestMessageOrderingPreservedPerLink(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 3*time.Millisecond)
	c := b.Register("c", 3*time.Millisecond)
	const n = 50
	var got []int
	startAll(sim, func() {
		for i := 0; i < n; i++ {
			a.Send("c", i)
		}
	}, func() {
		for i := 0; i < n; i++ {
			v, _ := c.Inbox().Recv()
			got = append(got, v.(*Envelope).Payload.(int))
		}
	})
	sim.Wait()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("message %d arrived out of order: got %d", i, v)
		}
	}
}

func TestZeroLatencyDeliversWithinRouteSkew(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 0)
	c := b.Register("c", 0)
	var at time.Time
	sim.Go(func() {
		a.Send("c", 1)
		c.Inbox().Recv()
		at = sim.Now()
	})
	sim.Wait()
	if d := at.Sub(vclock.Epoch); d > maxRouteSkew {
		t.Errorf("zero-latency delivery advanced time by %v, want <= %dns", d, int64(maxRouteSkew))
	}
}

func TestDropFuncLosesDirectSends(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	a := b.Register("a", 0)
	c := b.Register("c", 0)
	b.SetDropFunc(func(env Envelope, to string) bool {
		return env.Payload.(int)%2 == 1 // lose odd payloads
	})
	var reported int
	var got []int
	startAll(sim, func() {
		for i := 0; i < 6; i++ {
			if a.Send("c", i) {
				reported++
			}
		}
	}, func() {
		for i := 0; i < 3; i++ {
			v, _ := c.Inbox().Recv()
			got = append(got, v.(*Envelope).Payload.(int))
		}
	})
	sim.Wait()
	// The sender cannot tell a message was lost in transit: Send reports
	// true for all six.
	if reported != 6 {
		t.Errorf("sender saw %d deliveries, want 6 (loss is silent)", reported)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Errorf("received %v, want [0 2 4]", got)
	}
	if v, ok := c.Inbox().TryRecv(); ok {
		t.Errorf("c received %v beyond [0 2 4]", v.(*Envelope).Payload)
	}
	b.SetDropFunc(nil) // restores lossless delivery
	var okAfter bool
	startAll(sim, func() { okAfter = a.Send("c", 7) }, func() { c.Inbox().Recv() })
	sim.Wait()
	if !okAfter {
		t.Error("delivery still lossy after SetDropFunc(nil)")
	}
}

func TestDropFuncPrunesFanout(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	pub := b.Register("pub", 0)
	w1 := b.Register("w1", 0)
	w2 := b.Register("w2", 0)
	w1.Subscribe("t")
	w2.Subscribe("t")
	b.SetDropFunc(func(env Envelope, to string) bool { return to == "w2" })
	var n int
	sim.Go(func() {
		// Publish's return value counts actual deliveries, so protocols
		// that wait for "everyone I reached" (bidding) stay consistent
		// with what the network really did.
		n = pub.Publish("t", "x")
		sim.Sleep(time.Millisecond) // deliveries land within the route skew
		if v, ok := w1.Inbox().TryRecv(); !ok || v.(*Envelope).Payload != "x" {
			t.Errorf("w1 got %v, %v; want the publication", v, ok)
		}
		if _, ok := w2.Inbox().TryRecv(); ok {
			t.Error("w2 received a dropped publication")
		}
	})
	sim.Wait()
	if n != 1 {
		t.Errorf("Publish reported %d deliveries, want 1", n)
	}
	if _, dup := w1.Inbox().TryRecv(); dup {
		t.Error("w1 received the publication twice")
	}
}

func TestBrokerOnRealClock(t *testing.T) {
	clk := vclock.NewScaledReal(1000)
	b := New(clk)
	a := b.Register("a", 100*time.Millisecond) // 0.1ms wall after scaling
	c := b.Register("c", 100*time.Millisecond)
	done := make(chan Envelope, 1)
	go func() {
		v, _ := c.Inbox().Recv()
		done <- *v.(*Envelope)
	}()
	a.Send("c", "live")
	select {
	case env := <-done:
		if env.Payload.(string) != "live" {
			t.Errorf("payload = %v", env.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery never arrived on real clock")
	}
}

// TestWallClockZeroLatencyIsImmediate pins the delivery rule's clock
// split: the route skew exists only on a simulated clock. On a wall
// clock slowed a thousandfold a skew would last milliseconds of wall
// time; instead a zero-latency message is in the inbox when Send returns.
func TestWallClockZeroLatencyIsImmediate(t *testing.T) {
	if routeSkew("a", "c") == 0 {
		t.Fatal("route a>c has no skew; pick a route that would be delayed")
	}
	b := New(vclock.NewScaledReal(0.001))
	a := b.Register("a", 0)
	c := b.Register("c", 0)
	if !a.Send("c", "now") {
		t.Fatal("Send reported false")
	}
	v, ok := c.Inbox().TryRecv()
	if !ok {
		t.Fatal("zero-latency send on a wall clock was not in the inbox when Send returned")
	}
	if env := v.(*Envelope); env.From != "a" || env.To != "c" || env.Payload != "now" {
		t.Errorf("envelope = %+v", env)
	}
	c.Subscribe("t")
	if n := a.Publish("t", 1); n != 1 {
		t.Fatalf("Publish reached %d, want 1", n)
	}
	if _, ok := c.Inbox().TryRecv(); !ok {
		t.Error("zero-latency publication on a wall clock was not in the inbox when Publish returned")
	}
}

func TestSendMultiReachesNamedTargetsOnly(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	src := b.Register("src", 0)
	w1 := b.Register("w1", 10*time.Millisecond)
	w2 := b.Register("w2", 20*time.Millisecond)
	w3 := b.Register("w3", 0) // registered but not targeted

	var n int
	got := make(map[string]Envelope)
	actors := []func(){func() {
		n = src.SendMulti([]string{"w1", "w2", "ghost"}, "req")
	}}
	for _, ep := range []*Endpoint{w1, w2} {
		ep := ep
		actors = append(actors, func() {
			v, ok := ep.Inbox().Recv()
			if !ok {
				t.Error("inbox closed")
				return
			}
			got[ep.Name()] = *v.(*Envelope)
		})
	}
	startAll(sim, actors...)
	sim.Wait()
	if n != 2 {
		t.Errorf("SendMulti = %d, want 2 (ghost skipped)", n)
	}
	for _, w := range []string{"w1", "w2"} {
		env, ok := got[w]
		if !ok {
			t.Fatalf("%s got no delivery", w)
		}
		if env.From != "src" || env.Payload.(string) != "req" {
			t.Errorf("%s envelope = %+v", w, env)
		}
	}
	if v, ok := w3.Inbox().TryRecv(); ok {
		t.Errorf("untargeted w3 received %+v", v)
	}
	for _, ep := range []*Endpoint{w1, w2} {
		if _, dup := ep.Inbox().TryRecv(); dup {
			t.Errorf("%s received the multicast twice", ep.Name())
		}
	}
}

func TestSendMultiRespectsDownAndDrop(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	src := b.Register("src", 0)
	w1 := b.Register("w1", 0)
	w2 := b.Register("w2", 0)
	w2.Disconnect()
	b.SetDropFunc(func(env Envelope, to string) bool { return to == "w1" })

	var n int
	sim.Go(func() { n = src.SendMulti([]string{"w1", "w2"}, 1) })
	sim.Wait()
	if n != 0 {
		t.Errorf("SendMulti = %d, want 0 (one down, one dropped)", n)
	}
	for _, ep := range []*Endpoint{w1, w2} {
		if _, ok := ep.Inbox().TryRecv(); ok {
			t.Errorf("%s received a multicast it was down or dropped for", ep.Name())
		}
	}

	// A disconnected sender reaches nobody.
	src.Disconnect()
	b.SetDropFunc(nil)
	sim.Go(func() { n = src.SendMulti([]string{"w1"}, 2) })
	sim.Wait()
	if n != 0 {
		t.Errorf("down sender SendMulti = %d, want 0", n)
	}
	if _, ok := w1.Inbox().TryRecv(); ok {
		t.Error("a down sender's multicast reached w1")
	}
}

// TestWidePublishSpawnsNoGoroutine pins the delivery path's cost model:
// every fanout target is one clock event, so a 500-subscriber publish on
// a simulated clock creates no goroutine at all.
func TestWidePublishSpawnsNoGoroutine(t *testing.T) {
	const subs = 500
	sim := vclock.NewSim()
	b := New(sim)
	pub := b.Register("pub", time.Millisecond)
	eps := make([]*Endpoint, subs)
	for i := range eps {
		eps[i] = b.Register(fmt.Sprintf("w%03d", i), time.Millisecond)
		eps[i].Subscribe("bids")
	}
	var n, peak int
	sim.Go(func() {
		base := runtime.NumGoroutine()
		n = pub.Publish("bids", "req")
		for _, ep := range eps {
			ep.Inbox().Recv()
			if g := runtime.NumGoroutine() - base; g > peak {
				peak = g
			}
		}
	})
	sim.Wait()
	if n != subs {
		t.Fatalf("Publish reached %d/%d subscribers", n, subs)
	}
	if peak > 0 {
		t.Errorf("a %d-subscriber publish raised the goroutine count by %d, want 0", subs, peak)
	}
}
