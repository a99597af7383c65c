package vclock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// contractClocks are the two implementations every script below runs
// on. The wall clock runs 100x: a script's second is 10 ms.
var contractClocks = []struct {
	name  string
	fresh func() Clock
}{
	{"sim", func() Clock { return NewSim() }},
	{"real", func() Clock { return NewScaledReal(100) }},
}

// elapsedOK compares a measured clock duration with the deadline it
// waited for: exact on a simulated clock, not early on a wall clock.
func elapsedOK(c Clock, got, want time.Duration) bool {
	if _, sim := c.(*Sim); sim {
		return got == want
	}
	return got >= want
}

// panics reports whether f panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// clockContract is the Clock and Mailbox contract, written once. Each
// script runs on a goroutine started with c.Go, so it may Sleep and
// Recv, and starts its own actors with c.Go; the harness then joins
// c.Wait, so every script ends every consumer it serves (a simulated
// clock reports an idle one as a deadlock). Scripts wait on events, not
// on wall time: a wall clock's timer may be late, never early, and the
// assertions hold however late. Where a script orders deliveries by
// deadline, the deadlines are seconds apart: a wall deadline counts from
// its own SendAfter call, and the calls are microseconds apart.
var clockContract = []struct {
	name string
	run  func(t *testing.T, c Clock)
}{
	{"FIFO Send and Recv", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("fifo")
		if mb.Name() != "fifo" {
			t.Errorf("Name = %q", mb.Name())
		}
		if _, ok := mb.TryRecv(); ok {
			t.Error("TryRecv on an empty mailbox = true")
		}
		for i := 0; i < 100; i++ {
			if !mb.Send(i) {
				t.Errorf("Send %d = false on an open mailbox", i)
			}
		}
		if mb.Len() != 100 {
			t.Errorf("Len = %d, want 100", mb.Len())
		}
		if v, ok := mb.TryRecv(); !ok || v != 0 {
			t.Errorf("TryRecv = %v, %v, want 0", v, ok)
		}
		for i := 1; i < 100; i++ {
			if v, ok := mb.Recv(); !ok || v != i {
				t.Errorf("Recv %d = %v, %v", i, v, ok)
				return
			}
		}
		if _, ok := mb.TryRecv(); ok || mb.Len() != 0 {
			t.Errorf("TryRecv on a drained mailbox = %v, Len %d", ok, mb.Len())
		}
	}},

	// On the wall clock at 100x the first two waits are below the
	// runtime's timer floor, the third is above it, and a third of a
	// second is not a whole number of wall nanoseconds.
	{"Sleep waits at least d", func(t *testing.T, c Clock) {
		for _, d := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond, time.Second / 3} {
			start := c.Now()
			c.Sleep(d)
			if got := c.Since(start); !elapsedOK(c, got, d) {
				t.Errorf("Sleep(%v) returned after %v", d, got)
			}
		}
	}},

	{"blocking hand-off", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("handoff")
		start := c.Now()
		c.Go(func() {
			c.Sleep(5 * time.Second)
			mb.Send("hello")
		})
		if v, ok := mb.Recv(); !ok || v != "hello" {
			t.Errorf("Recv = %v, %v", v, ok)
		}
		if got := c.Since(start); !elapsedOK(c, got, 5*time.Second) {
			t.Errorf("received after %v, sent after 5s", got)
		}
	}},

	{"Close wakes receivers", func(t *testing.T, c Clock) {
		mb, woken := c.NewMailbox("closing"), c.NewMailbox("woken")
		for i := 0; i < 3; i++ {
			c.Go(func() {
				_, ok := mb.Recv()
				woken.Send(ok)
			})
		}
		c.Sleep(time.Second)
		mb.Close()
		for i := 0; i < 3; i++ {
			if ok, _ := woken.Recv(); ok != false {
				t.Errorf("a receiver parked on a mailbox that closed empty got ok=%v", ok)
			}
		}
	}},

	{"Close drains queued items", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("drain")
		mb.Send(1)
		mb.Send(2)
		mb.Close()
		mb.Close() // a no-op
		if mb.Send(3) {
			t.Error("Send after Close = true")
		}
		var got []any
		for {
			v, ok := mb.Recv()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if fmt.Sprint(got) != "[1 2]" {
			t.Errorf("drained %v, want [1 2]", got)
		}
	}},

	// One runtime timer per delivery let equal wall deadlines overtake
	// each other; 200 of them make that race near-certain.
	{"SendAfter keeps (deadline, call) order", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("ordered")
		start := c.Now()
		want := []any{"now", "past", "early"}
		c.SendAfter(20*time.Second, mb, "last")
		for i := 0; i < 200; i++ {
			c.SendAfter(10*time.Second, mb, i) // all due together
			want = append(want, i)
		}
		c.SendAfter(10*time.Second+time.Millisecond, mb, "near-1") // 10 µs of wall time behind them
		c.SendAfter(10*time.Second+time.Millisecond, mb, "near-2")
		c.SendAfter(5*time.Second, mb, "early")
		c.SendAfter(0, mb, "now")
		c.SendAfter(-time.Second, mb, "past") // a negative delay is zero
		want = append(want, "near-1", "near-2", "last")
		for i, w := range want {
			if v, _ := mb.Recv(); v != w {
				t.Errorf("delivery %d = %v, want %v", i, v, w)
				return
			}
		}
		if got := c.Since(start); !elapsedOK(c, got, 20*time.Second) {
			t.Errorf("last delivery after %v, due after 20s", got)
		}
	}},

	{"SendAfter into a closed mailbox is dropped", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("gone")
		c.SendAfter(time.Second, mb, 1)
		mb.Close()
		c.Sleep(2 * time.Second)
		if v, ok := mb.Recv(); ok {
			t.Errorf("closed mailbox delivered %v", v)
		}
		if n := mb.Len(); n != 0 {
			t.Errorf("closed mailbox holds %d items", n)
		}
	}},

	{"a foreign mailbox panics", func(t *testing.T, c Clock) {
		for _, other := range contractClocks { // another clock of c's kind, and one of the other kind
			theirs := other.fresh().NewMailbox("theirs")
			if !panics(func() { c.SendAfter(time.Second, theirs, 1) }) {
				t.Errorf("SendAfter accepted the mailbox of another (%s) clock", other.name)
			}
			if !panics(func() { c.Serve(theirs, func(any, bool) bool { return true }) }) {
				t.Errorf("Serve accepted the mailbox of another (%s) clock", other.name)
			}
		}
	}},

	{"Serve runs to completion, in order", func(t *testing.T, c Clock) {
		mb, done := c.NewMailbox("served"), c.NewMailbox("done")
		var log []any
		var inside atomic.Int32
		c.Serve(mb, func(v any, ok bool) bool {
			if inside.Add(1) != 1 {
				t.Error("handler calls overlap")
			}
			defer inside.Add(-1)
			log = append(log, v)
			switch v {
			case "c":
				mb.Send("d") // from inside the handler: queues behind this call
			case "d":
				done.Send(nil)
				return true
			}
			return false
		})
		c.SendAfter(5*time.Second, mb, "c")
		c.SendAfter(time.Second, mb, "a")
		c.SendAfter(time.Second, mb, "b")
		done.Recv()
		if fmt.Sprint(log) != "[a b c d]" {
			t.Errorf("handled %v, want [a b c d]", log)
		}
	}},

	{"Serve sees Close once, as ok=false", func(t *testing.T, c Clock) {
		mb, seen := c.NewMailbox("served"), c.NewMailbox("seen")
		var log []string
		c.Serve(mb, func(v any, ok bool) bool {
			if len(log) == 3 {
				t.Errorf("handler called with %v/%v after it saw the close", v, ok)
			}
			log = append(log, fmt.Sprintf("%v/%v", v, ok))
			if v == 2 || !ok {
				seen.Send(nil)
			}
			return false
		})
		mb.Send(1)
		c.SendAfter(time.Second, mb, 2)
		seen.Recv()
		mb.Close()
		mb.Close()
		if mb.Send(3) {
			t.Error("Send after Close = true")
		}
		seen.Recv()
		if want := "[1/true 2/true <nil>/false]"; fmt.Sprint(log) != want {
			t.Errorf("handled %v, want %s", log, want)
		}
	}},

	{"Serve returning done stops consumption", func(t *testing.T, c Clock) {
		mb, stopped := c.NewMailbox("served"), c.NewMailbox("stopped")
		for i := 1; i <= 5; i++ {
			mb.Send(i)
		}
		var got []any
		c.Serve(mb, func(v any, ok bool) bool { // the backlog first, in order
			got = append(got, v)
			if v == 3 {
				stopped.Send(nil)
			}
			return v == 3
		})
		stopped.Recv()
		mb.Send(6)
		c.Sleep(time.Second)
		if fmt.Sprint(got) != "[1 2 3]" {
			t.Errorf("handled %v, want [1 2 3]", got)
		}
		if n := mb.Len(); n != 3 {
			t.Errorf("%d items queued after done, want 3 (4, 5 and the late 6)", n)
		}
		if v, _ := mb.TryRecv(); v != 4 {
			t.Errorf("head of the queue after done = %v, want 4", v)
		}
	}},

	{"Serve twice panics", func(t *testing.T, c Clock) {
		mb := c.NewMailbox("served")
		h := func(any, bool) bool { return true }
		c.Serve(mb, h)
		if !panics(func() { c.Serve(mb, h) }) {
			t.Error("second Serve on one mailbox did not panic")
		}
		mb.Close() // ends the one consumer
	}},

	{"AfterFunc fires once at its deadline", func(t *testing.T, c Clock) {
		fired := c.NewMailbox("fired")
		start := c.Now()
		var calls atomic.Int32
		c.AfterFunc(3*time.Second, func() {
			calls.Add(1)
			fired.Send(c.Since(start))
		})
		got, _ := fired.Recv()
		if !elapsedOK(c, got.(time.Duration), 3*time.Second) {
			t.Errorf("AfterFunc ran after %v, due after 3s", got)
		}
		c.Sleep(3 * time.Second)
		if n := calls.Load(); n != 1 {
			t.Errorf("AfterFunc ran %d times", n)
		}
	}},
}

// TestClockContract runs every contract script against both clocks.
func TestClockContract(t *testing.T) {
	for _, clk := range contractClocks {
		for _, tc := range clockContract {
			t.Run(clk.name+"/"+tc.name, func(t *testing.T) {
				c := clk.fresh()
				c.Go(func() { tc.run(t, c) })
				c.Wait()
			})
		}
	}
}
