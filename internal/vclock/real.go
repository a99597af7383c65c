package vclock

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// timerFloor is the shortest wall wait the runtime's timers honour
// when the process is otherwise idle: Go's Linux netpoller blocks in
// whole milliseconds, so a shorter timer fires about a millisecond
// late. On a 2-core x86-64 host (Go 1.24), time.Sleep(20µs) took
// 1.03 ms at p50 and time.Sleep(100µs) took 1.08 ms.
const timerFloor = time.Millisecond

// Real is a Clock backed by the operating-system clock. A Scale factor
// greater than one compresses time: Sleep(10s) with Scale 100 blocks for
// 100ms of wall time while Now advances by the full ten seconds. This
// lets the live TCP deployment replay long workflows quickly without
// touching engine code.
//
// Sleep spins through waits below timerFloor; the timers do not.
// AfterFunc and SendAfter have no goroutine of their own that could
// spin, and a dedicated spinner would burn a core whenever any short
// deadline is pending, so a timer due in less than timerFloor of wall
// time fires up to a floor late.
type Real struct {
	scale float64
	wg    sync.WaitGroup
	base  time.Time // wall instant at which the clock was created
}

// NewReal returns a real-time clock running at normal speed.
func NewReal() *Real { return NewScaledReal(1) }

// NewScaledReal returns a real-time clock that runs scale times faster
// than wall time. Scale values below or equal to zero are treated as 1.
func NewScaledReal(scale float64) *Real {
	if scale <= 0 {
		scale = 1
	}
	return &Real{scale: scale, base: time.Now()}
}

// Now returns the scaled current time: Epoch at the clock's creation.
func (r *Real) Now() time.Time {
	return Epoch.Add(time.Duration(float64(time.Since(r.base)) * r.scale))
}

// Sleep blocks for d of clock time (d/scale of wall time), never less.
// A wait shorter than timerFloor spins, yielding the processor on every
// turn so that the other goroutines waiting on a small host still run;
// a longer one sleeps, late by at most one floor.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := r.wall(d)
	if w >= timerFloor {
		time.Sleep(w)
		return
	}
	for deadline := time.Now().Add(w); time.Now().Before(deadline); {
		runtime.Gosched()
	}
}

// AfterFunc runs f in its own goroutine after d of clock time.
func (r *Real) AfterFunc(d time.Duration, f func()) {
	time.AfterFunc(r.wall(d), f)
}

// SendAfter sends v to mb after d of clock time. Each delivery has its
// own runtime timer, whose goroutines may overtake each other; the
// mailbox queues the items by deadline (realMailbox.sendAfter), so
// deliveries to one mailbox still arrive in (deadline, call) order as
// they do on a Sim.
func (r *Real) SendAfter(d time.Duration, mb Mailbox, v any) {
	r.own(mb).sendAfter(r.wall(d), v)
}

// own asserts that mb was created by this clock, whose scale its
// deliveries run at.
func (r *Real) own(mb Mailbox) *realMailbox {
	m, ok := mb.(*realMailbox)
	if !ok || m.clk != r {
		panic(fmt.Sprintf("vclock: mailbox %q does not belong to this wall clock", mb.Name()))
	}
	return m
}

// Since returns the clock time elapsed since t.
func (r *Real) Since(t time.Time) time.Duration { return r.Now().Sub(t) }

// Go starts fn as a goroutine joined by Wait.
func (r *Real) Go(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Serve consumes mb on a goroutine joined by Wait.
func (r *Real) Serve(mb Mailbox, handle func(v any, ok bool) (done bool)) {
	m := r.own(mb)
	m.mu.Lock()
	again := m.served
	m.served = true
	m.mu.Unlock()
	if again {
		panic(fmt.Sprintf("vclock: mailbox %q is already served", m.name))
	}
	r.Go(func() {
		for {
			v, ok := mb.Recv()
			if handle(v, ok) || !ok {
				return
			}
		}
	})
}

// Wait blocks until every goroutine started with Go has exited.
func (r *Real) Wait() time.Time {
	r.wg.Wait()
	return r.Now()
}

// wall converts d of clock time to wall time, rounding up so that no
// wait ends before its clock deadline.
func (r *Real) wall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(math.Ceil(float64(d) / r.scale))
}
