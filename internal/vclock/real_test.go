package vclock

import (
	"testing"
	"time"
)

func TestRealNowAdvances(t *testing.T) {
	r := NewReal()
	a := r.Now()
	time.Sleep(5 * time.Millisecond)
	if !r.Now().After(a) {
		t.Error("Now did not advance")
	}
}

func TestRealScaledSleepIsFaster(t *testing.T) {
	r := NewScaledReal(1000)
	start := time.Now()
	r.Sleep(2 * time.Second) // 2ms of wall time
	if wall := time.Since(start); wall > 500*time.Millisecond {
		t.Errorf("scaled sleep took %v of wall time", wall)
	}
}

func TestRealScaledNow(t *testing.T) {
	r := NewScaledReal(1000)
	a := r.Now()
	time.Sleep(10 * time.Millisecond)
	if elapsed := r.Since(a); elapsed < 5*time.Second {
		t.Errorf("scaled clock advanced only %v in 10ms wall", elapsed)
	}
}

func TestRealInvalidScaleDefaultsToOne(t *testing.T) {
	r := NewScaledReal(-3)
	if r.scale != 1 {
		t.Errorf("scale = %v, want 1", r.scale)
	}
}

func TestRealGoWait(t *testing.T) {
	r := NewReal()
	done := false
	r.Go(func() {
		time.Sleep(2 * time.Millisecond)
		done = true
	})
	r.Wait()
	if !done {
		t.Error("Wait returned before goroutine finished")
	}
}

func TestRealMailboxBasics(t *testing.T) {
	r := NewReal()
	mb := r.NewMailbox("real")
	if mb.Name() != "real" {
		t.Errorf("Name = %q", mb.Name())
	}
	mb.Send(1)
	mb.Send(2)
	if mb.Len() != 2 {
		t.Errorf("Len = %d", mb.Len())
	}
	if v, ok := mb.Recv(); !ok || v.(int) != 1 {
		t.Errorf("Recv = %v, %v", v, ok)
	}
	if v, ok := mb.TryRecv(); !ok || v.(int) != 2 {
		t.Errorf("TryRecv = %v, %v", v, ok)
	}
	if _, ok := mb.TryRecv(); ok {
		t.Error("TryRecv on empty = true")
	}
}

func TestRealMailboxBlockingHandoff(t *testing.T) {
	r := NewReal()
	mb := r.NewMailbox("handoff")
	go func() {
		time.Sleep(2 * time.Millisecond)
		mb.Send("v")
	}()
	if v, ok := mb.Recv(); !ok || v.(string) != "v" {
		t.Errorf("Recv = %v, %v", v, ok)
	}
}

func TestRealMailboxClose(t *testing.T) {
	r := NewReal()
	mb := r.NewMailbox("close")
	okc := make(chan bool, 1)
	go func() {
		_, ok := mb.Recv()
		okc <- ok
	}()
	time.Sleep(2 * time.Millisecond)
	mb.Close()
	if <-okc {
		t.Error("Recv after Close returned ok=true")
	}
	if mb.Send("x") {
		t.Error("Send after Close = true")
	}
	if _, ok := mb.Recv(); ok {
		t.Error("Recv on closed = ok")
	}
	mb.Close() // idempotent
}

// Both implementations must satisfy the interfaces.
var (
	_ Clock = (*Sim)(nil)
	_ Clock = (*Real)(nil)
)

// TestRealSendAfterKeepsDeadlineThenCallOrder: deliveries to one mailbox
// arrive in (deadline, call) order, as on a Sim. With one runtime timer
// per delivery, equal deadlines raced each other — which let a feed's
// close overtake its last submissions and broke the in-process broker's
// per-route FIFO on the wall clock.
func TestRealSendAfterKeepsDeadlineThenCallOrder(t *testing.T) {
	r := NewScaledReal(1000)
	mb := r.NewMailbox("ordered")
	const n = 500
	for i := 0; i < n; i++ {
		r.SendAfter(200*time.Second, mb, i) // 200ms of wall time, all due together
	}
	r.SendAfter(100*time.Second, mb, "early")
	r.SendAfter(0, mb, "now")
	want := append([]any{"now", "early"}, make([]any, n)...)
	for i := 0; i < n; i++ {
		want[2+i] = i
	}
	for i, w := range want {
		if v, ok := mb.Recv(); !ok || v != w {
			t.Fatalf("delivery %d = %v (ok=%v), want %v", i, v, ok, w)
		}
	}
}

func TestRealSendAfterDropsIntoClosedMailbox(t *testing.T) {
	r := NewScaledReal(1000)
	mb := r.NewMailbox("closing")
	r.SendAfter(time.Second, mb, 1)
	mb.Close()
	time.Sleep(5 * time.Millisecond)
	if n := mb.Len(); n != 0 {
		t.Errorf("closed mailbox holds %d items after a SendAfter came due", n)
	}
}
