package vclock

import (
	"slices"
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

// TestRealSleepHonoursSubFloorWaits: a wall wait below the runtime's
// timer floor ends on time, not a millisecond late. At ×1000 a 50 ms
// sleep is 50 µs of wall time, which time.Sleep on an idle process
// stretches to about 1 ms.
func TestRealSleepHonoursSubFloorWaits(t *testing.T) {
	r := NewScaledReal(1000)
	const n, d, wall = 200, 50 * time.Millisecond, 50 * time.Microsecond
	took := make([]time.Duration, n)
	for i := range took {
		start := time.Now()
		r.Sleep(d)
		took[i] = time.Since(start)
		if took[i] < wall {
			t.Fatalf("Sleep(%v) at ×1000 returned after %v of wall time, want at least %v", d, took[i], wall)
		}
	}
	slices.Sort(took)
	if p50 := took[n/2]; p50 >= 400*time.Microsecond {
		t.Errorf("Sleep(%v) at ×1000 took %v of wall time at p50, want under 400µs", d, p50)
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
