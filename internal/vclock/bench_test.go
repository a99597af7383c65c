package vclock

import (
	"testing"
	"time"
)

// The single-sleeper, ping-pong and AfterFunc benches are
// internal/bench's vclock_* suite entries.

// BenchmarkSimParallelSleepers measures contention on the clock's
// global lock with many concurrent sleepers.
func BenchmarkSimParallelSleepers(b *testing.B) {
	const gophers = 16
	s := NewSim()
	b.ReportAllocs()
	per := b.N/gophers + 1
	sleepers := make([]func(), gophers)
	for g := range sleepers {
		sleepers[g] = func() {
			for i := 0; i < per; i++ {
				s.Sleep(time.Second)
			}
		}
	}
	startAll(s, sleepers...)
	s.Wait()
}

// BenchmarkRealMailbox measures the wall-clock mailbox for comparison.
func BenchmarkRealMailbox(b *testing.B) {
	r := NewReal()
	mb := r.NewMailbox("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mb.Send(i)
		mb.Recv()
	}
}
