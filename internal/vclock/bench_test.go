package vclock

import (
	"testing"
	"time"
)

// BenchmarkSimSleepEvents measures raw event throughput of the
// simulated clock: one goroutine sleeping in a tight loop.
func BenchmarkSimSleepEvents(b *testing.B) {
	s := NewSim()
	b.ReportAllocs()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Second)
		}
	})
	s.Wait()
}

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

// BenchmarkSimMailboxPingPong measures one full handoff cycle: send,
// wake, receive, reply.
func BenchmarkSimMailboxPingPong(b *testing.B) {
	s := NewSim()
	a, c := s.NewMailbox("a"), s.NewMailbox("b")
	b.ReportAllocs()
	startAll(s, func() {
		for i := 0; i < b.N; i++ {
			v, _ := a.Recv()
			c.Send(v)
		}
	}, func() {
		for i := 0; i < b.N; i++ {
			a.Send(i)
			c.Recv()
		}
	})
	s.Wait()
}

// BenchmarkSimAfterFunc measures timer scheduling and firing.
func BenchmarkSimAfterFunc(b *testing.B) {
	s := NewSim()
	b.ReportAllocs()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			done := s.NewMailbox("t")
			s.AfterFunc(time.Second, func() { done.Send(struct{}{}) })
			done.Recv()
		}
	})
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
