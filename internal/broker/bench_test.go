package broker

import (
	"testing"
	"time"

	"crossflow/internal/vclock"
)

// The zero-latency send and five-subscriber fanout benches are
// internal/bench's broker_* suite entries.

// BenchmarkDirectSendWithLatency includes the timer-mediated delayed
// delivery path.
func BenchmarkDirectSendWithLatency(b *testing.B) {
	sim := vclock.NewSim()
	bus := New(sim)
	src := bus.Register("src", time.Millisecond)
	dst := bus.Register("dst", time.Millisecond)
	b.ReportAllocs()
	sim.Go(func() {
		for i := 0; i < b.N; i++ {
			src.Send("dst", i)
			dst.Inbox().Recv()
		}
	})
	sim.Wait()
}
