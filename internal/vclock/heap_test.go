package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// referenceScheduler is the pre-optimization event queue semantics: a
// stable priority list ordered by (when, seq) — exactly what the
// container/heap implementation this package used to have produced.
type referenceScheduler struct {
	evs []timerEvent
}

func (r *referenceScheduler) push(ev timerEvent) {
	i := sort.Search(len(r.evs), func(i int) bool {
		return !eventBefore(&r.evs[i], &ev)
	})
	r.evs = append(r.evs, timerEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = ev
}

func (r *referenceScheduler) pop() timerEvent {
	ev := r.evs[0]
	r.evs = r.evs[1:]
	return ev
}

// TestTimerHeapMatchesReferenceOrder is the determinism guardrail for
// the optimized timer heap: over randomized schedules (many deadline
// ties, interleaved push/pop), the heap must yield events in the exact
// (when, seq) order of the reference implementation.
func TestTimerHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timerHeap
		var ref referenceScheduler
		var seq uint64
		const ops = 3000
		for i := 0; i < ops; i++ {
			if h.len() > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), ref.pop()
				if got.when != want.when || got.seq != want.seq {
					t.Fatalf("seed %d op %d: heap popped (when=%d seq=%d), reference (when=%d seq=%d)",
						seed, i, got.when, got.seq, want.when, want.seq)
				}
				continue
			}
			seq++
			// A narrow deadline range forces heavy tie-breaking on seq.
			ev := timerEvent{when: int64(rng.Intn(16)), seq: seq}
			h.push(ev)
			ref.push(ev)
		}
		for h.len() > 0 {
			got, want := h.pop(), ref.pop()
			if got.when != want.when || got.seq != want.seq {
				t.Fatalf("seed %d drain: heap popped (when=%d seq=%d), reference (when=%d seq=%d)",
					seed, got.when, got.seq, want.when, want.seq)
			}
		}
		if len(ref.evs) != 0 {
			t.Fatalf("seed %d: reference retained %d events after heap drained", seed, len(ref.evs))
		}
	}
}

// TestRingMatchesSliceModel checks the mailbox's ring buffer against a
// plain append/shift slice queue over randomized operation sequences.
func TestRingMatchesSliceModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q ring
		var model []int
		next := 0
		for i := 0; i < 5000; i++ {
			if len(model) > 0 && rng.Intn(2) == 0 {
				got, want := q.pop().(int), model[0]
				model = model[1:]
				if got != want {
					t.Fatalf("seed %d op %d: ring popped %d, model %d", seed, i, got, want)
				}
			} else {
				q.push(next)
				model = append(model, next)
				next++
			}
			if q.len() != len(model) {
				t.Fatalf("seed %d op %d: ring len %d, model %d", seed, i, q.len(), len(model))
			}
		}
		for len(model) > 0 {
			got, want := q.pop().(int), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("seed %d drain: ring popped %d, model %d", seed, got, want)
			}
		}
	}
}

// TestSleepWakeOrderOnTiedDeadlines pins the tie-break contract end to
// end: timers scheduled for the same instant fire in scheduling order,
// and each fired goroutine runs to completion before the next fires.
func TestSleepWakeOrderOnTiedDeadlines(t *testing.T) {
	s := NewSim()
	order := s.NewMailbox("order")
	const n = 16
	s.Go(func() {
		// Schedule the timers one at a time so their sequence numbers
		// follow the loop index deterministically.
		for i := 0; i < n; i++ {
			i := i
			s.AfterFunc(time.Second, func() { order.Send(i) })
		}
	})
	s.Wait()
	if got := order.Len(); got != n {
		t.Fatalf("only %d/%d sleepers fired", got, n)
	}
	for i := 0; i < n; i++ {
		v, _ := order.TryRecv()
		if v.(int) != i {
			t.Fatalf("wake %d was sleeper %d; equal deadlines must fire in scheduling order", i, v)
		}
	}
}
