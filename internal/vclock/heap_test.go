package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// referenceScheduler is the pre-optimization event queue semantics: a
// stable priority list ordered by (when, seq) — exactly what the
// container/heap implementation this package used to have produced.
type referenceScheduler struct {
	keys []timerKey
}

func (r *referenceScheduler) push(k timerKey) {
	i := sort.Search(len(r.keys), func(i int) bool {
		return !r.keys[i].before(&k)
	})
	r.keys = append(r.keys, timerKey{})
	copy(r.keys[i+1:], r.keys[i:])
	r.keys[i] = k
}

func (r *referenceScheduler) pop() timerKey {
	k := r.keys[0]
	r.keys = r.keys[1:]
	return k
}

func (r *referenceScheduler) removeSeq(seq uint64) timerKey {
	i := 0
	for r.keys[i].seq != seq {
		i++
	}
	k := r.keys[i]
	r.keys = append(r.keys[:i], r.keys[i+1:]...)
	return k
}

// TestTimerHeapMatchesReferenceOrder is the determinism guardrail for
// the optimized timer heap: over randomized schedules (many deadline
// ties; pushes interleaved with pops and with removeSeq, as the model
// checker's choose path calls it), the heap must yield events in the
// exact (when, seq) order of the reference implementation. Each event
// carries its own seq, so a slab slot reused for the wrong event, or
// read through a stale key, shows up as a mismatch; the slab must not
// outgrow the most events ever pending at once.
func TestTimerHeapMatchesReferenceOrder(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h timerHeap
		var ref referenceScheduler
		var seq uint64
		peak := 0
		check := func(op string, got timerKey, ev timerEvent, want timerKey) {
			t.Helper()
			if got.when != want.when || got.seq != want.seq {
				t.Fatalf("seed %d %s: heap gave (when=%d seq=%d), reference (when=%d seq=%d)",
					seed, op, got.when, got.seq, want.when, want.seq)
			}
			if ev.item != want.seq {
				t.Fatalf("seed %d %s: key seq %d came with the event of seq %v", seed, op, want.seq, ev.item)
			}
		}
		const ops = 3000
		for i := 0; i < ops; i++ {
			op := fmt.Sprintf("op %d", i)
			switch r := rng.Intn(6); {
			case h.len() > 0 && r < 2:
				k, ev := h.pop()
				check(op+" pop", k, ev, ref.pop())
			case h.len() > 0 && r == 2:
				victim := ref.keys[rng.Intn(len(ref.keys))].seq
				k, ev := h.removeSeq(victim)
				check(op+" removeSeq", k, ev, ref.removeSeq(victim))
			default:
				seq++
				// A narrow deadline range forces heavy tie-breaking on seq.
				when := int64(rng.Intn(16))
				h.push(when, seq, timerEvent{item: seq})
				ref.push(timerKey{when: when, seq: seq})
				peak = max(peak, h.len())
			}
			if len(h.slab) > peak {
				t.Fatalf("seed %d %s: slab holds %d slots, at most %d events were ever pending", seed, op, len(h.slab), peak)
			}
		}
		for h.len() > 0 {
			k, ev := h.pop()
			check("drain", k, ev, ref.pop())
		}
		if len(ref.keys) != 0 {
			t.Fatalf("seed %d: reference retained %d events after heap drained", seed, len(ref.keys))
		}
		for slot, ev := range h.slab {
			if ev.item != nil {
				t.Fatalf("seed %d: freed slot %d still holds event %v", seed, slot, ev.item)
			}
		}
	}
}

// TestTimerHeapSteadyStateDoesNotAllocate: once the keys, slab and free
// list have grown to the pending high-water mark, scheduling and firing
// an event allocates nothing.
func TestTimerHeapSteadyStateDoesNotAllocate(t *testing.T) {
	var h timerHeap
	w := &mbWaiter{}
	var seq uint64
	for i := 0; i < 64; i++ {
		seq++
		h.push(int64(i%8), seq, timerEvent{kind: evWake, w: w})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		h.push(int64(seq%8), seq, timerEvent{kind: evWake, w: w})
		h.pop()
	})
	if allocs != 0 {
		t.Errorf("push+pop allocated %.1f times per event after warm-up, want 0", allocs)
	}
}

// TestTimerKeyHoldsNoPointers: the heap's sift loops move keys, and a
// pointer in one would bring back the write barriers the slab layout
// exists to avoid.
func TestTimerKeyHoldsNoPointers(t *testing.T) {
	var holds func(reflect.Type) bool
	holds = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if holds(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return holds(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		default:
			return true
		}
	}
	typ := reflect.TypeOf(timerKey{})
	if holds(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
	if size := typ.Size(); size != 24 {
		t.Errorf("%v is %d bytes, want 24", typ, size)
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
