package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

// startAll starts every actor from one tracked driver goroutine. A test
// goroutine is untracked: were it to call s.Go once per actor, the
// first actor could park (or sleep, advancing time) before the next was
// registered, and the clock would see a half-started system as idle —
// a deadlock report at 00:00:00.000 that only shows under CPU
// contention.
func startAll(s *Sim, actors ...func()) {
	s.Go(func() {
		for _, a := range actors {
			s.Go(a)
		}
	})
}

func TestSimStartsAtEpoch(t *testing.T) {
	s := NewSim()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), Epoch)
	}
}

func TestSimSleepAdvancesExactly(t *testing.T) {
	s := NewSim()
	var woke time.Time
	s.Go(func() {
		s.Sleep(42 * time.Second)
		woke = s.Now()
	})
	end := s.Wait()
	want := Epoch.Add(42 * time.Second)
	if !woke.Equal(want) {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if !end.Equal(want) {
		t.Errorf("Wait() = %v, want %v", end, want)
	}
}

func TestSimSleepZeroAndNegative(t *testing.T) {
	s := NewSim()
	s.Go(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	if end := s.Wait(); !end.Equal(Epoch) {
		t.Errorf("time advanced to %v for non-positive sleeps", end)
	}
}

func TestSimParallelSleepersFinishAtMax(t *testing.T) {
	s := NewSim()
	var sleepers []func()
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		sleepers = append(sleepers, func() { s.Sleep(d) })
	}
	startAll(s, sleepers...)
	if end := s.Wait(); !end.Equal(Epoch.Add(10 * time.Second)) {
		t.Errorf("Wait() = %v, want epoch+10s", end)
	}
}

func TestSimSequentialSleepsAccumulate(t *testing.T) {
	s := NewSim()
	s.Go(func() {
		for i := 0; i < 5; i++ {
			s.Sleep(time.Second)
		}
	})
	if end := s.Wait(); !end.Equal(Epoch.Add(5 * time.Second)) {
		t.Errorf("Wait() = %v, want epoch+5s", end)
	}
}

func TestSimNestedGo(t *testing.T) {
	s := NewSim()
	var inner time.Time
	s.Go(func() {
		s.Sleep(time.Second)
		s.Go(func() {
			s.Sleep(2 * time.Second)
			inner = s.Now()
		})
	})
	s.Wait()
	if want := Epoch.Add(3 * time.Second); !inner.Equal(want) {
		t.Errorf("inner finished at %v, want %v", inner, want)
	}
}

func TestSimSince(t *testing.T) {
	s := NewSim()
	var elapsed time.Duration
	s.Go(func() {
		start := s.Now()
		s.Sleep(90 * time.Second)
		elapsed = s.Since(start)
	})
	s.Wait()
	if elapsed != 90*time.Second {
		t.Errorf("Since = %v, want 90s", elapsed)
	}
}

func TestSimAfterFuncRunsAtDeadline(t *testing.T) {
	s := NewSim()
	var at time.Time
	s.Go(func() {
		s.AfterFunc(30*time.Second, func() { at = s.Now() })
		s.Sleep(time.Second) // exit before the timer fires
	})
	s.Wait()
	if want := Epoch.Add(30 * time.Second); !at.Equal(want) {
		t.Errorf("AfterFunc ran at %v, want %v", at, want)
	}
}

func TestSimEqualDeadlinesFireInScheduleOrder(t *testing.T) {
	s := NewSim()
	var order []int
	s.Go(func() {
		for i := 0; i < 5; i++ {
			i := i
			s.AfterFunc(time.Second, func() { order = append(order, i) })
			// Serialize the fired goroutines by letting each one finish:
			// each AfterFunc body runs alone because the spawner sleeps.
		}
		s.Sleep(2 * time.Second)
	})
	s.Wait()
	if len(order) != 5 {
		t.Fatalf("fired %d timers, want 5", len(order))
	}
	// Timers at the same deadline must fire in scheduling order. The
	// append itself races only if two fire concurrently; firing hands the
	// single runnable credit to one goroutine at a time, and each body
	// runs to completion without blocking, so order is deterministic.
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order = %v, want ascending", order)
		}
	}
}

func TestSimMailboxTryRecv(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("try")
	s.Go(func() {
		if _, ok := mb.TryRecv(); ok {
			t.Error("TryRecv on empty mailbox = true")
		}
		mb.Send("x")
		if mb.Len() != 1 {
			t.Errorf("Len = %d, want 1", mb.Len())
		}
		if v, ok := mb.TryRecv(); !ok || v.(string) != "x" {
			t.Errorf("TryRecv = %v, %v", v, ok)
		}
	})
	s.Wait()
	if mb.Name() != "try" {
		t.Errorf("Name = %q", mb.Name())
	}
}

func TestSimDeadlockDetection(t *testing.T) {
	s := NewSim()
	var waiting []string
	s.SetDeadlockHandler(func(w []string) { waiting = w })
	mb := s.NewMailbox("never")
	s.Go(func() { mb.Recv() })
	s.Wait()
	if !s.Deadlocked() {
		t.Fatal("deadlock not detected")
	}
	if len(waiting) != 1 {
		t.Fatalf("waiting = %v, want one entry", waiting)
	}
}

func TestSimDeadlockPanicsByDefault(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("never")
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		// Untracked launch so the panic surfaces in this goroutine: the
		// blocking Recv itself triggers the advance that deadlocks.
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		mb.Recv()
	}()
	if p := <-panicked; p == nil {
		t.Fatal("expected deadlock panic")
	}
}

func TestSimPingPong(t *testing.T) {
	s := NewSim()
	a, b := s.NewMailbox("a"), s.NewMailbox("b")
	const rounds = 50
	var hops int
	startAll(s, func() {
		for i := 0; i < rounds; i++ {
			v, _ := a.Recv()
			s.Sleep(time.Second)
			b.Send(v.(int) + 1)
		}
	}, func() {
		a.Send(0)
		for i := 0; i < rounds; i++ {
			v, _ := b.Recv()
			hops = v.(int)
			if i < rounds-1 {
				a.Send(v)
			}
		}
	})
	end := s.Wait()
	if hops != rounds {
		t.Errorf("hops = %d, want %d", hops, rounds)
	}
	if want := Epoch.Add(rounds * time.Second); !end.Equal(want) {
		t.Errorf("end = %v, want %v", end, want)
	}
}

func TestSimWaitIdempotent(t *testing.T) {
	s := NewSim()
	s.Go(func() { s.Sleep(time.Second) })
	first := s.Wait()
	second := s.Wait()
	if !first.Equal(second) {
		t.Errorf("Wait returned %v then %v", first, second)
	}
}

// Property: with n independent goroutines each performing a sequence of
// sleeps, the final simulated time equals the maximum per-goroutine sum.
func TestSimPropertyMaxOfSums(t *testing.T) {
	prop := func(raw [][]uint16) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true // constrain the domain, not the property
		}
		s := NewSim()
		var max time.Duration
		var actors []func()
		for _, seq := range raw {
			if len(seq) > 32 {
				seq = seq[:32]
			}
			var sum time.Duration
			for _, ms := range seq {
				sum += time.Duration(ms) * time.Millisecond
			}
			if sum > max {
				max = sum
			}
			seq := seq
			actors = append(actors, func() {
				for _, ms := range seq {
					s.Sleep(time.Duration(ms) * time.Millisecond)
				}
			})
		}
		startAll(s, actors...)
		return s.Wait().Equal(Epoch.Add(max))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: messages through a chain of relay stages preserve order and
// accumulate the per-stage delay exactly once per message per stage.
func TestSimPropertyRelayChain(t *testing.T) {
	prop := func(nMsg uint8, nStage uint8, delayMs uint8) bool {
		msgs := int(nMsg%20) + 1
		stages := int(nStage%5) + 1
		delay := time.Duration(delayMs) * time.Millisecond
		s := NewSim()
		boxes := make([]Mailbox, stages+1)
		for i := range boxes {
			boxes[i] = s.NewMailbox("stage")
		}
		var actors []func()
		for i := 0; i < stages; i++ {
			in, out := boxes[i], boxes[i+1]
			actors = append(actors, func() {
				for {
					v, ok := in.Recv()
					if !ok {
						out.Close()
						return
					}
					s.Sleep(delay)
					out.Send(v)
				}
			})
		}
		var got []int
		actors = append(actors, func() {
			for i := 0; i < msgs; i++ {
				boxes[0].Send(i)
			}
			boxes[0].Close()
			for {
				v, ok := boxes[stages].Recv()
				if !ok {
					return
				}
				got = append(got, v.(int))
			}
		})
		startAll(s, actors...)
		end := s.Wait()
		if len(got) != msgs {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		// Pipeline makespan: (msgs-1) spacings at the bottleneck plus the
		// fill time through all stages.
		want := Epoch.Add(time.Duration(msgs-1)*delay + time.Duration(stages)*delay)
		return end.Equal(want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
