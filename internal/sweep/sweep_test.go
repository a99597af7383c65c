package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachResultsByIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		out, err := Each(workers, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if out, err := Each(4, 0, func(int) (int, error) { panic("called") }); err != nil || len(out) != 0 {
		t.Errorf("n=0: %v, %v", out, err)
	}
}

// One worker is the caller's own loop: indices in order, and none past
// the first failure.
func TestEachSerialStopsAtFirstError(t *testing.T) {
	var calls []int
	out, err := Each(1, 10, func(i int) (string, error) {
		calls = append(calls, i)
		if i == 2 || i == 5 {
			return "bad", fmt.Errorf("index %d", i)
		}
		return "ok", nil
	})
	if err == nil || err.Error() != "index 2" {
		t.Fatalf("err = %v, want index 2", err)
	}
	if fmt.Sprint(calls) != "[0 1 2]" {
		t.Errorf("calls = %v, want [0 1 2]", calls)
	}
	if fmt.Sprint(out) != "[ok ok bad]" {
		t.Errorf("out = %q, want the results up to and including the failing index", out)
	}
}

// Several indices fail, in an order the scheduler and the jitter
// choose; the reported error is always the lowest's, and everything
// below it ran.
func TestEachLowestIndexErrorWhateverTheInterleaving(t *testing.T) {
	const n, lowest = 40, 7
	bad := map[int]bool{lowest: true, 8: true, 19: true, 33: true}
	for round := 0; round < 200; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		spin := make([]int, n)
		for i := range spin {
			spin[i] = rng.Intn(4)
		}
		// Every other round the lowest failure is also the slowest.
		if round%2 == 0 {
			spin[lowest] = 50
		}
		var ran [n]atomic.Bool
		out, err := Each(4, n, func(i int) (struct{}, error) {
			for k := 0; k < spin[i]; k++ {
				runtime.Gosched()
			}
			ran[i].Store(true)
			if bad[i] {
				return struct{}{}, fmt.Errorf("index %d", i)
			}
			return struct{}{}, nil
		})
		if err == nil || err.Error() != fmt.Sprintf("index %d", lowest) {
			t.Fatalf("round %d: err = %v, want index %d", round, err, lowest)
		}
		if len(out) != lowest+1 {
			t.Fatalf("round %d: %d results, want them to end at the failing index %d", round, len(out), lowest)
		}
		for i := 0; i <= lowest; i++ {
			if !ran[i].Load() {
				t.Fatalf("round %d: index %d below the failure never ran", round, i)
			}
		}
	}
}

// eachWithin fails the test instead of hanging it.
func eachWithin(t *testing.T, workers, n int, fn func(int) (int, error)) (panicked any, err error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		_, err = Each(workers, n, fn)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Each never returned")
	}
	return panicked, err
}

func TestEachPanicReachesTheCaller(t *testing.T) {
	boom := errors.New("boom at five")
	for _, workers := range []int{1, 4} {
		p, err := eachWithin(t, workers, 12, func(i int) (int, error) {
			if i == 5 {
				panic(boom)
			}
			return i, nil
		})
		raised, _ := p.(*Panic)
		if raised == nil || raised.Index != 5 || raised.Value != any(boom) || !errors.Is(raised, boom) {
			t.Fatalf("workers=%d: err = %v, panic = %v; want fn(5)'s panic raised with its value", workers, err, p)
		}
		if msg := raised.Error(); !strings.Contains(msg, "boom at five") || !strings.Contains(msg, "sweep_test.go") {
			t.Errorf("workers=%d: raised panic lost the value or fn's stack:\n%s", workers, msg)
		}
	}
}

// A serial loop returning at index 3 never reaches the panic at 9.
func TestEachErrorBelowAPanicWins(t *testing.T) {
	want := errors.New("three")
	for round := 0; round < 50; round++ {
		p, err := eachWithin(t, 4, 12, func(i int) (int, error) {
			switch i {
			case 3:
				runtime.Gosched()
				return 0, want
			case 9:
				panic("nine")
			}
			return i, nil
		})
		if p != nil || !errors.Is(err, want) {
			t.Fatalf("round %d: err = %v, panic = %v; want the lower index's error", round, err, p)
		}
	}
}
