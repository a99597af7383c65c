// Package sweep runs independent, index-addressed units of work on a
// bounded number of goroutines and gives the answer a serial loop would.
// It sits above any vclock.Clock: a unit owns whole simulations and
// shares nothing mutable with its siblings, so these goroutines are not
// ones a clock has to track.
package sweep

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Panic is what Each raises on its caller when fn panicked.
type Panic struct {
	Index int    // the i of the fn(i) that panicked
	Value any    // what it panicked with
	Stack []byte // of the goroutine it panicked on
}

func (p *Panic) Error() string {
	return fmt.Sprintf("sweep: fn(%d) panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap is the original value when that was an error, for errors.Is/As.
func (p *Panic) Unwrap() error { err, _ := p.Value.(error); return err }

// Each calls fn(i) for every i in [0, n) on up to workers goroutines —
// the caller's among them, so workers <= 1 is a plain loop — and
// returns the results by index. On failure the error is the lowest
// failing index's, the one a serial loop would have hit first, and the
// results end with that index's: indices are handed out in increasing
// order and none past a known failure is started, so every index up to
// the failing one has run. A panic in fn counts as a failure of its
// index and, if it is the lowest, is raised on the caller as a *Panic.
func Each[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index so far
		err    error
	)
	one := func(i int) {
		var e error
		defer func() {
			if p := recover(); p != nil {
				e = &Panic{i, p, debug.Stack()}
			}
			if e == nil {
				return
			}
			mu.Lock()
			if i < failed {
				failed, err = i, e
			}
			mu.Unlock()
		}()
		out[i], e = fn(i)
	}
	var wg sync.WaitGroup
	loop := func() {
		defer wg.Done()
		for {
			mu.Lock()
			// failed only decreases, so nothing at or below its final
			// value is ever skipped.
			i, stop := next, next >= n || next > failed
			next++
			mu.Unlock()
			if stop {
				return
			}
			one(i)
		}
	}
	workers = max(1, min(workers, n))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go loop()
	}
	loop()
	wg.Wait()
	if p, ok := err.(*Panic); ok {
		panic(p)
	}
	return out[:min(failed+1, n)], err
}
