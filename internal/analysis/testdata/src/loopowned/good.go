package fixture

// lockedAccess holds the named mutex.
func (l *loop) lockedAccess() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.guarded++
}

// timerRequeue locks inside the spawned closure — the worker's
// requeue-timer idiom.
func (l *loop) timerRequeue() {
	l.clk.AfterFunc(1, func() {
		l.mu.Lock()
		l.guarded++
		l.mu.Unlock()
	})
}

// alsoLoop is a second member of the looper domain; the both field is
// reachable through the domain even without the mutex.
//
//xflow:goroutine looper
func (l *loop) alsoLoop() {
	l.both++
	l.state = 4
}

// constructor-style function annotated into the domain (runs before the
// loop starts, mutually excluded with it).
//
//xflow:goroutine looper
func newLoop() *loop {
	l := &loop{}
	l.state = 1
	// Composite-literal keys are field names, not accesses:
	_ = &loop{state: 9, both: 9}
	return l
}

// Serve mirrors vclock.Clock.Serve. It is not a spawn: the consumer it
// installs is the loop itself, so a literal handler is vetted in the
// domain of the function that installs it, and a method handler is an
// ordinary domain entry.
func (clock) Serve(mb int, handle func(v any, ok bool) bool) {}

//xflow:goroutine looper
func (l *loop) startServed() {
	l.clk.Serve(0, func(v any, ok bool) bool {
		l.state++
		return !ok
	})
	l.clk.Serve(1, l.serve)
}

//xflow:goroutine looper
func (l *loop) serve(v any, ok bool) bool {
	l.state = 5
	l.helper()
	return !ok
}

// unowned fields stay unchecked everywhere.
func (l *loop) freeAccess() clock {
	return l.clk
}
