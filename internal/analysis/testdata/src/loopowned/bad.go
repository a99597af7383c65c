// Fixture: goroutine-ownership violations.
package fixture

import "sync"

type clock struct{}

func (clock) AfterFunc(d int, f func()) {}

type loop struct {
	clk clock
	mu  sync.Mutex

	guarded int //xflow:owned mu=mu
	state   int //xflow:owned looper
	both    int //xflow:owned looper mu=mu (either context suffices)
}

//xflow:goroutine looper
func (l *loop) run() {
	l.state++
	l.helper()
}

// helper is reachable from run, so its access is in-domain.
func (l *loop) helper() {
	l.state = 2
}

// outside is reachable from no looper function and takes no lock.
func (l *loop) outside() {
	l.state = 3 // want loopowned
}

// unlockedAccess touches a mutex-guarded field without the mutex.
func (l *loop) unlockedAccess() {
	l.guarded++ // want loopowned
}

// timerLeak: the closure runs on the timer goroutine, detached from the
// looper domain of its creator, and takes no lock.
//
//xflow:goroutine looper
func (l *loop) timerLeak() {
	l.clk.AfterFunc(1, func() {
		l.state++ // want loopowned
	})
}

// goLeak: an outer lock is no license for the spawned goroutine.
func (l *loop) goLeak() {
	l.mu.Lock()
	l.guarded++
	l.mu.Unlock()
	go func() {
		l.guarded++ // want loopowned
	}()
}

// serveOutside installs a consumer from outside the looper domain: the
// handler inherits its creator's context, which has no claim on state.
func (l *loop) serveOutside() {
	l.clk.Serve(2, func(v any, ok bool) bool {
		l.state++ // want loopowned
		return !ok
	})
}

// neither: both-annotated field accessed with neither domain nor lock.
func (l *loop) neither() {
	l.both++ // want loopowned
}
