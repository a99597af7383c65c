package fixture

// clock mirrors vclock.Clock: Go is the tracked way to start
// goroutines, Serve the tracked way to consume a mailbox without one.
type clock interface {
	Go(func())
	Serve(mb int, handle func(v any, ok bool) bool)
}

func good(c clock, work func()) {
	c.Go(work)
	c.Go(func() { work() })
	c.Serve(0, func(v any, ok bool) bool { work(); return !ok })
}
