// Fixture: served handlers that block on the clock.
package fixture

type waiter struct {
	clk   clock
	inbox *mailbox
	acks  *mailbox
	// route is called through the field; the rule resolves it by type to
	// every value-used function with this signature.
	route func(v any, hops int)
}

func (w *waiter) start() {
	w.route = w.forward
	w.clk.Serve(w.inbox, w.serve)
	// A literal handler is an entry too.
	w.clk.Serve(w.acks, func(v any, ok bool) bool {
		w.clk.Sleep(1) // want servedblock
		return !ok
	})
}

// serve is a violating handler: it waits for an acknowledgement inline
// and reaches more waits through a helper and through the route field.
func (w *waiter) serve(v any, ok bool) bool {
	w.acks.Recv() // want servedblock
	w.settle()
	w.route(v, 1)
	return !ok
}

func (w *waiter) settle() {
	w.inbox.Recv() // want servedblock
}

func (w *waiter) forward(v any, hops int) {
	w.clk.Sleep(hops) // want servedblock
}
