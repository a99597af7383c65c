package fixture

type probe struct {
	clk   clock
	inbox *mailbox
}

// A wall-clock-only consumer may park: on the real clock Serve is a
// goroutine running a receive loop, and this handler is never served on
// a simulated one.
func (p *probe) start() {
	p.clk.Serve(p.inbox, func(v any, ok bool) bool {
		//xflow:allow servedblock real-clock-only consumer; Serve is a plain goroutine there
		p.clk.Sleep(1)
		return !ok
	})
}
