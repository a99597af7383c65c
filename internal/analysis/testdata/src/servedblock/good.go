// Fixture: served handlers that keep Clock.Serve's no-blocking contract.
package fixture

// clock and mailbox mirror the vclock surface the rule knows by name.
type clock struct{}

func (clock) Serve(mb *mailbox, handle func(v any, ok bool) bool) {}
func (clock) Go(f func())                                         {}
func (clock) Sleep(d int)                                         {}
func (clock) SendAfter(d int, mb *mailbox, v any)                 {}

type mailbox struct{}

func (*mailbox) Send(v any) bool      { return true }
func (*mailbox) Recv() (any, bool)    { return nil, false }
func (*mailbox) TryRecv() (any, bool) { return nil, false }

type actor struct {
	clk   clock
	inbox *mailbox
	reply *mailbox
	// dispatch is the embedding type's switch, called through the field.
	dispatch func(v any) bool
}

func (a *actor) start() {
	a.dispatch = a.cleanSwitch
	a.clk.Serve(a.inbox, a.serve)
}

// serve is a clean handler: sends, self-timers and non-blocking polls
// are all fine, and so is everything behind the dispatch field.
func (a *actor) serve(v any, ok bool) bool {
	if !ok {
		return true
	}
	a.reply.Send(v)
	a.clk.SendAfter(1, a.inbox, "tick")
	a.inbox.TryRecv()
	return a.dispatch(v)
}

func (a *actor) cleanSwitch(v any) bool {
	// Work that must wait goes on a tracked goroutine, which may block
	// as it likes and sends its result back.
	a.clk.Go(func() {
		a.clk.Sleep(5)
		got, _ := a.reply.Recv()
		a.inbox.Send(got)
	})
	return false
}

// notServed blocks, but nothing passes it to Serve or reaches it from a
// handler: the rule has no opinion.
func (a *actor) notServed() {
	a.clk.Sleep(1)
	a.inbox.Recv()
}
