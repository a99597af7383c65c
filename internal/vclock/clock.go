// Package vclock provides the time kernel used by every other subsystem.
//
// Two implementations of the Clock interface exist:
//
//   - Sim, a discrete-event simulated clock. Goroutines registered with
//     Sim.Go are tracked; when every tracked goroutine is blocked in a
//     clock-mediated wait (Sleep, timer, or Mailbox receive), the clock
//     jumps straight to the earliest pending deadline. Hours of simulated
//     activity therefore execute in milliseconds, and runs are repeatable
//     under seeded randomness.
//
//   - Real, a thin wrapper over package time with an optional scale
//     factor, used when the engine runs as an actual distributed process
//     over TCP.
//
// Everything in the engine that waits — worker compute delays, network
// transfer times, the bidding window, broker delivery latency — waits
// through a Clock, which is what lets the same engine code run simulated
// and live.
package vclock

import "time"

// Clock abstracts the passage of time for the simulation engine.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time

	// Sleep blocks the calling goroutine for duration d of clock time.
	// Non-positive durations yield without advancing time.
	Sleep(d time.Duration)

	// AfterFunc schedules f to run in its own goroutine after d has
	// elapsed. It is the primitive for callbacks that may block; a
	// message wants SendAfter. Nothing cancels a scheduled call: a
	// deadline that may lapse is a SendAfter message its receiver
	// ignores.
	AfterFunc(d time.Duration, f func())

	// SendAfter delivers v to mb once d has elapsed, exactly as
	// mb.Send(v) would at that instant: a mailbox closed by then drops
	// it. mb must belong to this clock. Deliveries to one mailbox
	// happen in (deadline, call) order on either clock, so a message
	// scheduled behind another for the same instant stays behind it. On
	// a simulated clock the delivery is a plain clock event, no
	// goroutine, which is what makes it the message path's primitive.
	SendAfter(d time.Duration, mb Mailbox, v any)

	// Since returns the clock time elapsed since t.
	Since(t time.Time) time.Duration

	// NewMailbox returns an unbounded FIFO queue whose blocking receive
	// is integrated with this clock. The name appears in diagnostics.
	NewMailbox(name string) Mailbox

	// Go starts fn as a goroutine tracked by this clock. On a simulated
	// clock, only tracked goroutines may call Sleep or Mailbox.Recv.
	Go(fn func())

	// Serve makes handle the consumer of mb (a mailbox of this clock):
	// it is called once per message in arrival order with ok=true, one
	// call at a time, and once with ok=false when the mailbox has been
	// closed and drained. Returning done=true ends consumption; later
	// messages stay queued. Serve returns immediately, and replaces
	// Recv on mb — a served mailbox must not also be received from.
	//
	// Contract: handle never blocks on the clock (no Sleep or Recv). On
	// a simulated clock there is no consumer goroutine to park: a
	// message delivered by a clock event is handled run-to-completion
	// on the goroutine advancing the clock. Work that must wait goes on
	// a goroutine started with Go.
	Serve(mb Mailbox, handle func(v any, ok bool) (done bool))

	// Wait blocks the caller until every goroutine started with Go has
	// exited (and, on a simulated clock, no timers remain). It returns
	// the clock time at that point. Wait must be called from outside the
	// tracked goroutines.
	Wait() time.Time
}

// Mailbox is an unbounded FIFO message queue. Send never blocks; Recv
// blocks through the owning clock, so simulated time can advance while a
// goroutine waits. It is the only blocking primitive (besides
// Clock.Sleep) that tracked simulation goroutines may use.
type Mailbox interface {
	// Name returns the diagnostic name given at creation.
	Name() string

	// Send enqueues v. It reports false (dropping v) if the mailbox is
	// closed. Send never blocks.
	Send(v any) bool

	// Recv dequeues the oldest message, blocking until one is available.
	// It reports false once the mailbox is closed and drained.
	Recv() (v any, ok bool)

	// TryRecv dequeues a message if one is immediately available.
	TryRecv() (v any, ok bool)

	// Close marks the mailbox closed and wakes all blocked receivers.
	// Messages already queued can still be received.
	Close()

	// Len returns the number of queued messages.
	Len() int
}

// Epoch is the instant at which every simulated clock starts. Using a
// fixed epoch keeps simulated timestamps reproducible across runs.
var Epoch = time.Date(2023, time.November, 12, 0, 0, 0, 0, time.UTC)
