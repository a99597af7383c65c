package vclock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the simulated clock's scheduling-choice hook: the kernel
// half of the exhaustive model checker (internal/modelcheck). A normal
// simulation pops pending events in (deadline, sequence) order — one
// fixed interleaving per seed. With a Chooser installed, the kernel
// instead exposes the set of *enabled* events at every quiescent point
// and lets the chooser pick which fires next, turning the simulator
// into a guided executor that can drive any interleaving of a bounded
// configuration.
//
// Enabled set. Events are grouped into serialization classes by their
// label's Class. Within a class events fire strictly in (deadline,
// sequence) order — only the head of each class is enabled. The broker
// labels every delivery with its route ("from>to"), so the class rule
// is exactly per-route FIFO: messages between two nodes keep their
// causal send order, while deliveries on different routes (an
// asynchronous network) commute freely. Unlabeled events (sleeps,
// local timers) share the "" class and fire in deadline order among
// themselves — single-clock timer semantics — but interleave with
// deliveries at the chooser's discretion, which models message delays
// of any magnitude relative to local timeouts.
//
// Frozen time. While a chooser is installed, firing an event does not
// advance the simulated clock. Deadlines still order events within a
// class, but the state the engine reaches after a set of commuting
// events is then literally identical regardless of the order they
// fired in — which is what makes state-fingerprint deduplication and
// sleep-set partial-order reduction sound. An exploration is an
// untimed run of the protocol; metrics that measure elapsed time come
// out zero, protocol state and counters are exact.
//
// EventLabel describes one pending event for the chooser and for state
// fingerprints.
type EventLabel struct {
	// Class is the serialization class. Events in one class fire in
	// (deadline, sequence) order; only the earliest is ever enabled.
	// The broker uses the delivery route; "" is the shared local-timer
	// class.
	Class string
	// Node is the conflict domain for partial-order reduction: two
	// events with different non-empty Nodes commute. "" conflicts with
	// everything (always sound).
	Node string
	// Detail is a stable human-readable description, part of the
	// pending-event fingerprint. It must not contain addresses or any
	// other run-varying text.
	Detail string
}

// EnabledEvent is one entry of the enabled set handed to a Chooser.
type EnabledEvent struct {
	Label EventLabel
	// Delay is the event's deadline minus the current simulated time
	// (negative if the event is overdue because a later-deadline event
	// was chosen first).
	Delay time.Duration
	// Seq is the kernel's scheduling sequence number, unique per event
	// and stable across identical replays.
	Seq uint64
}

// Chooser picks which enabled event fires next. It is called at every
// quiescent point with at least two enabled events (single-candidate
// steps are forced and fire directly) and must return an index into
// enabled; out-of-range indices fall back to 0. The chooser runs with
// the clock lock released and every tracked goroutine parked, so it may
// inspect engine state and call the clock's digest methods, but must
// not schedule events, send to mailboxes, or block.
type Chooser func(enabled []EnabledEvent) int

// SetChooser installs (or, with nil, removes) the scheduling chooser.
// Install it before the simulation under test is constructed: label
// propagation and mailbox registration are decided at construction
// time by ActiveLabeled.
func (s *Sim) SetChooser(c Chooser) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chooser = c
}

// ActiveLabeled returns clk as a labeled scheduler when it is a
// simulated clock with a chooser installed — i.e. when event labels
// will actually be consumed. Hot paths keep a nil result and skip
// label construction entirely in normal runs.
func ActiveLabeled(clk Clock) *Sim {
	s, ok := clk.(*Sim)
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.chooser == nil {
		return nil
	}
	return s
}

// AfterFuncLabeled is AfterFunc with an event label for the chooser and
// the state fingerprint. Unlabeled events work under a chooser too (""
// class, maximal conflict); labels buy per-route FIFO classes, POR
// independence, and fingerprint precision.
func (s *Sim) AfterFuncLabeled(d time.Duration, label EventLabel, f func()) {
	s.afterFunc(d, f, &label)
}

// SendAfterLabeled is SendAfter with an event label: the delivery is
// the same clock event, so a chooser sees the same enabled sets whether
// a message travels labeled or not.
func (s *Sim) SendAfterLabeled(d time.Duration, label EventLabel, mb Mailbox, v any) {
	s.sendAfter(d, mb, v, &label)
}

// chooseLocked builds the enabled set and asks the chooser which event
// fires next, releasing the clock lock around the call. The caller has
// checked the heap is non-empty.
func (s *Sim) chooseLocked() (timerKey, timerEvent) {
	// Head (earliest (when, seq)) event per serialization class.
	heads := make(map[string]int, 8)
	keys := s.timers.keys
	for i := range keys {
		cls := ""
		if l := s.timers.event(&keys[i]).label; l != nil {
			cls = l.Class
		}
		if j, ok := heads[cls]; !ok || keys[i].before(&keys[j]) {
			heads[cls] = i
		}
	}
	if len(heads) == 1 {
		return s.timers.pop() // forced step: the single class head is the root
	}
	idxs := make([]int, 0, len(heads))
	for _, i := range heads {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return keys[idxs[a]].before(&keys[idxs[b]]) })
	enabled := make([]EnabledEvent, len(idxs))
	for n, i := range idxs {
		k := &keys[i]
		ev := s.timers.event(k)
		e := EnabledEvent{Delay: time.Duration(k.when - s.nowNanos), Seq: k.seq}
		if ev.label != nil {
			e.Label = *ev.label
		} else {
			e.Label = EventLabel{Detail: ev.kind.String()}
		}
		enabled[n] = e
	}
	chooser := s.chooser
	// Every tracked goroutine is parked, so nothing advances while the
	// lock is released; the chooser may take engine locks and re-enter
	// the clock's read-side (Now, digests) freely.
	s.mu.Unlock()
	choice := chooser(enabled)
	s.mu.Lock()
	if choice < 0 || choice >= len(enabled) {
		choice = 0
	}
	return s.timers.removeSeq(enabled[choice].Seq)
}

// PendingDigest renders the heap — every pending event's class,
// deadline offset from the current simulated time, detail — in a
// canonical order. It is one component of the model checker's state
// fingerprint: two states with different pending events can never
// merge. Sequence numbers are deliberately excluded (they differ
// between runs that reach the same state by different routes); the
// listing order still reflects intra-class fire order.
func (s *Sim) PendingDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	type item struct {
		cls    string
		when   int64
		seq    uint64
		detail string
	}
	items := make([]item, 0, s.timers.len())
	for i := range s.timers.keys {
		k := &s.timers.keys[i]
		ev := s.timers.event(k)
		it := item{when: k.when, seq: k.seq}
		if ev.label != nil {
			it.cls, it.detail = ev.label.Class, ev.label.Detail
		} else {
			it.detail = ev.kind.String()
		}
		items = append(items, it)
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].cls != items[b].cls {
			return items[a].cls < items[b].cls
		}
		if items[a].when != items[b].when {
			return items[a].when < items[b].when
		}
		return items[a].seq < items[b].seq
	})
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%s|%+d|%s\n", it.cls, it.when-s.nowNanos, it.detail)
	}
	return b.String()
}

// MailboxDigest renders the queued contents of every mailbox created
// while the chooser was active, in creation order — the second kernel
// component of the state fingerprint. A quiescent simulation can hold
// queued messages (a worker's exec queue fills while its executor runs
// a job), so mailbox contents are state. Items that implement
// EventDetail() string render through it; anything else renders as its
// type.
func (s *Sim) MailboxDigest() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, mb := range s.mailboxes {
		if mb.queue.len() == 0 && !mb.closed {
			continue
		}
		b.WriteString(mb.name)
		if mb.closed {
			b.WriteString("(closed)")
		}
		b.WriteByte('[')
		for i := 0; i < mb.queue.len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(itemDetail(mb.queue.at(i)))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func itemDetail(v any) string {
	if d, ok := v.(interface{ EventDetail() string }); ok {
		return d.EventDetail()
	}
	return fmt.Sprintf("%T", v)
}

// String names a timer kind for unlabeled pending-event digests.
func (k timerKind) String() string {
	switch k {
	case evWake:
		return "sleep"
	case evSend:
		return "send"
	default:
		return "func"
	}
}
