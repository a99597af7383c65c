package vclock

import (
	"sync"
	"time"
)

// realMailbox implements Mailbox over the wall clock. The waiter protocol
// mirrors simMailbox, with time.AfterFunc standing in for simulated
// timers and a per-mailbox mutex replacing the clock-global one.
type realMailbox struct {
	clk    *Real
	name   string
	mu     sync.Mutex
	queue  ring
	waitq  []*mbWaiter
	closed bool
	served bool // Real.Serve has started this mailbox's one consumer
	// later holds SendAfter items not yet delivered, keyed by (wall
	// deadline since clk.base, call order).
	later timerHeap
	seq   uint64
}

// NewMailbox returns a wall-clock-backed mailbox.
func (r *Real) NewMailbox(name string) Mailbox {
	return &realMailbox{clk: r, name: name}
}

func (m *realMailbox) Name() string { return m.name }

func (m *realMailbox) Send(v any) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sendLocked(v)
}

// sendAfter queues v for delivery wall from now and starts its timer.
func (m *realMailbox) sendAfter(wall time.Duration, v any) {
	m.mu.Lock()
	m.seq++
	ev := timerEvent{when: int64(time.Since(m.clk.base) + wall), seq: m.seq, item: v}
	m.later.push(ev)
	m.mu.Unlock()
	time.AfterFunc(wall, func() { m.flushThrough(&ev) })
}

// flushThrough runs when fired's timer does: it delivers, in (deadline,
// call) order, every item still pending up to and including fired — so
// an item whose own timer goroutine is overtaken rides with the one
// that overtook it, and nothing is delivered before its deadline.
func (m *realMailbox) flushThrough(fired *timerEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.later.len() > 0 && !eventBefore(fired, &m.later.evs[0]) {
		m.sendLocked(m.later.pop().item)
	}
}

func (m *realMailbox) sendLocked(v any) bool {
	if m.closed {
		return false
	}
	if len(m.waitq) > 0 {
		w := m.waitq[0]
		m.waitq = m.waitq[1:]
		w.item = v
		w.ok = true
		w.ch <- struct{}{}
		return true
	}
	m.queue.push(v)
	return true
}

func (m *realMailbox) Recv() (any, bool) {
	m.mu.Lock()
	if m.queue.len() > 0 {
		v := m.queue.pop()
		m.mu.Unlock()
		return v, true
	}
	if m.closed {
		m.mu.Unlock()
		return nil, false
	}
	w := &mbWaiter{ch: make(chan struct{}, 1)}
	m.waitq = append(m.waitq, w)
	m.mu.Unlock()
	<-w.ch
	return w.item, w.ok
}

func (m *realMailbox) TryRecv() (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.queue.len() == 0 {
		return nil, false
	}
	return m.queue.pop(), true
}

func (m *realMailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, w := range m.waitq {
		w.ok = false
		w.ch <- struct{}{}
	}
	m.waitq = nil
}

func (m *realMailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.len()
}
