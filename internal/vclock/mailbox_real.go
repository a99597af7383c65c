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
	queue  []any
	waitq  []*mbWaiter
	closed bool
	// later holds SendAfter items not yet delivered, keyed by (wall
	// deadline since clk.base, call order).
	later timerHeap
	seq   uint64
}

// NewMailbox returns a wall-clock-backed mailbox. Timeouts honour the
// clock's scale factor.
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
		w.done = true
		w.ch <- struct{}{}
		return true
	}
	m.queue = append(m.queue, v)
	return true
}

func (m *realMailbox) Recv() (any, bool) {
	m.mu.Lock()
	if len(m.queue) > 0 {
		v := m.dequeueLocked()
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

func (m *realMailbox) RecvTimeout(d time.Duration) (any, bool, bool) {
	m.mu.Lock()
	if len(m.queue) > 0 {
		v := m.dequeueLocked()
		m.mu.Unlock()
		return v, true, false
	}
	if m.closed {
		m.mu.Unlock()
		return nil, false, false
	}
	if d <= 0 {
		m.mu.Unlock()
		return nil, false, true
	}
	w := &mbWaiter{ch: make(chan struct{}, 1)}
	m.waitq = append(m.waitq, w)
	m.mu.Unlock()

	timer := time.NewTimer(m.clk.wall(d))
	defer timer.Stop()
	select {
	case <-w.ch:
		return w.item, w.ok, false
	case <-timer.C:
		m.mu.Lock()
		if w.done {
			// A sender (or Close) won the race; take its delivery.
			m.mu.Unlock()
			<-w.ch
			return w.item, w.ok, false
		}
		m.removeWaiterLocked(w)
		m.mu.Unlock()
		return nil, false, true
	}
}

func (m *realMailbox) TryRecv() (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return nil, false
	}
	return m.dequeueLocked(), true
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
		w.done = true
		w.ch <- struct{}{}
	}
	m.waitq = nil
}

func (m *realMailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

func (m *realMailbox) dequeueLocked() any {
	v := m.queue[0]
	m.queue[0] = nil
	m.queue = m.queue[1:]
	return v
}

func (m *realMailbox) removeWaiterLocked(target *mbWaiter) {
	for i, w := range m.waitq {
		if w == target {
			copy(m.waitq[i:], m.waitq[i+1:])
			m.waitq[len(m.waitq)-1] = nil
			m.waitq = m.waitq[:len(m.waitq)-1]
			return
		}
	}
}
