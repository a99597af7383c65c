package vclock

import (
	"fmt"
	"sync"
)

// mbWaiter is one goroutine parked in a mailbox receive (or a Sleep).
// Its one waker (a sender, the close path, or the sleep's wake event)
// fills in the outcome and signals ch; ownership of the "runnable"
// credit transfers with the signal, so simulated time can never advance
// past a delivery in flight.
type mbWaiter struct {
	ch   chan struct{}
	item any
	ok   bool
	tag  waitTag
}

var waiterPool = sync.Pool{
	New: func() any { return &mbWaiter{ch: make(chan struct{}, 1)} },
}

// getWaiter returns a reset waiter from the pool. The signal channel is
// reusable as-is: every use consumes exactly one signal.
func getWaiter() *mbWaiter {
	w := waiterPool.Get().(*mbWaiter)
	w.item, w.ok = nil, false
	return w
}

// putWaiter recycles w. Callers must have received w's signal: the one
// waker is then through with it, and nothing else refers to it.
func putWaiter(w *mbWaiter) { waiterPool.Put(w) }

// ring is a FIFO queue over a reusable circular buffer, so a mailbox
// that churns through messages stops allocating once its buffer has
// grown to the high-water mark (append+reslice would leak capacity on
// every dequeue instead).
type ring struct {
	buf  []any
	head int
	n    int
}

func (q *ring) len() int { return q.n }

func (q *ring) push(v any) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// at reads the i-th queued item without dequeuing (digests only).
func (q *ring) at(i int) any {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *ring) pop() any {
	v := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the buffer (power-of-two sizes keep the index mask
// cheap), unwrapping the queue into the new buffer.
func (q *ring) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]any, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// simMailbox implements Mailbox for the simulated clock. All state is
// guarded by the clock's global mutex, which is what allows clock events
// (fired with that mutex held) to deliver into it directly.
type simMailbox struct {
	s       *Sim
	name    string
	recvTag string // "recv:"+name, precomputed off the hot path
	queue   ring
	waitq   []*mbWaiter
	closed  bool

	// Served mode (Sim.Serve): handle consumes the mailbox instead of a
	// goroutine parked in Recv. serving marks a drain in progress —
	// inline on the goroutine advancing the clock, or on a drain
	// goroutine — during which arrivals queue behind it; stopped marks
	// consumption over (handle returned done, or saw the close). An
	// idle consumer holds one clock waiter under idleTag, exactly as the
	// parked receive loop it replaces did: idle with nothing pending is
	// still a deadlock, and Wait still waits for it.
	handle  func(v any, ok bool) (done bool)
	serving bool
	stopped bool
	idleTag waitTag
}

// NewMailbox returns a mailbox whose blocking receive participates in
// simulated-time advancement.
func (s *Sim) NewMailbox(name string) Mailbox {
	m := &simMailbox{s: s, name: name, recvTag: "recv:" + name}
	s.mu.Lock()
	if s.chooser != nil {
		// Registered only under a chooser: MailboxDigest needs queued
		// contents, and the registry would otherwise pin every mailbox a
		// long-lived simulation ever creates.
		s.mailboxes = append(s.mailboxes, m)
	}
	s.mu.Unlock()
	return m
}

func (m *simMailbox) Name() string { return m.name }

func (m *simMailbox) Send(v any) bool {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.deliverLocked(v, false)
}

// deliverLocked is Send with the clock lock held. fired marks a clock
// event firing on the goroutine that advances the clock: every tracked
// goroutine is parked, so a served mailbox's handler runs right there.
// A direct Send comes from a running goroutine that may hold locks of
// its own, so there the handler gets a tracked drain goroutine.
func (m *simMailbox) deliverLocked(v any, fired bool) bool {
	if m.closed {
		return false
	}
	if m.handle != nil {
		switch {
		case m.serving || m.stopped:
			m.queue.push(v)
		case fired:
			m.beginServeLocked()
			m.drainLocked(v, true)
		default:
			m.goDrainLocked(v, true)
		}
		return true
	}
	if w := m.popWaiterLocked(); w != nil {
		w.item = v
		w.ok = true
		m.s.wakeLocked(w)
		return true
	}
	m.queue.push(v)
	return true
}

// Serve installs handle as mb's consumer; see Clock.Serve. Messages
// already queued (and a close already seen) are handled first.
func (s *Sim) Serve(mb Mailbox, handle func(v any, ok bool) (done bool)) {
	m := s.own(mb)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.handle != nil {
		panic(fmt.Sprintf("vclock: mailbox %q is already served", m.name))
	}
	m.handle = handle
	s.tagLocked(&m.idleTag, "serve:"+m.name)
	s.waiters++
	if m.queue.len() > 0 {
		m.goDrainLocked(m.queue.pop(), true)
	} else if m.closed {
		m.goDrainLocked(nil, false)
	}
}

// beginServeLocked turns the idle consumer into a runnable one: its
// waiter becomes a runnable credit, held until drainLocked is through.
func (m *simMailbox) beginServeLocked() {
	m.serving = true
	m.s.waiters--
	m.s.running++
}

// goDrainLocked runs drainLocked on a tracked goroutine of its own, for
// work that does not arrive on the advancing goroutine.
func (m *simMailbox) goDrainLocked(v any, has bool) {
	m.beginServeLocked()
	go func() {
		m.s.mu.Lock()
		m.drainLocked(v, has)
		m.s.maybeAdvanceLocked()
		m.s.mu.Unlock()
	}()
}

// drainLocked runs the consumer over v (when has) and then over
// whatever queued up behind it, one call at a time with the clock lock
// released around each; a close is reported once, after the queue is
// empty. It returns the runnable credit beginServeLocked took.
func (m *simMailbox) drainLocked(v any, has bool) {
	s := m.s
	for has {
		s.mu.Unlock()
		done := m.handle(v, true)
		s.mu.Lock()
		if done {
			m.stopped = true
			break
		}
		if has = m.queue.len() > 0; has {
			v = m.queue.pop()
		}
	}
	if m.closed && !m.stopped {
		m.stopped = true
		s.mu.Unlock()
		m.handle(nil, false)
		s.mu.Lock()
	}
	m.serving = false
	s.running--
	if m.stopped {
		untagLocked(&m.idleTag)
	} else {
		s.waiters++
	}
}

func (m *simMailbox) Recv() (any, bool) {
	m.s.mu.Lock()
	if m.queue.len() > 0 {
		v := m.queue.pop()
		m.s.mu.Unlock()
		return v, true
	}
	if m.closed {
		m.s.mu.Unlock()
		return nil, false
	}
	w := m.parkLocked()
	m.s.mu.Unlock()
	<-w.ch
	v, ok := w.item, w.ok
	putWaiter(w)
	return v, ok
}

func (m *simMailbox) TryRecv() (any, bool) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	if m.queue.len() == 0 {
		return nil, false
	}
	return m.queue.pop(), true
}

func (m *simMailbox) Close() {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, w := range m.waitq {
		w.ok = false
		m.s.wakeLocked(w)
	}
	m.waitq = nil
	if m.handle != nil && !m.serving && !m.stopped {
		m.goDrainLocked(nil, false)
	}
}

func (m *simMailbox) Len() int {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	return m.queue.len()
}

// parkLocked registers the calling goroutine as a blocked receiver and
// releases its runnable credit. The caller must receive on the returned
// waiter's channel after unlocking.
func (m *simMailbox) parkLocked() *mbWaiter {
	w := getWaiter()
	m.s.tagLocked(&w.tag, m.recvTag)
	m.waitq = append(m.waitq, w)
	m.s.blockLocked()
	return w
}

func (m *simMailbox) popWaiterLocked() *mbWaiter {
	if len(m.waitq) == 0 {
		return nil
	}
	w := m.waitq[0]
	m.waitq[0] = nil
	if len(m.waitq) == 1 {
		// The usual case is one receiver: rewind instead of slicing the
		// capacity away, or every park would allocate a fresh backing
		// array.
		m.waitq = m.waitq[:0]
	} else {
		m.waitq = m.waitq[1:]
	}
	return w
}
