package vclock

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sim is a discrete-event simulated clock.
//
// Goroutines participating in the simulation must be started with
// Sim.Go; the clock counts how many of them are runnable. Whenever every
// tracked goroutine is blocked in a clock-mediated wait (Sleep, a timer,
// or a Mailbox receive), the clock advances directly to the earliest
// pending deadline and fires it. Simulated time therefore never passes
// while any tracked goroutine has work to do, and passes instantly when
// none does.
//
// Messages need no goroutine of their own: SendAfter is a clock event
// that hands its item to the mailbox under the clock lock, and a
// mailbox with a Serve consumer handles such an item on the goroutine
// that is advancing the clock (see mailbox_sim.go).
//
// Tracked goroutines must not block on plain Go channels or mutexes held
// across waits; all blocking must go through the clock (Sleep, Mailbox,
// AfterFunc). Code outside the simulation synchronizes with it through
// Sim.Wait, which blocks until every tracked goroutine has exited.
type Sim struct {
	mu       sync.Mutex
	done     sync.Cond // broadcast when the simulation becomes fully idle
	now      time.Time
	nowNanos int64 // now.UnixNano(), cached for heap-key arithmetic
	running  int   // tracked goroutines (and running Serve consumers) currently runnable
	waiters  int   // tracked goroutines blocked in clock waits, plus idle Serve consumers
	timers   timerHeap
	seq      uint64
	waits    waitTag // sentinel of the ring of active waits, for deadlock reports
	tagSeq   uint64

	// onDeadlock, if set, is invoked (with the lock released) instead of
	// panicking when the simulation deadlocks: every tracked goroutine is
	// blocked and no timer is pending. Intended for tests.
	onDeadlock func(waiting []string)
	deadlocked bool

	// chooser, if set, picks which enabled event fires at each quiescent
	// point instead of the earliest-deadline default, and freezes time
	// advancement. See choose.go.
	chooser Chooser
	// mailboxes registers every mailbox created while a chooser is
	// installed, in creation order, for MailboxDigest. Empty in normal
	// runs.
	mailboxes []*simMailbox
}

// waitTag records where one goroutine is blocked. The human-readable
// label is only materialized in deadlock reports, so the hot path never
// pays for string formatting. A tag lives in the waiter (or served
// mailbox) it describes and is linked into the clock's ring of active
// waits while the wait lasts: parking and waking touch two pointers
// each, not a map.
type waitTag struct {
	kind       string
	at         time.Time
	id         uint64
	prev, next *waitTag
}

// NewSim returns a simulated clock positioned at Epoch.
func NewSim() *Sim {
	s := &Sim{now: Epoch, nowNanos: Epoch.UnixNano()}
	s.waits.prev, s.waits.next = &s.waits, &s.waits
	s.done.L = &s.mu
	return s
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Since returns the simulated time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Go starts fn as a tracked simulation goroutine.
func (s *Sim) Go(fn func()) {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	go func() {
		defer s.exit()
		fn()
	}()
}

func (s *Sim) exit() {
	s.mu.Lock()
	s.running--
	s.maybeAdvanceLocked()
	s.mu.Unlock()
}

// Sleep blocks the calling tracked goroutine for d of simulated time.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	w := getWaiter()
	s.mu.Lock()
	s.tagLocked(&w.tag, "sleep")
	s.scheduleLocked(d, timerEvent{kind: evWake, w: w})
	s.blockLocked()
	s.mu.Unlock()
	<-w.ch
	putWaiter(w)
}

// AfterFunc schedules f to run as a new tracked goroutine after d of
// simulated time.
func (s *Sim) AfterFunc(d time.Duration, f func()) {
	s.afterFunc(d, f, nil)
}

func (s *Sim) afterFunc(d time.Duration, f func(), label *EventLabel) {
	s.mu.Lock()
	s.scheduleLocked(d, timerEvent{kind: evFunc, fn: f, label: label})
	s.mu.Unlock()
}

// SendAfter schedules v's delivery to mb after d of simulated time: one
// heap entry, fired under the clock lock — no goroutine, no closure.
func (s *Sim) SendAfter(d time.Duration, mb Mailbox, v any) {
	s.sendAfter(d, mb, v, nil)
}

func (s *Sim) sendAfter(d time.Duration, mb Mailbox, v any, label *EventLabel) {
	m := s.own(mb)
	s.mu.Lock()
	s.scheduleLocked(d, timerEvent{kind: evSend, mb: m, item: v, label: label})
	s.mu.Unlock()
}

// own asserts that mb was created by this clock: its state lives under
// this clock's lock, so nothing else can be delivered to or served
// here.
func (s *Sim) own(mb Mailbox) *simMailbox {
	m, ok := mb.(*simMailbox)
	if !ok || m.s != s {
		panic(fmt.Sprintf("vclock: mailbox %q does not belong to this simulated clock", mb.Name()))
	}
	return m
}

// scheduleLocked queues ev to fire once d has elapsed, keyed by its
// deadline and a fresh sequence number. Events at equal deadlines fire in
// scheduling order, keeping runs reproducible.
func (s *Sim) scheduleLocked(d time.Duration, ev timerEvent) {
	if d < 0 {
		d = 0
	}
	s.seq++
	s.timers.push(s.nowNanos+int64(d), s.seq, ev)
}

// blockLocked transitions the calling goroutine from runnable to waiting
// and advances time if the simulation has gone idle. The caller must
// already have registered its wake-up (timer or mailbox waiter) and must
// park on its own channel after releasing the lock.
func (s *Sim) blockLocked() {
	s.running--
	s.waiters++
	s.maybeAdvanceLocked()
}

// maybeAdvanceLocked advances simulated time while no tracked goroutine
// is runnable. Each fired event may make a goroutine runnable again,
// which stops the advance.
func (s *Sim) maybeAdvanceLocked() {
	for s.running == 0 {
		if s.timers.len() == 0 {
			// Fully idle: either the simulation has finished (no waiters)
			// or it has deadlocked. Either way, wake Wait callers.
			s.done.Broadcast()
			if s.waiters > 0 {
				s.deadlockLocked()
			}
			return
		}
		var k timerKey
		var ev timerEvent
		if s.chooser != nil {
			k, ev = s.chooseLocked()
		} else {
			k, ev = s.timers.pop()
		}
		// Under a chooser, time is frozen: commuting event orders then
		// reach literally identical states (see choose.go).
		if k.when > s.nowNanos && s.chooser == nil {
			s.now = s.now.Add(time.Duration(k.when - s.nowNanos))
			s.nowNanos = k.when
		}
		s.fireLocked(&ev)
	}
}

// fireLocked runs one timer event with the clock lock held. Every event
// in the heap fires: nothing cancels one. Fire paths must not block;
// only a delivery to a served mailbox releases the lock (around its
// handler), holding a runnable credit meanwhile.
func (s *Sim) fireLocked(ev *timerEvent) {
	switch ev.kind {
	case evWake:
		s.wakeLocked(ev.w)
	case evSend:
		ev.mb.deliverLocked(ev.item, true)
	case evFunc:
		s.running++
		fn := ev.fn
		go func() {
			defer s.exit()
			fn()
		}()
	}
}

// wakeLocked hands the runnable credit back to waiter w and signals it.
// Must be called with the clock lock held; each parked waiter has one
// waker (its sleep event, or whoever pops it off a mailbox's wait queue).
func (s *Sim) wakeLocked(w *mbWaiter) {
	s.running++
	s.waiters--
	untagLocked(&w.tag)
	w.ch <- struct{}{}
}

func (s *Sim) deadlockLocked() {
	if s.deadlocked {
		return // report once
	}
	s.deadlocked = true
	var waiting []string
	for tag := s.waits.next; tag != &s.waits; tag = tag.next {
		waiting = append(waiting, fmt.Sprintf("%s#%d@%s", tag.kind, tag.id, tag.at.Format("15:04:05.000")))
	}
	sort.Strings(waiting)
	if h := s.onDeadlock; h != nil {
		s.running++ // keep the clock from re-entering while the handler runs
		go func() {
			defer s.exit()
			h(waiting)
		}()
		return
	}
	msg := fmt.Sprintf("vclock: simulation deadlock: %d waiters blocked with no pending timers: %v",
		s.waiters, waiting)
	// Panic without the clock lock: the unwinding goroutine's deferred
	// exit takes it again, and holding it here turns the report into a
	// silent hang until the test binary's timeout.
	s.mu.Unlock()
	panic(msg)
}

// SetDeadlockHandler installs h to be called instead of panicking when
// the simulation deadlocks. Pass nil to restore the panicking default.
func (s *Sim) SetDeadlockHandler(h func(waiting []string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onDeadlock = h
}

// Wait blocks the (untracked) caller until the simulation is fully idle:
// all tracked goroutines have exited and no timers remain. It returns the
// final simulated time.
func (s *Sim) Wait() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A deadlocked simulation never becomes idle, but once its handler
	// goroutine (counted in running) finishes there is nothing to wait
	// for. Waiters and timers are otherwise drained by the advance loop.
	for s.running > 0 || ((s.waiters > 0 || s.timers.len() > 0) && !s.deadlocked) {
		s.done.Wait()
	}
	return s.now
}

// Deadlocked reports whether the simulation has detected a deadlock.
func (s *Sim) Deadlocked() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadlocked
}

// tagLocked labels t and links it into the ring of active waits.
func (s *Sim) tagLocked(t *waitTag, kind string) {
	s.tagSeq++
	t.kind, t.at, t.id = kind, s.now, s.tagSeq
	t.prev, t.next = &s.waits, s.waits.next
	s.waits.next.prev = t
	s.waits.next = t
}

// untagLocked unlinks t: its wait is over.
func untagLocked(t *waitTag) {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.prev, t.next = nil, nil
}

// timerKind selects a timerEvent's fire path. A closed set of variants
// instead of a fire closure keeps event scheduling allocation-free on
// the Sleep and SendAfter hot paths.
type timerKind uint8

const (
	evWake timerKind = iota // wake a parked waiter (Sleep)
	evFunc                  // run an AfterFunc callback
	evSend                  // deliver a SendAfter item to its mailbox
)

// timerEvent is one pending clock event's payload; its place in the
// firing order is its timerKey's.
type timerEvent struct {
	kind  timerKind
	w     *mbWaiter   // evWake
	mb    *simMailbox // evSend
	fn    func()      // evFunc
	item  any         // evSend
	label *EventLabel // model-checker label; nil for unlabeled events
}

// timerKey orders one pending event by (when, seq): earliest deadline
// first, scheduling order breaking ties. slot is the event's index in
// the heap's slab.
type timerKey struct {
	when int64 // deadline, UnixNano
	seq  uint64
	slot int
}

// before reports whether key a fires before key b.
func (a *timerKey) before(b *timerKey) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// timerHeap is a binary min-heap of timerKeys over a slab of
// timerEvents. The keys hold no pointers, so sifting moves 24-byte
// values with no write barriers; an event stays in its slab slot until
// it leaves the heap, and freed slots are reused, so a long-lived clock
// stops allocating once the slab has grown to its high-water mark.
type timerHeap struct {
	keys []timerKey
	slab []timerEvent
	free []int // slab slots not holding a pending event
}

func (h *timerHeap) len() int { return len(h.keys) }

// event returns the pending event k orders. The pointer is good until
// the heap next changes.
func (h *timerHeap) event(k *timerKey) *timerEvent { return &h.slab[k.slot] }

// push queues ev to fire at (when, seq).
func (h *timerHeap) push(when int64, seq uint64, ev timerEvent) {
	var slot int
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = ev
	} else {
		slot = len(h.slab)
		h.slab = append(h.slab, ev)
	}
	h.keys = append(h.keys, timerKey{when: when, seq: seq, slot: slot})
	h.siftUp(len(h.keys) - 1)
}

// pop removes the earliest event.
func (h *timerHeap) pop() (timerKey, timerEvent) {
	return h.removeAt(0)
}

// removeSeq extracts the pending event with the given sequence number;
// events leave the heap only by firing, so one a chooser was just shown
// is still there. Only the model checker's choose path uses it, so the
// linear scan costs normal runs nothing.
func (h *timerHeap) removeSeq(seq uint64) (timerKey, timerEvent) {
	i := 0
	for h.keys[i].seq != seq {
		i++
	}
	return h.removeAt(i)
}

// removeAt takes the key at heap index i out of the heap and its event
// out of the slab, freeing the slot.
func (h *timerHeap) removeAt(i int) (timerKey, timerEvent) {
	keys := h.keys
	k := keys[i]
	n := len(keys) - 1
	keys[i] = keys[n]
	h.keys = keys[:n]
	if i < n {
		h.siftDown(i)
		h.siftUp(i)
	}
	ev := h.slab[k.slot]
	h.slab[k.slot] = timerEvent{} // release pointers for the GC
	h.free = append(h.free, k.slot)
	return k, ev
}

func (h *timerHeap) siftUp(i int) {
	keys := h.keys
	for i > 0 {
		parent := (i - 1) / 2
		if !keys[i].before(&keys[parent]) {
			return
		}
		keys[i], keys[parent] = keys[parent], keys[i]
		i = parent
	}
}

func (h *timerHeap) siftDown(i int) {
	keys := h.keys
	n := len(keys)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && keys[right].before(&keys[left]) {
			least = right
		}
		if !keys[least].before(&keys[i]) {
			return
		}
		keys[i], keys[least] = keys[least], keys[i]
		i = least
	}
}
