package vclock

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSendAfterFiresInDeadlineSeqOrder interleaves SendAfter with the
// other event kinds at one deadline: whatever the kind, events fire in
// (when, seq) order.
func TestSendAfterFiresInDeadlineSeqOrder(t *testing.T) {
	s := NewSim()
	log := s.NewMailbox("log")
	var order []string
	startAll(s, func() {
		// Scheduled in this order at deadline 1s; "early" is scheduled
		// last but is due first.
		s.SendAfter(time.Second, log, "send-1")
		s.AfterFunc(time.Second, func() { log.Send("func-2") })
		s.SendAfter(time.Second, log, "send-3")
		s.Go(func() {
			// seq 4: this goroutine's own wake-up at the same deadline.
			s.Sleep(time.Second)
			log.Send("wake-4")
		})
		s.Sleep(time.Millisecond) // let the sleeper park; a sleep is an event too
		s.SendAfter(time.Second-time.Millisecond, log, "send-5")
		s.SendAfter(499*time.Millisecond, log, "early")
	}, func() {
		for i := 0; i < 6; i++ {
			v, _ := log.Recv()
			order = append(order, fmt.Sprintf("%s@%v", v, s.Now().Sub(Epoch)))
		}
	})
	s.Wait()
	want := []string{"early@500ms", "send-1@1s", "func-2@1s", "send-3@1s", "wake-4@1s", "send-5@1s"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("fire order = %v\nwant         %v", order, want)
	}
}

func TestSendAfterDroppedByClosedMailbox(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("gone")
	s.Go(func() {
		s.SendAfter(time.Second, mb, 1)
		mb.Close()
		s.Sleep(2 * time.Second)
	})
	s.Wait()
	if n := mb.Len(); n != 0 {
		t.Errorf("closed mailbox holds %d items after a SendAfter fired into it", n)
	}
}

func TestSendAfterForeignMailboxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SendAfter accepted another clock's mailbox")
		}
	}()
	NewSim().SendAfter(time.Second, NewSim().NewMailbox("theirs"), 1)
}

// TestSendAfterSpawnsNoGoroutine is the point of the primitive: 10 000
// deliveries to a parked receiver, zero goroutines beyond the receiver.
func TestSendAfterSpawnsNoGoroutine(t *testing.T) {
	const n = 10000
	s := NewSim()
	mb := s.NewMailbox("sink")
	peak := 0
	s.Go(func() {
		base := runtime.NumGoroutine()
		for i := 0; i < n; i++ {
			s.SendAfter(time.Duration(i+1)*time.Millisecond, mb, i)
		}
		for i := 0; i < n; i++ {
			if v, _ := mb.Recv(); v.(int) != i {
				t.Errorf("delivery %d carried %v", i, v)
				return
			}
			if g := runtime.NumGoroutine() - base; g > peak {
				peak = g
			}
		}
	})
	s.Wait()
	if peak > 0 {
		t.Errorf("%d deliveries raised the goroutine count by %d, want 0", n, peak)
	}
}

func TestSendAfterAllocatesAtMostOnePerDelivery(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("sink")
	item := &struct{ n int }{} // pointer-shaped: boxing it allocates nothing
	var allocs float64
	s.Go(func() {
		allocs = testing.AllocsPerRun(1000, func() {
			s.SendAfter(time.Millisecond, mb, item)
			mb.Recv()
		})
	})
	s.Wait()
	if allocs > 1 {
		t.Errorf("SendAfter + Recv allocates %.1f objects per delivery, want <= 1", allocs)
	}
}

// TestServeRunsToCompletion: a clock-delivered item is handled on the
// advancing goroutine — no goroutine is spawned — before the next event
// fires, at the event's own instant.
func TestServeRunsToCompletion(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	var log []string
	extra := 0
	s.Go(func() {
		base := runtime.NumGoroutine()
		s.Serve(mb, func(v any, ok bool) bool {
			if g := runtime.NumGoroutine() - base; g > extra {
				extra = g
			}
			log = append(log, fmt.Sprintf("%v@%v", v, s.Now().Sub(Epoch)))
			if v == "a" {
				// Scheduled from inside the handler, due before "b": it
				// must still be handled after this call returns.
				s.SendAfter(time.Second, mb, "a2")
			}
			return v == "b"
		})
		s.SendAfter(time.Second, mb, "a")
		s.SendAfter(3*time.Second, mb, "b")
		s.Sleep(5 * time.Second)
	})
	s.Wait()
	if want := "[a@1s a2@2s b@3s]"; fmt.Sprint(log) != want {
		t.Errorf("handled %v, want %s", log, want)
	}
	if extra > 0 {
		t.Errorf("serving clock deliveries raised the goroutine count by %d, want 0", extra)
	}
}

// TestServeDirectSendQueuesBehindHandler: a Send that arrives while the
// handler runs (here from the handler itself, and from a goroutine it
// started) waits its turn; calls never overlap or nest.
func TestServeDirectSendQueuesBehindHandler(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	var log []string
	inHandler := false
	s.Go(func() {
		s.Serve(mb, func(v any, ok bool) bool {
			if inHandler {
				t.Error("handler re-entered")
			}
			inHandler = true
			defer func() { inHandler = false }()
			log = append(log, "begin "+v.(string))
			if v == "first" {
				mb.Send("second")
				sent := s.NewMailbox("sent")
				s.Go(func() {
					mb.Send("third")
					sent.Send(struct{}{})
				})
				// Busy-wait for the helper without blocking on the clock.
				for sent.Len() == 0 {
					runtime.Gosched()
				}
			}
			log = append(log, "end "+v.(string))
			return v == "third"
		})
		mb.Send("first") // direct send from a running goroutine
	})
	s.Wait()
	want := "[begin first end first begin second end second begin third end third]"
	if fmt.Sprint(log) != want {
		t.Errorf("handler calls = %v\nwant           %s", log, want)
	}
}

func TestServeCloseDeliversNotOKOnce(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	var log []string
	s.Go(func() {
		s.Serve(mb, func(v any, ok bool) bool {
			log = append(log, fmt.Sprintf("%v/%v", v, ok))
			return false
		})
		mb.Send(1)
		s.SendAfter(time.Second, mb, 2)
		s.Sleep(2 * time.Second)
		mb.Close()
		mb.Close()
		if mb.Send(3) {
			t.Error("Send after Close reported true")
		}
	})
	s.Wait()
	if want := "[1/true 2/true <nil>/false]"; fmt.Sprint(log) != want {
		t.Errorf("handled %v, want %s", log, want)
	}
}

// TestServeBacklogAndDone: Serve on a mailbox that already holds items
// handles them first, in order; done=true ends consumption and leaves
// the rest queued.
func TestServeBacklogAndDone(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	var got []int
	s.Go(func() {
		for i := 1; i <= 5; i++ {
			mb.Send(i)
		}
		s.Serve(mb, func(v any, ok bool) bool {
			got = append(got, v.(int))
			return v.(int) == 3
		})
		s.SendAfter(time.Second, mb, 6)
		s.Sleep(2 * time.Second)
	})
	s.Wait()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("handled %v, want [1 2 3]", got)
	}
	if n := mb.Len(); n != 3 {
		t.Errorf("%d items left queued after done, want 3 (4, 5 and the late 6)", n)
	}
}

func TestServeTwicePanics(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	h := func(any, bool) bool { return true }
	s.Serve(mb, h)
	defer func() {
		if recover() == nil {
			t.Error("second Serve on one mailbox did not panic")
		}
	}()
	s.Serve(mb, h)
}

// TestServeIdleConsumerIsADeadlock: with no goroutine parked anywhere,
// an idle consumer with nothing pending is still a deadlock — it stands
// where a receive loop parked forever used to — and Wait still returns.
func TestServeIdleConsumerIsADeadlock(t *testing.T) {
	s := NewSim()
	var waiting []string
	s.SetDeadlockHandler(func(w []string) { waiting = w })
	mb := s.NewMailbox("lonely")
	handled := 0
	s.Go(func() {
		s.Serve(mb, func(any, bool) bool { handled++; return false })
		s.SendAfter(time.Second, mb, 1)
	})
	end := s.Wait()
	if !s.Deadlocked() {
		t.Fatal("idle consumer with no pending event was not reported as a deadlock")
	}
	if len(waiting) != 1 || !strings.HasPrefix(waiting[0], "serve:lonely") {
		t.Errorf("waiting = %v, want the one served mailbox", waiting)
	}
	if handled != 1 || !end.Equal(Epoch.Add(time.Second)) {
		t.Errorf("handled %d items, ended at %v; want 1 item at epoch+1s", handled, end)
	}
}

// TestServeWaitReturnsOnceConsumerIsDone: Wait outlasts a consumer with
// deliveries pending and returns once it is done, with no goroutine
// left to join.
func TestServeWaitReturnsOnceConsumerIsDone(t *testing.T) {
	s := NewSim()
	mb := s.NewMailbox("served")
	handled := 0
	s.Go(func() {
		s.Serve(mb, func(v any, ok bool) bool { handled++; return v == "last" })
		s.SendAfter(time.Hour, mb, "x")
		s.SendAfter(2*time.Hour, mb, "last")
	})
	if end := s.Wait(); !end.Equal(Epoch.Add(2 * time.Hour)) {
		t.Errorf("Wait() = %v, want epoch+2h", end)
	}
	if s.Deadlocked() || handled != 2 {
		t.Errorf("deadlocked=%v handled=%d, want a clean finish after 2 items", s.Deadlocked(), handled)
	}
}

// chooserTranscript runs scenario under a chooser that alternates
// between the two earliest enabled events and records, at every choice, the enabled labels
// and both kernel digests.
func chooserTranscript(scenario func(s *Sim)) string {
	s := NewSim()
	var b strings.Builder
	step := 0
	s.SetChooser(func(enabled []EnabledEvent) int {
		for _, e := range enabled {
			fmt.Fprintf(&b, "%s|%s|%s|%v ", e.Label.Class, e.Label.Node, e.Label.Detail, e.Delay)
		}
		fmt.Fprintf(&b, "\npending:\n%smailboxes:\n%s--\n", s.PendingDigest(), s.MailboxDigest())
		step++
		return step % 2 // alternate between the two earliest: never index 0 only
	})
	scenario(s)
	s.Wait()
	fmt.Fprintf(&b, "final:\n%s%s", s.PendingDigest(), s.MailboxDigest())
	return b.String()
}

// TestServeDigestsMatchReceiveLoopUnderChooser: to a model checker a
// served consumer fed by SendAfter is indistinguishable from a receive
// loop fed by AfterFunc+Send — same enabled sets, same PendingDigest,
// same MailboxDigest at every choice.
func TestServeDigestsMatchReceiveLoopUnderChooser(t *testing.T) {
	type hop struct{ to, tag string }
	// Three actors relay labeled messages; "c" stops consuming after its
	// first, so later deliveries to it show up queued in the digest.
	routes := map[string][]hop{
		"a:start": {{"b", "x"}, {"c", "y"}},
		"b:x":     {{"c", "z"}, {"a", "w"}},
		"c:y":     {{"a", "v"}},
		"a:w":     {{"c", "late"}},
	}
	build := func(served bool) func(s *Sim) {
		return func(s *Sim) {
			boxes := map[string]Mailbox{}
			for _, n := range []string{"a", "b", "c"} {
				boxes[n] = s.NewMailbox(n)
			}
			send := func(from string, h hop) {
				label := EventLabel{Class: from + ">" + h.to, Node: h.to, Detail: from + ">" + h.to + " " + h.tag}
				if served {
					s.SendAfterLabeled(time.Millisecond, label, boxes[h.to], h.tag)
				} else {
					s.AfterFuncLabeled(time.Millisecond, label, func() { boxes[h.to].Send(h.tag) })
				}
			}
			handle := func(name string) func(v any, ok bool) bool {
				return func(v any, ok bool) bool {
					if !ok {
						return true
					}
					for _, h := range routes[name+":"+v.(string)] {
						send(name, h)
					}
					return name == "c" && v == "y"
				}
			}
			s.Go(func() {
				for _, n := range []string{"a", "b", "c"} {
					h, mb := handle(n), boxes[n]
					if served {
						s.Serve(mb, h)
						continue
					}
					s.Go(func() {
						for {
							if v, ok := mb.Recv(); h(v, ok) {
								return
							}
						}
					})
				}
				boxes["a"].Send("start")
				s.Sleep(time.Second)
				for _, n := range []string{"a", "b", "c"} {
					boxes[n].Close()
				}
			})
		}
	}
	loop, served := chooserTranscript(build(false)), chooserTranscript(build(true))
	if loop != served {
		t.Errorf("chooser transcripts differ\n--- receive loop ---\n%s\n--- served ---\n%s", loop, served)
	}
	if !strings.Contains(served, "c[") || !strings.Contains(served, "(closed)") {
		t.Errorf("scenario never showed a queued item and a closed mailbox in a digest:\n%s", served)
	}
}
