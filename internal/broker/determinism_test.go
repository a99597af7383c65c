package broker

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"crossflow/internal/vclock"
)

// TestSubscriberOrderMatchesReferenceOnRandomOps is the determinism
// guardrail for the sorted-subscriber-list optimization: after any
// randomized sequence of subscribe/unsubscribe operations, the fanout
// order the broker will use must equal what the pre-optimization
// implementation computed on every publish (collect the subscriber map's
// keys, sort by name).
func TestSubscriberOrderMatchesReferenceOnRandomOps(t *testing.T) {
	const (
		endpoints = 20
		topics    = 3
		ops       = 2000
	)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := New(vclock.NewSim())
		eps := make([]*Endpoint, endpoints)
		for i := range eps {
			eps[i] = b.Register(fmt.Sprintf("w%02d", i), 0)
		}
		// reference is the old representation: topic -> name set.
		reference := make(map[string]map[string]bool)
		for i := 0; i < ops; i++ {
			topic := fmt.Sprintf("t%d", rng.Intn(topics))
			ep := eps[rng.Intn(endpoints)]
			if rng.Intn(2) == 0 {
				ep.Subscribe(topic)
				if reference[topic] == nil {
					reference[topic] = make(map[string]bool)
				}
				reference[topic][ep.Name()] = true
			} else {
				ep.Unsubscribe(topic)
				delete(reference[topic], ep.Name())
			}

			want := make([]string, 0, len(reference[topic]))
			for n := range reference[topic] {
				want = append(want, n)
			}
			sort.Strings(want)
			b.mu.Lock()
			got := make([]string, 0, len(b.topics[topic]))
			for _, sub := range b.topics[topic] {
				got = append(got, sub.name)
			}
			b.mu.Unlock()
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d: %d subscribers, reference %d", seed, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d op %d: fanout order %v, reference %v", seed, i, got, want)
				}
			}
		}
	}
}

// TestPublishDeliveryScheduleMatchesReference checks the full delivery
// path on randomized link latencies: every target must receive the
// message at exactly link-sum + routeSkew after the send instant, the
// schedule the pre-optimization broker (which re-derived delays and
// hashes per publish) produced. A topic publish and a SendMulti to the
// same fleet share the fanout and must both reach that schedule.
func TestPublishDeliveryScheduleMatchesReference(t *testing.T) {
	inputs := []struct {
		name string
		send func(pub *Endpoint, names []string) int
	}{
		{"Publish", func(pub *Endpoint, _ []string) int { return pub.Publish("jobs", "payload") }},
		{"SendMulti", func(pub *Endpoint, names []string) int { return pub.SendMulti(names, "payload") }},
	}
	for _, in := range inputs {
		input, send := in.name, in.send
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			sim := vclock.NewSim()
			b := New(sim)
			pub := b.Register("pub", time.Duration(rng.Intn(10))*time.Millisecond)
			const n = 8
			subs := make([]*Endpoint, n)
			names := make([]string, n)
			links := make([]time.Duration, n)
			for i := range subs {
				links[i] = time.Duration(rng.Intn(50)) * time.Millisecond
				names[i] = fmt.Sprintf("w%d", i)
				subs[i] = b.Register(names[i], links[i])
				subs[i].Subscribe("jobs")
			}
			var mu sync.Mutex
			arrivals := make(map[string]time.Time, n)
			var count int
			actors := []func(){func() { count = send(pub, names) }}
			for _, s := range subs {
				s := s
				actors = append(actors, func() {
					if _, ok := s.Inbox().Recv(); !ok {
						return
					}
					now := sim.Now()
					mu.Lock()
					arrivals[s.Name()] = now
					mu.Unlock()
				})
			}
			startAll(sim, actors...)
			sim.Wait()
			if count != n {
				t.Fatalf("%s seed %d: reached %d/%d targets", input, seed, count, n)
			}
			for i, s := range subs {
				want := vclock.Epoch.Add(pub.Link() + links[i] + routeSkew("pub", s.Name()))
				got, ok := arrivals[s.Name()]
				if !ok {
					t.Fatalf("%s seed %d: %s never received the message", input, seed, s.Name())
				}
				if !got.Equal(want) {
					t.Errorf("%s seed %d: %s delivered at %v, reference schedule %v", input, seed, s.Name(), got, want)
				}
			}
		}
	}
}

// TestRepublishAfterChurnKeepsNameOrder covers the mutation paths the
// sorted list maintains incrementally: resubscribing an existing member
// must not duplicate it, and unsubscribing a non-member must be a no-op.
func TestRepublishAfterChurnKeepsNameOrder(t *testing.T) {
	sim := vclock.NewSim()
	b := New(sim)
	pub := b.Register("pub", 0)
	w1, w2 := b.Register("w1", 0), b.Register("w2", 0)
	w1.Subscribe("t")
	w1.Subscribe("t")   // duplicate
	w2.Unsubscribe("t") // not a member yet
	w2.Subscribe("t")
	var n int
	sim.Go(func() {
		n = pub.Publish("t", 1)
		w1.Inbox().Recv()
		w2.Inbox().Recv()
		if _, dup := w1.Inbox().TryRecv(); dup {
			t.Error("duplicate subscribe produced a duplicate delivery")
		}
	})
	sim.Wait()
	if n != 2 {
		t.Fatalf("Publish reached %d endpoints, want 2 (no duplicate delivery)", n)
	}
}
