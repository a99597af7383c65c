package engine

import (
	"strings"
	"testing"

	"crossflow/internal/vclock"
)

// TestMembershipScripts drives the membership state machine directly —
// no master, no router — through the registration-window bug scripts the
// model checker found in PR 7 and the drain-ack edge cases. Both control
// planes embed this one component, so each script is checked once.
func TestMembershipScripts(t *testing.T) {
	// Each step applies one membership event and states what the
	// component must answer: register → admitted (not tombstoned), dead →
	// was live, drain → drain started, leave → was live.
	type step struct {
		op, worker string
		want       bool
	}
	for _, tc := range []struct {
		name     string
		expected int
		steps    []step
		digest   string // final membership line
		formed   int    // times the fleet-formation hook fired
		acked    int    // drain acks delivered by the end of the script
	}{
		{
			name:     "register after death is refused",
			expected: 2,
			steps: []step{
				{"register", "w0", true},
				{"dead", "w1", false},
				{"register", "w1", false},
			},
			digest: "members ready=true exp=1 workers=w0 dead=w1 drains=",
			formed: 1,
		},
		{
			name:     "death before registration shrinks the quorum once",
			expected: 3,
			steps: []step{
				{"register", "w0", true},
				{"dead", "w2", false},
				{"dead", "w2", false},
				{"register", "w1", true},
			},
			digest: "members ready=true exp=2 workers=w0,w1 dead=w2 drains=",
			formed: 1,
		},
		{
			name:     "death of a registered worker before formation un-banks it",
			expected: 2,
			steps: []step{
				{"register", "w0", true},
				{"dead", "w0", true},
				{"register", "w1", true},
			},
			digest: "members ready=true exp=1 workers=w1 dead=w0 drains=",
			formed: 1,
		},
		{
			name:     "drain racing formation un-banks a registration",
			expected: 2,
			steps: []step{
				{"register", "w0", true},
				{"drain", "w0", true},
				{"register", "w1", true},
			},
			digest: "members ready=true exp=1 workers=w1 dead= drains=w0:1,",
			formed: 1,
		},
		{
			name:     "duplicate drain acks are banked and released together",
			expected: 1,
			steps: []step{
				{"register", "w0", true},
				{"drain", "w0", true},
				{"drain", "w0", false},
				{"leave", "w0", false},
			},
			digest: "members ready=true exp=1 workers= dead= drains=",
			formed: 1,
			acked:  2,
		},
		{
			name:     "draining an unknown worker acks at once",
			expected: 1,
			steps: []step{
				{"register", "w0", true},
				{"drain", "ghost", false},
			},
			digest: "members ready=true exp=1 workers=w0 dead= drains=",
			formed: 1,
			acked:  1,
		},
		{
			name:     "leave without drain is a death",
			expected: 2,
			steps: []step{
				{"register", "w0", true},
				{"register", "w1", true},
				{"leave", "w1", true},
				{"register", "w1", false},
			},
			digest: "members ready=true exp=2 workers=w0 dead=w1 drains=",
			formed: 1,
		},
		{
			name:     "a drained worker's name may rejoin",
			expected: 1,
			steps: []step{
				{"register", "w0", true},
				{"drain", "w0", true},
				{"leave", "w0", false},
				{"register", "w0", true},
			},
			digest: "members ready=true exp=1 workers=w0 dead= drains=",
			formed: 1,
			acked:  1,
		},
		{
			name:     "shutdown flushes every pending drain",
			expected: 2,
			steps: []step{
				{"register", "w1", true},
				{"register", "w0", true},
				{"drain", "w1", true},
				{"drain", "w0", true},
				{"flush", "", false},
			},
			digest: "members ready=true exp=2 workers= dead= drains=",
			formed: 1,
			acked:  2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vclock.NewSim()
			ms := newMembership(tc.expected)
			ms.signalReady(sim.NewMailbox("ready"))
			var acks []vclock.Mailbox
			for i, st := range tc.steps {
				var got bool
				switch st.op {
				case "register":
					if got = !ms.tombstoned(st.worker); got {
						ms.admit(st.worker)
					}
				case "dead":
					got = ms.lose(st.worker)
				case "drain":
					ack := sim.NewMailbox("ack")
					acks = append(acks, ack)
					got = ms.startDrain(st.worker, ack)
				case "leave":
					got = ms.leave(st.worker)
					ms.releaseDrain(st.worker)
				case "flush":
					ms.flushDrains()
				}
				if got != st.want {
					t.Fatalf("step %d (%s %s) = %v, want %v", i, st.op, st.worker, got, st.want)
				}
			}
			var b strings.Builder
			ms.digest(&b)
			if got := strings.TrimSuffix(b.String(), "\n"); got != tc.digest {
				t.Errorf("digest:\n got  %s\n want %s", got, tc.digest)
			}
			if formed := ms.readyAck.Len(); formed != tc.formed {
				t.Errorf("fleet formed %d times, want %d", formed, tc.formed)
			}
			acked := 0
			for _, ack := range acks {
				acked += ack.Len()
			}
			if acked != tc.acked {
				t.Errorf("%d drain acks delivered, want %d", acked, tc.acked)
			}
		})
	}
}
