package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// chooserTranscript runs a 2-worker, 3-job bidding session under a
// chooser that alternates between the two earliest enabled events, and
// records at every choice what a model checker fingerprints: the
// enabled labels, the kernel's pending-event and mailbox digests, and
// every node's StateDigest. served selects how the master consumes its
// inbox: Plane.Start (Clock.Serve) or the blocking loop Master.Run.
func chooserTranscript(t *testing.T, served bool) string {
	t.Helper()
	sim := vclock.NewSim()
	var b strings.Builder
	var digests []func() string
	step := 0
	sim.SetChooser(func(enabled []vclock.EnabledEvent) int {
		for _, e := range enabled {
			fmt.Fprintf(&b, "%s|%s|%s ", e.Label.Class, e.Label.Node, e.Label.Detail)
		}
		fmt.Fprintf(&b, "\n%s%s", sim.PendingDigest(), sim.MailboxDigest())
		for _, d := range digests {
			b.WriteString(d())
		}
		b.WriteString("--\n")
		step++
		return step % 2
	})

	pol, ok := core.PolicyByName("bidding")
	if !ok {
		t.Fatal("no bidding policy")
	}
	bus := broker.New(sim)
	wf := dataWorkflow()
	arrivals := dataJobs([]string{"k0", "k1", "k0"}, 32)
	m := engine.NewClusterMaster(sim, bus.Register(engine.MasterName, time.Millisecond),
		pol.NewAllocator(), 2, rand.New(rand.NewSource(1)))
	digests = append(digests, m.StateDigest)
	workers := make([]*engine.Worker, 2)
	for i := range workers {
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name:      fmt.Sprintf("w%d", i),
			Net:       netsim.Speed{BaseMBps: 40 + 10*float64(i)},
			RW:        netsim.Speed{BaseMBps: 160 + 20*float64(i)},
			CacheMB:   -1,
			Link:      time.Millisecond,
			Heartbeat: -time.Nanosecond, // no retry chains: the run quiesces
			Seed:      int64(i + 1),
		}, nil)
		workers[i] = engine.NewWorker(sim, bus.Register(st.Spec.Name, st.Spec.Link), wf, st, nil, pol.NewAgent(st))
		digests = append(digests, workers[i].StateDigest)
	}
	var rep *engine.Report
	sim.Go(func() {
		if served {
			m.Start()
		} else {
			sim.Go(m.Run)
		}
		for _, w := range workers {
			w.Start()
		}
		m.WaitReady()
		sess := m.OpenSession("", wf)
		sess.Schedule(arrivals)
		rep = sess.Wait()
		m.Shutdown()
	})
	sim.Wait()
	if rep.JobsCompleted != len(arrivals) {
		t.Fatalf("served=%v: completed %d/%d jobs", served, rep.JobsCompleted, len(arrivals))
	}
	return b.String()
}

// TestServedPlaneMatchesBlockingLoopUnderChooser: serving the master's
// inbox run-to-completion changes nothing a model checker can see —
// enabled sets, PendingDigest, MailboxDigest and every StateDigest are
// identical, choice for choice, to the blocking receive loop's.
func TestServedPlaneMatchesBlockingLoopUnderChooser(t *testing.T) {
	loop, served := chooserTranscript(t, false), chooserTranscript(t, true)
	if loop != served {
		t.Errorf("transcripts differ\n--- blocking loop ---\n%s\n--- served ---\n%s", loop, served)
	}
	if n := strings.Count(served, "--\n"); n < 10 {
		t.Errorf("only %d scheduling choices recorded; the scenario is too small to compare anything", n)
	}
}
