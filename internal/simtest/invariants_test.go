package simtest

import (
	"errors"
	"testing"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/vclock"
)

// This file exercises every invariant in the library the way the model
// checker and the fuzzer consume it: one hand-built trace that holds
// the invariant and one that violates exactly it, per invariant. The
// violating traces are minimal — each one is the smallest corruption
// that trips its check and nothing earlier in the audit order — so a
// reordering of the checks that changes which invariant fires shows up
// here immediately.

// tev builds one trace event at an offset from the simulated epoch.
func tev(at time.Duration, kind engine.TraceEventKind, job, node string) engine.TraceEvent {
	return engine.TraceEvent{At: vclock.Epoch.Add(at), Kind: kind, JobID: job, Node: node}
}

// invScenario is the shared minimal scenario: two workers, one job.
func invScenario() *Scenario {
	return &Scenario{
		Seed: 1,
		Workers: []WorkerCfg{
			{Name: "w0", NetMBps: 10, RWMBps: 100, CacheMB: -1},
			{Name: "w1", NetMBps: 20, RWMBps: 100, CacheMB: -1},
		},
		Jobs: []JobCfg{{ID: "job-0", Key: "key-0", SizeMB: 10}},
	}
}

// cleanReport is a report consistent with "job-0 ran once on w0 with
// one cache miss": it satisfies cache accounting and conservation.
func cleanReport() *engine.Report {
	return &engine.Report{
		Tally:       engine.Tally{JobsCompleted: 1},
		Downloads:   1,
		CacheMisses: 1,
		Workers:     []engine.WorkerReport{{Name: "w0", JobsDone: 1}},
		Records: map[string]*engine.JobRecord{
			"job-0": {
				Status:   engine.StatusFinished,
				Worker:   "w0",
				Injected: vclock.Epoch,
				Finished: vclock.Epoch.Add(time.Second),
			},
		},
	}
}

// cleanEvents is the matching lifecycle: injected, contested, assigned,
// finished — valid under every assignment discipline that a test below
// doesn't override.
func cleanEvents() []engine.TraceEvent {
	return []engine.TraceEvent{
		tev(0, engine.TraceInjected, "job-0", ""),
		tev(10*time.Millisecond, engine.TraceContest, "job-0", ""),
		tev(20*time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
		tev(time.Second, engine.TraceFinished, "job-0", "w0"),
	}
}

func TestInvariantTable(t *testing.T) {
	type tc struct {
		invariant string
		// scenario defaults to invScenario(); the traces' Policy field
		// decides the assignment discipline under audit.
		scenario *Scenario
		pass     *RunResult
		fail     *RunResult
	}

	lossy := invScenario()
	lossy.Faults.DropProb = 0.5

	// Every scenario below is lossy: the violating traces end in a
	// detected deadlock (an incomplete history on a clean run would trip
	// the terminal-count check instead of the invariant under test), and
	// only a lossy fault plan excuses that deadlock long enough for the
	// history scan to reach the real corruption. The completion case is
	// the exception and is special-cased in the runner.
	joinSc := invScenario()
	joinSc.Faults.DropProb = 0.5
	joinSc.Faults.Joins = []JoinFault{{At: 5 * time.Second, Worker: WorkerCfg{Name: "j0", NetMBps: 10, RWMBps: 100, CacheMB: -1}}}

	killSc := invScenario()
	killSc.Faults.DropProb = 0.5
	killSc.Faults.Kills = []engine.Kill{{Worker: "w0", At: time.Second}}

	poisonSc := invScenario()
	poisonSc.Faults.DropProb = 0.5
	poisonSc.Jobs = append(poisonSc.Jobs, JobCfg{ID: "poison-1", Key: "key-0", SizeMB: 10, Poison: true})

	cases := []tc{
		{
			invariant: "clean-error",
			scenario:  lossy,
			pass: &RunResult{Policy: "random", Err: engine.ErrDeadlocked,
				Events: cleanEvents()[:1]},
			fail: &RunResult{Policy: "random", Err: errors.New("worker exploded"),
				Events: cleanEvents()[:1]},
		},
		{
			invariant: "completion",
			// The identical detected deadlock under the two fault plans:
			// tolerated when the plan can lose messages (pass runs against
			// the lossy scenario), a violation when it cannot (fail runs
			// against the lossless default — see the runner below).
			scenario: lossy,
			pass: &RunResult{Policy: "random", Err: engine.ErrDeadlocked,
				Events: cleanEvents()[:1]},
			fail: &RunResult{Policy: "random", Err: engine.ErrDeadlocked,
				Events: cleanEvents()[:1]},
		},
		{
			invariant: "timestamps-monotone",
			scenario:  lossy,
			pass:      &RunResult{Policy: "random", Events: cleanEvents(), Report: cleanReport()},
			fail: &RunResult{Policy: "random", Events: []engine.TraceEvent{
				tev(time.Second, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceAssigned, "job-0", "w0"), // earlier than injection
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "lifecycle-exactly-once",
			scenario:  poisonSc,
			pass: &RunResult{Policy: "random", Events: append(cleanEvents(),
				tev(2*time.Second, engine.TraceInjected, "poison-1", ""),
				tev(3*time.Second, engine.TraceFailed, "poison-1", "w0"),
			), Report: func() *engine.Report {
				rep := cleanReport()
				rep.JobsCompleted = 2
				rep.JobsFailed = 1
				rep.CacheMisses, rep.Downloads = 2, 2
				rep.Workers[0].JobsDone = 2
				rep.Records["poison-1"] = &engine.JobRecord{
					Status: engine.StatusFinished, Worker: "w0",
					Injected: vclock.Epoch.Add(2 * time.Second),
					Finished: vclock.Epoch.Add(3 * time.Second),
				}
				return rep
			}()},
			fail: &RunResult{Policy: "random", Events: append(cleanEvents(),
				tev(2*time.Second, engine.TraceAssigned, "job-0", "w1"), // after terminal
			), Err: engine.ErrDeadlocked},
		},
		{
			invariant: "no-placement-before-join",
			scenario:  joinSc,
			pass: &RunResult{Policy: "random", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(6*time.Second, engine.TraceAssigned, "job-0", "j0"), // after its join at 5s
				tev(7*time.Second, engine.TraceFinished, "job-0", "j0"),
			}, Report: func() *engine.Report {
				rep := cleanReport()
				rep.Workers[0] = engine.WorkerReport{Name: "j0", JobsDone: 1}
				rep.Records["job-0"].Worker = "j0"
				return rep
			}()},
			fail: &RunResult{Policy: "random", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Second, engine.TraceAssigned, "job-0", "j0"), // before its join
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "assigned-after-contest",
			scenario:  lossy,
			pass:      &RunResult{Policy: "bidding", Events: cleanEvents(), Report: cleanReport()},
			fail: &RunResult{Policy: "bidding", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceAssigned, "job-0", "w0"), // no contest opened
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "assigned-after-offer",
			scenario:  lossy,
			pass: &RunResult{Policy: "baseline", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceOffered, "job-0", "w1"),
				tev(2*time.Millisecond, engine.TraceRejected, "job-0", "w1"),
				tev(3*time.Millisecond, engine.TraceOffered, "job-0", "w0"),
				tev(4*time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
				tev(time.Second, engine.TraceFinished, "job-0", "w0"),
			}, Report: cleanReport()},
			fail: &RunResult{Policy: "baseline", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceOffered, "job-0", "w1"),
				tev(2*time.Millisecond, engine.TraceAssigned, "job-0", "w0"), // only w1 was offered it
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "index-consistent-assignment",
			scenario:  lossy,
			pass: &RunResult{Policy: "bidding-topk", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceContest, "job-0", "w0"), // targeted at w0
				tev(2*time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
				tev(time.Second, engine.TraceFinished, "job-0", "w0"),
			}, Report: cleanReport()},
			fail: &RunResult{Policy: "bidding-topk", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceContest, "job-0", "w1"), // only w1 was asked
				tev(2*time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "redispatch-after-death",
			scenario:  killSc,
			pass: &RunResult{Policy: "random", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
				tev(2*time.Second, engine.TraceRedispatch, "job-0", "w0"), // after w0's kill at 1s
				tev(3*time.Second, engine.TraceAssigned, "job-0", "w1"),
				tev(4*time.Second, engine.TraceFinished, "job-0", "w1"),
			}, Report: func() *engine.Report {
				rep := cleanReport()
				rep.Redispatched = 1
				rep.Workers[0] = engine.WorkerReport{Name: "w1", JobsDone: 1}
				rep.Records["job-0"].Worker = "w1"
				return rep
			}()},
			fail: &RunResult{Policy: "random", Events: []engine.TraceEvent{
				tev(0, engine.TraceInjected, "job-0", ""),
				tev(time.Millisecond, engine.TraceAssigned, "job-0", "w1"),
				tev(2*time.Second, engine.TraceRedispatch, "job-0", "w1"), // w1 was never killed
			}, Err: engine.ErrDeadlocked},
		},
		{
			invariant: "cache-accounting",
			scenario:  lossy,
			pass: &RunResult{Policy: "random", Err: engine.ErrDeadlocked,
				Events: cleanEvents()[:1],
				Report: &engine.Report{Downloads: 1, CacheMisses: 1,
					Workers: []engine.WorkerReport{{Name: "w0", JobsDone: 1}}}},
			fail: &RunResult{Policy: "random", Err: engine.ErrDeadlocked,
				Events: cleanEvents()[:1],
				Report: &engine.Report{Downloads: 2, CacheMisses: 1, // a download without a miss
					Workers: []engine.WorkerReport{{Name: "w0", JobsDone: 1}}}},
		},
		{
			invariant: "conservation",
			pass:      &RunResult{Policy: "random", Events: cleanEvents(), Report: cleanReport()},
			fail: &RunResult{Policy: "random", Events: cleanEvents(),
				Report: func() *engine.Report {
					rep := cleanReport()
					rep.Redispatched = 1 // counter claims a rescue the trace never saw
					return rep
				}()},
		},
	}

	for _, c := range cases {
		t.Run(c.invariant, func(t *testing.T) {
			sc := c.scenario
			if sc == nil {
				sc = invScenario()
			}
			if v := CheckTrace(sc, c.pass); v != nil {
				t.Fatalf("passing trace flagged: %v", v)
			}
			failSc := sc
			if c.invariant == "completion" {
				failSc = invScenario() // lossless: the deadlock is no longer excused
			}
			v := CheckTrace(failSc, c.fail)
			if v == nil {
				t.Fatalf("violating trace not flagged")
			}
			if v.Invariant != c.invariant {
				t.Fatalf("flagged %q, want %q (%s)", v.Invariant, c.invariant, v.Detail)
			}
		})
	}
}

// TestInvariantOrderIndependentExtras covers violating shapes the table
// above can't express as a single minimal corruption: terminal-count
// bookkeeping on clean runs and offer-protocol rejections.
func TestInvariantOrderIndependentExtras(t *testing.T) {
	sc := invScenario()

	t.Run("missing terminal on clean run", func(t *testing.T) {
		r := &RunResult{Policy: "random", Events: []engine.TraceEvent{
			tev(0, engine.TraceInjected, "job-0", ""),
			tev(time.Millisecond, engine.TraceAssigned, "job-0", "w0"),
		}, Report: cleanReport()}
		v := CheckTrace(sc, r)
		if v == nil || v.Invariant != "lifecycle-exactly-once" {
			t.Fatalf("got %v, want lifecycle-exactly-once", v)
		}
	})

	t.Run("reject without offer", func(t *testing.T) {
		r := &RunResult{Policy: "baseline", Err: engine.ErrDeadlocked, Events: []engine.TraceEvent{
			tev(0, engine.TraceInjected, "job-0", ""),
			tev(time.Millisecond, engine.TraceRejected, "job-0", "w0"),
		}}
		lossy := invScenario()
		lossy.Faults.DropProb = 0.5
		v := CheckTrace(lossy, r)
		if v == nil || v.Invariant != "assigned-after-offer" {
			t.Fatalf("got %v, want assigned-after-offer", v)
		}
	})

	t.Run("poison job finishing", func(t *testing.T) {
		psc := invScenario()
		psc.Jobs[0].Poison = true
		r := &RunResult{Policy: "random", Err: engine.ErrDeadlocked, Events: []engine.TraceEvent{
			tev(0, engine.TraceInjected, "job-0", ""),
			tev(time.Second, engine.TraceFinished, "job-0", "w0"),
		}}
		psc.Faults.DropProb = 0.5
		v := CheckTrace(psc, r)
		if v == nil || v.Invariant != "lifecycle-exactly-once" {
			t.Fatalf("got %v, want lifecycle-exactly-once", v)
		}
	})

	t.Run("unfinished record on clean run", func(t *testing.T) {
		r := &RunResult{Policy: "random", Events: cleanEvents(), Report: cleanReport()}
		r.Report.Records["job-0"].Status = engine.StatusPending
		v := CheckTrace(sc, r)
		if v == nil || v.Invariant != "conservation" {
			t.Fatalf("got %v, want conservation", v)
		}
	})
}
