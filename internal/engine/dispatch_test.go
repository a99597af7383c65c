package engine

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// This file is the runtime counterpart of the msgexhaustive static
// check: every message kind declared in messages.go (and annotated with
// its //xflow:msg role) must be accepted without panic by the matching
// dispatch path — Master.handle for master-bound kinds, the worker
// comms loop for worker-bound ones, the worker's served timer handler
// for its timers. The payload tables below are
// checked for completeness against the parsed source of messages.go, so
// adding a kind without extending this test fails loudly, just like
// adding one without a dispatch case fails xflow-vet.

// declaredKinds parses messages.go and returns message type name →
// annotated role.
func declaredKinds(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "messages.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing messages.go: %v", err)
	}
	kinds := make(map[string]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			name := ts.Name.Name
			rest, isMsg := strings.CutPrefix(name, "Msg")
			if !isMsg {
				rest, isMsg = strings.CutPrefix(name, "msg")
			}
			if !isMsg || len(rest) == 0 || rest[0] < 'A' || rest[0] > 'Z' {
				continue
			}
			role := ""
			for _, cg := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
				if cg == nil {
					continue
				}
				for _, c := range cg.List {
					if r, ok := strings.CutPrefix(c.Text, "//xflow:msg "); ok {
						role = strings.Fields(r)[0]
					}
				}
			}
			if role == "" {
				t.Errorf("message kind %s has no //xflow:msg annotation", name)
				continue
			}
			kinds[name] = role
		}
	}
	if len(kinds) == 0 {
		t.Fatal("no message kinds found in messages.go")
	}
	return kinds
}

func kindName(payload any) string {
	return strings.TrimPrefix(fmt.Sprintf("%T", payload), "engine.")
}

// checkTableComplete verifies the payload table covers exactly the
// kinds annotated with role — no omissions, duplicates, or strays.
func checkTableComplete(t *testing.T, kinds map[string]string, role string, payloads []any) {
	t.Helper()
	covered := make(map[string]bool)
	for _, p := range payloads {
		name := kindName(p)
		if covered[name] {
			t.Errorf("duplicate table entry for %s", name)
		}
		covered[name] = true
		if kinds[name] != role {
			t.Errorf("table entry %s is not a %s-bound kind (role %q)", name, role, kinds[name])
		}
	}
	for name, r := range kinds {
		if r == role && !covered[name] {
			t.Errorf("kind %s (role %s) missing from the dispatch table", name, role)
		}
	}
}

// dispatchWorkflow returns a workflow consuming the "jobs" stream so
// injected test jobs count as real outstanding work.
func dispatchWorkflow() *Workflow {
	wf := NewWorkflow("dispatch")
	wf.MustAddTask(TaskSpec{Name: "analyze", Input: "jobs"})
	return wf
}

// TestMasterDispatchAcceptsEveryKind drives one fresh master per
// master-bound kind through handle and requires it not to panic. The
// master has one registered worker and one open session with one
// outstanding job; non-terminal kinds must leave the loop running while
// the terminal kinds must report it done.
func TestMasterDispatchAcceptsEveryKind(t *testing.T) {
	sess := func() *session {
		return &session{id: "s1", wf: dispatchWorkflow(), feedOpen: true}
	}
	payloads := []any{
		MsgRegister{Worker: "w2"},
		MsgBid{JobID: "j1", Worker: "w1", Estimate: time.Second, JobCost: time.Second},
		MsgBidWindowExpired{JobID: "j1"},
		MsgAccept{JobID: "j1", Worker: "w1"},
		MsgReject{JobID: "j1", Worker: "w1"},
		MsgRequestJob{Worker: "w1", CachedKeys: []string{"k"}},
		MsgEmit{Job: &Job{ID: "e1", Stream: "jobs"}, Worker: "w1"},
		MsgJobDone{JobID: "j1", Worker: "w1"},
		MsgTick{Token: "x"},
		MsgCacheEvict{Worker: "w1", Keys: []string{"k"}},
		MsgWorkerDead{Worker: "w1"},
		MsgLeave{Worker: "w1"},
		msgOpenSession{s: sess()},
		msgSubmit{s: sess(), job: &Job{ID: "sub", Stream: "jobs"}},
		msgCloseFeed{s: sess()},
		msgDrainStart{worker: "w1"},
		msgShardSettled{JobID: "j1"},
		msgShutdown{},
		msgAbort{},
	}
	checkTableComplete(t, declaredKinds(t), "master", payloads)

	terminal := map[string]bool{"msgShutdown": true, "msgAbort": true}
	for _, payload := range payloads {
		name := kindName(payload)
		t.Run(name, func(t *testing.T) {
			m, open := openMaster(stubAlloc{}, dispatchWorkflow(), 1)
			m.onRegister("w1")
			m.inject(open, &Job{ID: "j1", Stream: "jobs", DataSizeMB: 1})

			done := m.handle(&broker.Envelope{From: "w1", To: MasterName, Payload: payload})
			if done != terminal[name] {
				t.Errorf("handle(%s) done = %v, want %v", name, done, terminal[name])
			}
		})
	}
}

// idleAgent satisfies Agent with a policy that never reacts — the
// dispatch test only cares that messages are routed, not answered.
type idleAgent struct{}

func (idleAgent) Name() string                    { return "idle" }
func (idleAgent) Start(*Worker)                   {}
func (idleAgent) OnBidRequest(*Worker, *Job)      {}
func (idleAgent) OnOffer(*Worker, *Job)           {}
func (idleAgent) OnNoWork(*Worker, time.Duration) {}
func (idleAgent) OnJobFinished(*Worker, *Job)     {}

// TestWorkerDispatchAcceptsEveryKind starts a real comms loop per
// worker-bound kind, delivers the payload through the broker, and
// requires the loop to process it and still honor the follow-up stop —
// a hang or panic fails the simulated-clock Wait.
func TestWorkerDispatchAcceptsEveryKind(t *testing.T) {
	payloads := []any{
		MsgRegisterAck{},
		MsgBidRequest{Job: &Job{ID: "b1", Stream: "jobs", DataSizeMB: 1}},
		MsgAssign{Job: &Job{ID: "a1", Stream: "jobs", DataSizeMB: 1}},
		MsgOffer{Job: &Job{ID: "o1", Stream: "jobs", DataSizeMB: 1}},
		MsgNoWork{Backoff: time.Second},
		MsgDrain{},
		MsgStop{},
	}
	checkTableComplete(t, declaredKinds(t), "worker", payloads)

	for _, payload := range payloads {
		name := kindName(payload)
		t.Run(name, func(t *testing.T) {
			sim := vclock.NewSim()
			bus := broker.New(sim)
			master := bus.Register(MasterName, 0)
			st := NewWorkerState(WorkerSpec{
				Name: "w1",
				Net:  netsim.Speed{BaseMBps: 10},
				RW:   netsim.Speed{BaseMBps: 100},
				Seed: 1,
			}, nil)
			w := NewWorker(sim, bus.Register("w1", 0), dispatchWorkflow(), st, nil, idleAgent{})

			// One tracked goroutine starts the loop and sends: were the sends
			// issued from this untracked one, the loop could park first and
			// the Sim would see every goroutine blocked with no timer pending.
			sim.Go(func() {
				sim.Go(w.commsLoop)
				master.Send("w1", payload)
				master.Send("w1", MsgStop{})
			})
			sim.Wait()

			w.mu.Lock()
			stopped := w.stopped
			w.mu.Unlock()
			if !stopped {
				t.Errorf("comms loop did not stop after processing %s", name)
			}
		})
	}
}

// TestWorkerTimerDispatchAcceptsEveryKind delivers each timer kind
// through the worker's served timer mailbox, as selfAfter does, and
// requires the handler to act on it — each kind sends the master one
// message — and the consumer to end with the mailbox's close.
func TestWorkerTimerDispatchAcceptsEveryKind(t *testing.T) {
	payloads := []any{
		msgRegisterRetry{},
		msgBidReady{bid: MsgBid{JobID: "b1", Worker: "w1", Estimate: time.Second}, to: MasterName},
		msgPullRetry{strikes: 1},
	}
	checkTableComplete(t, declaredKinds(t), "worker-timer", payloads)
	sends := map[string]string{
		"msgRegisterRetry": "MsgRegister",
		"msgBidReady":      "MsgBid",
		"msgPullRetry":     "MsgRequestJob",
	}

	for _, payload := range payloads {
		name := kindName(payload)
		t.Run(name, func(t *testing.T) {
			sim := vclock.NewSim()
			bus := broker.New(sim)
			master := bus.Register(MasterName, 0)
			st := NewWorkerState(WorkerSpec{
				Name:      "w1",
				Net:       netsim.Speed{BaseMBps: 10},
				RW:        netsim.Speed{BaseMBps: 100},
				Heartbeat: -1,
				Seed:      1,
			}, nil)
			w := NewWorker(sim, bus.Register("w1", 0), dispatchWorkflow(), st, nil, idleAgent{})

			sim.Go(func() {
				sim.Serve(w.timers, w.onTimer)
				w.selfAfter(time.Millisecond, " dispatch", "", payload)
				sim.Sleep(time.Second)
				w.timers.Close()
			})
			sim.Wait()

			var got []string
			for {
				v, ok := master.Inbox().TryRecv()
				if !ok {
					break
				}
				got = append(got, kindName(v.(*broker.Envelope).Payload))
			}
			if len(got) != 1 || got[0] != sends[name] {
				t.Errorf("handling %s sent the master %v, want [%s]", name, got, sends[name])
			}
		})
	}
}
