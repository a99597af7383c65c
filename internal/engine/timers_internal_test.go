package engine

import (
	"sync"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// timerAgent answers a bid request with a bid and arms a pull retry, so
// one request leaves a bid and a pull pending on the worker's timers
// (Start arms a register retry as well). It records when the request
// arrived.
type timerAgent struct {
	idleAgent
	mu    sync.Mutex
	asked time.Time
}

func (a *timerAgent) OnBidRequest(w *Worker, job *Job) {
	a.mu.Lock()
	a.asked = w.clk.Now()
	a.mu.Unlock()
	w.SubmitBid(job.ID, time.Second, time.Second, false)
	w.RequestWorkAfter(0, 1)
}

// sendLog is a worker's broker port that counts what the worker sends,
// whether or not the broker delivers it: a killed worker's endpoint is
// disconnected, and its sends would vanish before any receiver saw them.
type sendLog struct {
	*broker.Endpoint
	mu   sync.Mutex
	sent map[string]int
}

func (p *sendLog) Send(to string, payload any) bool {
	p.mu.Lock()
	p.sent[kindName(payload)]++
	p.mu.Unlock()
	return p.Endpoint.Send(to, payload)
}

// timerWorker builds an unstarted worker w1 on clk whose bid delay and
// heartbeat are both delay, with its sends logged.
func timerWorker(clk vclock.Clock, delay time.Duration, agent Agent) (*Worker, *broker.Endpoint, *sendLog) {
	bus := broker.New(clk)
	master := bus.Register(MasterName, 0)
	port := &sendLog{Endpoint: bus.Register("w1", 0), sent: make(map[string]int)}
	st := NewWorkerState(WorkerSpec{
		Name:      "w1",
		Net:       netsim.Speed{BaseMBps: 10},
		RW:        netsim.Speed{BaseMBps: 100},
		BidDelay:  delay,
		Heartbeat: delay,
		Seed:      1,
	}, nil)
	return NewWorker(clk, port, dispatchWorkflow(), st, nil, agent), master, port
}

// TestWorkerTimersDieWithTheWorker kills, stops or drains a worker
// inside its bid delay, with a bid, a pull retry and a register retry
// pending: it must send none of them, and every goroutine — the served
// timer consumer included — must end, so Wait returns. The control case
// ends nothing until the timers are through and sees all three fire.
func TestWorkerTimersDieWithTheWorker(t *testing.T) {
	const delay = 2 * time.Second
	clocks := []struct {
		name string
		new  func() vclock.Clock
	}{
		{"sim", func() vclock.Clock { return vclock.NewSim() }},
		// 200 ms of wall time per delay; the end comes at 20 ms.
		{"real", func() vclock.Clock { return vclock.NewScaledReal(10) }},
	}
	ends := []struct {
		name string
		end  func(w *Worker, master *broker.Endpoint)
		want map[string]int
	}{
		{"none", nil, map[string]int{"MsgRegister": 2, "MsgBid": 1, "MsgRequestJob": 1}},
		{"kill", func(w *Worker, _ *broker.Endpoint) { w.kill() },
			map[string]int{"MsgRegister": 1}},
		{"stop", func(_ *Worker, m *broker.Endpoint) { m.Send("w1", MsgStop{}) },
			map[string]int{"MsgRegister": 1}},
		{"drain", func(_ *Worker, m *broker.Endpoint) { m.Send("w1", MsgDrain{}) },
			map[string]int{"MsgRegister": 1, "MsgLeave": 1}},
	}
	for _, c := range clocks {
		for _, e := range ends {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				t.Parallel()
				clk := c.new()
				if sim, ok := clk.(*vclock.Sim); ok {
					sim.SetDeadlockHandler(func(waiting []string) {
						t.Errorf("simulation deadlocked; blocked: %v", waiting)
					})
				}
				w, master, port := timerWorker(clk, delay, &timerAgent{})
				var ended time.Duration
				clk.Go(func() {
					start := clk.Now()
					w.Start()
					master.Send("w1", MsgBidRequest{Job: &Job{ID: "b1", Stream: "jobs", DataSizeMB: 1}})
					if e.end == nil {
						// The timers fire at delay; the next register retry
						// would at twice that.
						clk.Sleep(delay * 3 / 2)
						master.Send("w1", MsgStop{})
						return
					}
					clk.Sleep(delay / 10)
					e.end(w, master)
					ended = clk.Since(start)
					clk.Sleep(2 * delay) // every timer has come due
				})
				waited := make(chan struct{})
				go func() {
					clk.Wait()
					close(waited)
				}()
				select {
				case <-waited:
				case <-time.After(30 * time.Second):
					t.Fatal("Wait did not return: a worker goroutine or consumer is still parked")
				}
				if ended >= delay {
					t.Fatalf("the %s came %v after the start, past the timers' %v: the host was too slow to test it", e.name, ended, delay)
				}
				port.mu.Lock()
				defer port.mu.Unlock()
				for _, kind := range []string{"MsgRegister", "MsgBid", "MsgRequestJob", "MsgLeave"} {
					if got := port.sent[kind]; got != e.want[kind] {
						t.Errorf("%s sent %d times, want %d (all sends: %v)", kind, got, e.want[kind], port.sent)
					}
				}
			})
		}
	}
}

// TestWorkerTimersBidArrivesOnTime: a delayed bid reaches the master at
// request + route + bid delay + route, the routes being the links' sum
// plus the simulated route skew, measured here by the request's arrival
// at the agent and by the worker's registration.
func TestWorkerTimersBidArrivesOnTime(t *testing.T) {
	const delay = 10 * time.Millisecond
	sim := vclock.NewSim()
	bus := broker.New(sim)
	master := bus.Register(MasterName, 3*time.Millisecond)
	agent := &timerAgent{}
	st := NewWorkerState(WorkerSpec{
		Name:      "w1",
		Net:       netsim.Speed{BaseMBps: 10},
		RW:        netsim.Speed{BaseMBps: 100},
		BidDelay:  delay,
		Heartbeat: -1,
		Seed:      1,
	}, nil)
	w := NewWorker(sim, bus.Register("w1", 2*time.Millisecond), dispatchWorkflow(), st, nil, agent)

	var out, back, got time.Duration
	var reply any
	sim.Go(func() {
		start := sim.Now()
		w.Start()
		master.Inbox().Recv() // the worker's MsgRegister
		back = sim.Since(start)
		asked := sim.Now()
		master.Send("w1", MsgBidRequest{Job: &Job{ID: "b1", Stream: "jobs", DataSizeMB: 1}})
		v, _ := master.Inbox().Recv()
		got = sim.Since(asked)
		reply = v.(*broker.Envelope).Payload
		agent.mu.Lock()
		out = agent.asked.Sub(asked)
		agent.mu.Unlock()
		master.Send("w1", MsgStop{})
	})
	sim.Wait()

	if _, ok := reply.(MsgBid); !ok {
		t.Fatalf("the master got %T, want MsgBid", reply)
	}
	if out < 5*time.Millisecond || back < 5*time.Millisecond {
		t.Fatalf("routes took %v out and %v back, want each at least the links' 5ms", out, back)
	}
	if want := out + delay + back; got != want {
		t.Errorf("bid arrived %v after the request, want %v route + %v delay + %v route = %v",
			got, out, delay, back, want)
	}
}
