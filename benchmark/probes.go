package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossflow/internal/bench"
	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/locindex"
	"crossflow/internal/netsim"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
	"crossflow/internal/wire"
	"crossflow/internal/workload"
)

// A probe times calls into one layer's public functions in isolation.
// Probes do not depend on the workload; every traced run repeats them so
// that every run reports every per-layer metric.

// timeOp calls fn with a growing operation count until one call reports
// at least min of measured time, and returns nanoseconds per operation.
// fn returns the time it measured, so it can keep set-up and draining
// outside.
func timeOp(min time.Duration, fn func(n int) time.Duration) float64 {
	n := 1
	for {
		el := fn(n)
		if el >= min || n >= 1<<26 {
			return float64(el) / float64(n)
		}
		switch {
		case el < min/20:
			n *= 10
		default:
			n = int(float64(n)*float64(min)/float64(el)*1.2) + 1
		}
	}
}

// timed adapts a plain loop body to timeOp.
func timed(body func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		body(n)
		return time.Since(t0)
	}
}

// suiteNs runs one entry of internal/bench's suite by name through
// testing.Benchmark — the entry itself, not a copy — and returns its
// ns/op. benchtime is a testing -benchtime value.
func suiteNs(name, benchtime string) float64 {
	for _, spec := range bench.Suite() {
		if spec.Name != name {
			continue
		}
		if err := flag.Set("test.benchtime", benchtime); err != nil {
			panic(err) // testing.Init registered the flag
		}
		r := testing.Benchmark(spec.F)
		if r.N == 0 {
			return 0
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	panic("internal/bench has no suite entry " + name)
}

// runProbes fills every probe metric.
func runProbes(rc *runCtx) error {
	res, p := rc.res, rc.p
	bt := p.ProbeTime.String()

	// vclock, broker, storage: the simulation kernel's hot paths, reused
	// from internal/bench by name.
	res.set("vclock.sim_sleep_ns", suiteNs("vclock_sleep_events", bt))
	res.set("vclock.sim_mailbox_pingpong_ns", suiteNs("vclock_mailbox_pingpong", bt))
	res.set("vclock.sim_afterfunc_ns", suiteNs("vclock_afterfunc_timers", bt))
	res.set("broker.send_ns", suiteNs("broker_direct_send", bt))
	res.set("broker.publish_w5_ns", suiteNs("broker_publish_fanout", bt))
	res.set("storage.put_access_ns", suiteNs("storage_cache_put_access", bt))
	if p.SuiteProbes {
		// PR 9's burst ladder; the difference of the two prices the
		// simulated router hop. 240 jobs per iteration.
		res.set("engine.sim_s1_w500_us_per_job", suiteNs("fleet_shard_s1_w500", "2x")/240/1e3)
		res.set("engine.sim_s2_w500_us_per_job", suiteNs("fleet_shard_s2_w500", "2x")/240/1e3)
	}

	res.set("vclock.real_mailbox_pingpong_ns", probeRealPingPong(p))
	probeBroker(res, p)
	probeWire(res, p)
	if err := probeTransport(res, p); err != nil {
		return err
	}
	res.set("engine.master_us_per_job_w8", probeMaster(p, 8)/1e3)
	res.set("engine.master_us_per_job_w500", probeMaster(p, 500)/1e3)
	res.set("engine.worker_us_per_job", probeWorker(p)/1e3)
	probeLocindex(res, p)
	res.set("workload.generate_us", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			workload.Generate(workload.Rep80Small, workload.Options{Seed: int64(i)})
		}
	}))/1e3)
	return nil
}

// probeRealPingPong is internal/bench's mailbox ping-pong on the real
// clock, the mailbox every TCP node's loop blocks on.
func probeRealPingPong(p params) float64 {
	return timeOp(p.ProbeTime, timed(func(n int) {
		clk := vclock.NewReal()
		a, b := clk.NewMailbox("a"), clk.NewMailbox("b")
		clk.Go(func() {
			for i := 0; i < n; i++ {
				v, _ := a.Recv()
				b.Send(v)
			}
		})
		clk.Go(func() {
			for i := 0; i < n; i++ {
				a.Send(i)
				b.Recv()
			}
		})
		clk.Wait()
	}))
}

// probeBroker times the in-process broker's wide fanout and targeted
// multicast on the simulated clock.
func probeBroker(res *result, p params) {
	fan := func(subs int, send func(master *broker.Endpoint, names []string)) float64 {
		return timeOp(p.ProbeTime, timed(func(n int) {
			sim := vclock.NewSim()
			bus := broker.New(sim)
			master := bus.Register("master", 0)
			eps := make([]*broker.Endpoint, subs)
			names := make([]string, subs)
			for i := range eps {
				names[i] = fmt.Sprintf("w%04d", i)
				eps[i] = bus.Register(names[i], 0)
				eps[i].Subscribe("bids")
			}
			sim.Go(func() {
				for i := 0; i < n; i++ {
					send(master, names)
					for _, ep := range eps {
						ep.Inbox().Recv()
					}
				}
			})
			sim.Wait()
		}))
	}
	res.set("broker.publish_w500_ns_per_delivery",
		fan(500, func(m *broker.Endpoint, _ []string) { m.Publish("bids", 1) })/500)
	res.set("broker.sendmulti_k6_ns",
		fan(6, func(m *broker.Endpoint, names []string) { m.SendMulti(names, 1) }))
}

// hotFrames are the four frames of the bidding hot path as they cross
// the wire: the bid request as the delivery every worker decodes, the
// rest as the sends their senders encode.
func hotFrames() map[string]*wire.Frame {
	job := &engine.Job{ID: "s123-456", Stream: workload.Stream, DataKey: "hot/03", DataSizeMB: 4, Session: "s123"}
	return map[string]*wire.Frame{
		"bidrequest": {Kind: wire.KindDelivery, Env: broker.Envelope{From: engine.MasterName, Topic: engine.TopicBids, Payload: engine.MsgBidRequest{Job: job}}},
		"bid":        {Kind: wire.KindSend, To: engine.MasterName, Payload: engine.MsgBid{JobID: job.ID, Worker: "w003", Estimate: 25 * time.Millisecond, JobCost: 5 * time.Millisecond, Local: true}},
		"assign":     {Kind: wire.KindSend, To: "w003", Payload: engine.MsgAssign{Job: job, EstimatedCost: 5 * time.Millisecond}},
		"jobdone":    {Kind: wire.KindSend, To: engine.MasterName, Payload: engine.MsgJobDone{JobID: job.ID, Worker: "w003", Results: []any{job.ID}}},
	}
}

func probeWire(res *result, p params) {
	frames := hotFrames()
	for _, name := range sortedKeys(frames) {
		f := frames[name]
		body, err := wire.AppendFrame(nil, f)
		if err != nil {
			panic(err) // engine protocol messages always encode
		}
		buf := make([]byte, 0, 2*len(body))
		res.set("wire.encode_ns."+name, timeOp(p.ProbeTime, timed(func(n int) {
			for i := 0; i < n; i++ {
				buf, _ = wire.AppendFrame(buf[:0], f) // encoded once above without error
			}
		})))
		res.set("wire.decode_ns."+name, timeOp(p.ProbeTime, timed(func(n int) {
			var out wire.Frame
			for i := 0; i < n; i++ {
				if err := wire.ParseFrame(body, &out); err != nil {
					panic(err) // body is AppendFrame's own output
				}
			}
		})))
		switch name {
		case "bidrequest", "bid":
			res.set("wire.frame_bytes."+name, float64(len(body)+4))
		}
		if name == "bid" {
			res.set("wire.encode_allocs_per_frame", testing.AllocsPerRun(200, func() {
				buf, _ = wire.AppendFrame(buf[:0], f)
			}))
			res.set("wire.decode_allocs_per_frame", testing.AllocsPerRun(200, func() {
				var out wire.Frame
				_ = wire.ParseFrame(body, &out)
			}))
		}
	}
}

// drain counts deliveries into a client until its inbox closes.
func drain(c *transport.Client, got *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if _, ok := c.Inbox().Recv(); !ok {
			return
		}
		got.Add(1)
	}
}

// waitFor spins until cond holds; the probes use it for "every
// delivery has arrived", which the transport signals no other way.
func waitFor(cond func() bool) {
	for !cond() {
		time.Sleep(20 * time.Microsecond)
	}
}

// probeTransport times the TCP transport on idle loopback: a request and
// its reply, a synchronous publish to eight subscribers, the issue cost
// of a pipelined publish, a one-way stream and a fanout.
func probeTransport(res *result, p params) error {
	srv, err := transport.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe serve: %w", err)
	}
	defer srv.Close()
	clk := vclock.NewReal()
	var conns []*transport.Client
	defer func() {
		for _, c := range conns {
			_ = c.Close() // torn down; nothing to flush
		}
	}()
	dial := func(name string) (*transport.Client, error) {
		c, err := transport.DialOptions(srv.Addr(), name, 0, clk, transport.Options{Codec: "binary"})
		if err != nil {
			return nil, fmt.Errorf("probe dial %s: %w", name, err)
		}
		conns = append(conns, c)
		return c, nil
	}
	a, err := dial("probe-a")
	if err != nil {
		return err
	}
	b, err := dial("probe-b")
	if err != nil {
		return err
	}
	frames := hotFrames()
	bid, req := frames["bid"].Payload, frames["bidrequest"].Env.Payload

	// A send to an endpoint whose hello the server has not processed yet
	// is dropped, so each peer is first reached by a multicast, whose
	// ack says whether it was delivered. That delivers one message.
	reach := func(name string) {
		waitFor(func() bool { return a.SendMulti([]string{name}, bid) == 1 })
	}

	// A -> B -> A on an idle connection. B echoes until it is closed.
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			if _, ok := b.Inbox().Recv(); !ok {
				return
			}
			b.Send("probe-a", bid)
		}
	}()
	reach("probe-b")
	a.Inbox().Recv() // the echo of the reaching message
	res.set("transport.send_rtt_us", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			a.Send("probe-b", bid)
			a.Inbox().Recv()
		}
	}))/1e3)
	_ = b.Close()
	echo.Wait()

	// One-way pipelined stream A -> C.
	c, err := dial("probe-c")
	if err != nil {
		return err
	}
	var got atomic.Int64
	var sinks sync.WaitGroup
	sinks.Add(1)
	go drain(c, &got, &sinks)
	reach("probe-c")
	u := startUsage()
	for i := 0; i < p.StreamMsgs; i++ {
		a.Send("probe-c", bid)
	}
	waitFor(func() bool { return got.Load() >= int64(p.StreamMsgs)+1 })
	wall, cpu := u.elapsed()
	res.set("transport.stream_msgs_per_s", float64(p.StreamMsgs)/wall.Seconds())
	res.set("transport.stream_cpu_us_per_msg", float64(cpu.Microseconds())/float64(p.StreamMsgs))

	// Eight subscribers, as in the tcp_* fleets. expect counts the
	// deliveries the publishes so far were acknowledged to have caused.
	const subs = 8
	var fanGot atomic.Int64
	var expect int64
	for i := 0; i < subs; i++ {
		s, err := dial(fmt.Sprintf("probe-s%d", i))
		if err != nil {
			return err
		}
		s.Subscribe(engine.TopicBids)
		sinks.Add(1)
		go drain(s, &fanGot, &sinks)
	}
	publish := func() int {
		n := a.Publish(engine.TopicBids, req)
		expect += int64(n)
		return n
	}
	waitFor(func() bool { return publish() == subs }) // until every subscription is in place
	res.set("transport.publish_ack_rtt_us", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			publish()
		}
	}))/1e3)
	res.set("transport.publish_async_issue_ns", timeOp(p.ProbeTime, func(n int) time.Duration {
		acks := make([]func() int, n)
		t0 := time.Now()
		for i := range acks {
			acks[i] = a.PublishAsync(engine.TopicBids, req)
		}
		el := time.Since(t0)
		for _, ack := range acks {
			expect += int64(ack())
		}
		return el
	}))
	waitFor(func() bool { return fanGot.Load() >= expect })
	pubs := p.StreamMsgs / subs
	u = startUsage()
	acks := make([]func() int, pubs)
	for i := range acks {
		acks[i] = a.PublishAsync(engine.TopicBids, req)
	}
	waitFor(func() bool { return fanGot.Load() >= expect+int64(pubs*subs) })
	wall, cpu = u.elapsed()
	for _, ack := range acks {
		ack()
	}
	res.set("transport.fanout_w8_deliveries_per_s", float64(pubs*subs)/wall.Seconds())
	res.set("transport.fanout_cpu_us_per_delivery", float64(cpu.Microseconds())/float64(pubs*subs))

	for _, c := range conns {
		_ = c.Close()
	}
	sinks.Wait()
	return nil
}

// scriptedFleet is the Port of a master under test: behind it, W
// synthetic workers bid on every request and finish every assignment
// instantly, by putting their replies straight into the master's inbox.
// What the master's loop then costs per job is the master alone: no
// broker, no wire, no worker.
type scriptedFleet struct {
	inbox   vclock.Mailbox
	workers []string
}

func (s *scriptedFleet) Name() string          { return engine.MasterName }
func (s *scriptedFleet) Inbox() vclock.Mailbox { return s.inbox }
func (s *scriptedFleet) Subscribe(string)      {}

func (s *scriptedFleet) reply(from string, payload any) {
	s.inbox.Send(&broker.Envelope{From: from, To: engine.MasterName, Payload: payload})
}

func (s *scriptedFleet) Publish(_ string, payload any) int {
	if req, ok := payload.(engine.MsgBidRequest); ok {
		for i, w := range s.workers {
			s.reply(w, engine.MsgBid{JobID: req.Job.ID, Worker: w,
				Estimate: time.Duration(i+1) * time.Millisecond, JobCost: time.Millisecond})
		}
	}
	return len(s.workers)
}

func (s *scriptedFleet) Send(to string, payload any) bool {
	if a, ok := payload.(engine.MsgAssign); ok {
		s.reply(to, engine.MsgJobDone{JobID: a.Job.ID, Worker: to})
	}
	return true
}

// probeMaster returns the nanoseconds a real cluster master with the
// bidding allocator spends per job against a scripted fleet of w
// workers, in sessions of 50 jobs.
func probeMaster(p params, w int) float64 {
	const perSession = 50
	pol, _ := core.PolicyByName("bidding")
	wf := workload.Workflow()
	perSess := timeOp(p.ProbeTime, timed(func(n int) {
		clk := vclock.NewSim()
		port := &scriptedFleet{inbox: clk.NewMailbox("inbox:master")}
		for i := 0; i < w; i++ {
			name := fmt.Sprintf("w%04d", i)
			port.workers = append(port.workers, name)
			port.reply(name, engine.MsgRegister{Worker: name})
		}
		m := engine.NewClusterMaster(clk, port, pol.NewAllocator(), w, rand.New(rand.NewSource(1)))
		// The master starts from inside the tracked driver: a simulated
		// clock must never see the master parked with no driver
		// registered yet, or it reports a deadlock.
		clk.Go(func() {
			clk.Go(m.Run)
			m.WaitReady()
			for s := 0; s < n; s++ {
				sess := m.OpenSession(fmt.Sprintf("p%d", s), wf)
				for j := 0; j < perSession; j++ {
					sess.Submit(&engine.Job{ID: fmt.Sprintf("p%d-%d", s, j), Stream: workload.Stream, DataKey: "k", DataSizeMB: 4})
				}
				sess.Close()
				if rep := sess.Wait(); rep == nil || rep.JobsCompleted != perSession {
					panic("master probe: session did not complete")
				}
			}
			m.Shutdown()
		})
		clk.Wait()
	}))
	return perSess / perSession
}

// scriptedMaster is the Port of a worker under test: it acknowledges
// the registration, assigns the worker every fleetShare-th job it bids
// on, and stops it once everything assigned has finished — one
// worker's share of the traffic of a fleet of fleetShare.
type scriptedMaster struct {
	inbox vclock.Mailbox
	jobs  map[string]*engine.Job

	mu       sync.Mutex
	bids     int
	expected int // bids to wait for
	assigned int
	done     int
}

const fleetShare = 8

func (s *scriptedMaster) Name() string          { return "w000" }
func (s *scriptedMaster) Inbox() vclock.Mailbox { return s.inbox }
func (s *scriptedMaster) Subscribe(string)      {}
func (s *scriptedMaster) Publish(string, any) int {
	return 0
}

func (s *scriptedMaster) deliver(payload any) {
	s.inbox.Send(&broker.Envelope{From: engine.MasterName, To: "w000", Payload: payload})
}

func (s *scriptedMaster) Send(_ string, payload any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch msg := payload.(type) {
	case engine.MsgRegister:
		s.deliver(engine.MsgRegisterAck{})
	case engine.MsgBid:
		s.bids++
		if s.bids%fleetShare == 0 {
			s.assigned++
			s.deliver(engine.MsgAssign{Job: s.jobs[msg.JobID], EstimatedCost: msg.JobCost})
		}
	case engine.MsgJobDone:
		s.done++
	}
	if s.bids == s.expected && s.done == s.assigned {
		s.deliver(engine.MsgStop{})
	}
	return true
}

// probeWorker returns the nanoseconds of worker-side work per job in a
// fleet of eight: a real worker with the bidding agent answers eight
// bid requests and executes one job, on the simulated clock so the
// modelled download and processing time costs nothing real.
func probeWorker(p params) float64 {
	pol, _ := core.PolicyByName("bidding")
	return timeOp(p.ProbeTime, timed(func(n int) {
		clk := vclock.NewSim()
		port := &scriptedMaster{inbox: clk.NewMailbox("inbox:w000"), jobs: make(map[string]*engine.Job), expected: n * fleetShare}
		for i := 0; i < n*fleetShare; i++ {
			job := &engine.Job{ID: fmt.Sprintf("p-%d", i), Stream: workload.Stream, DataKey: fmt.Sprintf("k%02d", i%64), DataSizeMB: 4}
			port.jobs[job.ID] = job
			port.deliver(engine.MsgBidRequest{Job: job})
		}
		st := engine.NewWorkerState(engine.WorkerSpec{
			Name: "w000", Net: netsim.Speed{BaseMBps: 200}, RW: netsim.Speed{BaseMBps: 800}, CacheMB: 1 << 20, Seed: 1,
		}, nil)
		w := engine.NewWorker(clk, port, workload.Workflow(), st, nil, pol.NewAgent(st))
		clk.Go(w.Start)
		clk.Wait()
		if w.JobsDone() != n {
			panic(fmt.Sprintf("worker probe: executed %d of %d jobs", w.JobsDone(), n))
		}
	}))
}

// probeLocindex times the data-location index. No workload leans on it
// yet — index-targeted placement is parked — so these are probes only.
func probeLocindex(res *result, p params) {
	const keys, fleet = 1024, 2000
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
	}
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("repo-%04d", i)
	}
	x := locindex.New(0)
	res.set("locindex.add_holder_ns", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			x.AddHolder(keyNames[i%keys], names[(i/keys)%fleet])
		}
	})))
	res.set("locindex.holders_ns", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			x.Holders(keyNames[i%keys], 4)
		}
	})))
	for i, w := range names {
		x.SetLoad(w, time.Duration(i%17)*time.Second)
	}
	rng := rand.New(rand.NewSource(1))
	res.set("locindex.sample_light_w2000_ns", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			x.SampleLight(rng, names, 2, nil)
		}
	})))
	var sink int
	res.set("locindex.shardof_ns", timeOp(p.ProbeTime, timed(func(n int) {
		for i := 0; i < n; i++ {
			sink += locindex.ShardOf(keyNames[i%keys], 4)
		}
	})))
	_ = sink
}
