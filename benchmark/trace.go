package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/locindex"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
)

// span is one traced interval. Start and End are positions on the job
// timeline in nanoseconds since the clock's epoch, in real-equivalent
// units: clock time divided by the clock's compression on a TCP fleet,
// virtual time on the simulated clock. A call made on the simulated
// clock takes no virtual time, so its span starts at the virtual
// instant of the call and lasts the call's wall duration; stage spans
// are seconds long there, so the picture and the self-time arithmetic
// stay right. Parent indexes the span list, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// callStat aggregates every call of one name, sampled or not.
type callStat struct {
	Calls  int64
	BusyNs int64
}

// tracer collects what the decorators see. Aggregates cover every
// call; spans are kept only for a 1-in-sample set of jobs, so a job is
// either traced completely or not at all and the buffer stays small.
type tracer struct {
	scale  float64 // clock compression: clock ns per real ns
	sample int

	mu      sync.Mutex
	stats   map[string]*callStat
	calls   []span // sampled call spans; Parent unset until assemble
	dropped int
	// stages holds allocator-side stage instants for runs that expose no
	// Records (experiments.Grid); nil otherwise.
	stages map[string]*stageTimes
	// finishedBy counts completed jobs per worker name.
	finishedBy map[string]int
	// run tags jobs of back-to-back runs that reuse job IDs.
	run atomic.Int64
}

// stageTimes are one job's lifecycle instants on the job timeline.
type stageTimes struct {
	Due, Injected, Queued, Finished int64
	done                            bool
}

func newTracer(scale float64, p params) *tracer {
	return &tracer{
		scale:      scale,
		sample:     p.SpanSample,
		stats:      make(map[string]*callStat),
		calls:      make([]span, 0, p.SpanCap),
		finishedBy: make(map[string]int),
	}
}

// pos places a clock instant on the job timeline.
func (t *tracer) pos(at time.Time) int64 {
	return int64(float64(at.Sub(vclock.Epoch)) / t.scale)
}

func (t *tracer) sampled(job string) bool {
	if t.sample <= 1 {
		return true
	}
	return locindex.ShardOf(job, t.sample) == 0
}

// mark is the start of one traced call.
type mark struct {
	wall time.Time
	pos  int64
}

func (t *tracer) begin(clk vclock.Clock) mark {
	return mark{wall: time.Now(), pos: t.pos(clk.Now())}
}

// end records a call that started at m and returned now.
func (t *tracer) end(name, job string, m mark) { t.endAt(name, job, m, 0) }

// endAt is end for a call whose extent on the job timeline is known to
// reach endPos — a task body sleeping on the simulated clock — instead
// of start plus wall duration.
func (t *tracer) endAt(name, job string, m mark, endPos int64) {
	busy := int64(time.Since(m.wall))
	if endPos < m.pos+busy {
		endPos = m.pos + busy
	}
	keep := job != "" && t.sampled(job)
	t.mu.Lock()
	st := t.stats[name]
	if st == nil {
		st = &callStat{}
		t.stats[name] = st
	}
	st.Calls++
	st.BusyNs += busy
	if keep {
		if len(t.calls) < cap(t.calls) {
			t.calls = append(t.calls, span{Name: name, Job: job, Start: m.pos, End: endPos})
		} else {
			t.dropped++
		}
	}
	t.mu.Unlock()
}

// stat sums the aggregates of every name with the given prefix.
func (t *tracer) stat(prefix string) callStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum callStat
	for name, st := range t.stats {
		if strings.HasPrefix(name, prefix) {
			sum.Calls += st.Calls
			sum.BusyNs += st.BusyNs
		}
	}
	return sum
}

// jobTag prefixes a job ID with the current run, for harnesses that
// restart job numbering every run.
func (t *tracer) jobTag(id string) string {
	if t.stages == nil {
		return id
	}
	return "r" + strconv.FormatInt(t.run.Load(), 10) + "/" + id
}

// --- decorators ---------------------------------------------------------

// tracedPort decorates a master's (or shard's) TCP connection. It wraps
// the concrete client and forwards every optional method the engine
// type-asserts on a port and the client has — PublishAsync and
// SendMulti on the master side, Deregister on the worker side — so the
// engine takes the same code paths as without it. (The client has no
// Disconnect, so neither has the wrapper.)
type tracedPort struct {
	c   *transport.Client
	t   *tracer
	clk vclock.Clock
}

var _ engine.Port = (*tracedPort)(nil)

func (p *tracedPort) Name() string           { return p.c.Name() }
func (p *tracedPort) Inbox() vclock.Mailbox  { return p.c.Inbox() }
func (p *tracedPort) Subscribe(topic string) { p.c.Subscribe(topic) }
func (p *tracedPort) Deregister()            { p.c.Deregister() }

func (p *tracedPort) Send(to string, payload any) bool {
	m := p.t.begin(p.clk)
	ok := p.c.Send(to, payload)
	p.t.end("port.send", payloadJob(payload), m)
	return ok
}

// Publish is the synchronous publish. A master on a pipelining port
// uses it for control broadcasts only; a bid request through here means
// the decorator hid PublishAsync from the engine, so it gets its own
// name for the traced pass to check.
func (p *tracedPort) Publish(topic string, payload any) int {
	name := "port.control"
	if _, ok := payload.(engine.MsgBidRequest); ok {
		name = "port.publish_sync"
	}
	m := p.t.begin(p.clk)
	n := p.c.Publish(topic, payload)
	p.t.end(name, payloadJob(payload), m)
	return n
}

func (p *tracedPort) PublishAsync(topic string, payload any) func() int {
	m := p.t.begin(p.clk)
	wait := p.c.PublishAsync(topic, payload)
	p.t.end("port.publish", payloadJob(payload), m)
	return wait
}

func (p *tracedPort) SendMulti(targets []string, payload any) int {
	m := p.t.begin(p.clk)
	n := p.c.SendMulti(targets, payload)
	p.t.end("port.sendmulti", payloadJob(payload), m)
	return n
}

// payloadJob names the job a protocol message is about, "" if none.
func payloadJob(payload any) string {
	switch msg := payload.(type) {
	case engine.MsgBidRequest:
		return msg.Job.ID
	case engine.MsgAssign:
		return msg.Job.ID
	case engine.MsgOffer:
		return msg.Job.ID
	}
	return ""
}

// tracedPolicy wraps both halves of a policy under the same name, which
// is how the decorators reach runs that take a core.Policy
// (crossflow.Run, experiments.Grid).
func (t *tracer) tracedPolicy(pol core.Policy) core.Policy {
	return core.Policy{
		Name: pol.Name,
		NewAllocator: func() engine.Allocator {
			t.run.Add(1)
			return t.tracedAllocator(pol.NewAllocator())
		},
		NewAgent: func(st *engine.WorkerState) engine.Agent {
			return &tracedAgent{Agent: pol.NewAgent(st), t: t}
		},
	}
}

// contestSizer mirrors the engine's optional allocator hook.
type contestSizer interface {
	ContestSized(ctx engine.AllocCtx, jobID string, reached int)
}

// tracedAllocator returns a decorator with ContestSized exactly when the
// wrapped allocator has it: the master pipelines its publishes only for
// allocators with that hook, so adding or dropping it would change the
// path under test.
func (t *tracer) tracedAllocator(a engine.Allocator) engine.Allocator {
	base := tracedAlloc{a: a, t: t}
	if cs, ok := a.(contestSizer); ok {
		return &tracedSizedAlloc{tracedAlloc: base, cs: cs}
	}
	return &base
}

type tracedAlloc struct {
	a engine.Allocator
	t *tracer
}

type tracedSizedAlloc struct {
	tracedAlloc
	cs contestSizer
}

func (a *tracedSizedAlloc) ContestSized(ctx engine.AllocCtx, jobID string, reached int) {
	m := a.t.begin(ctx.Clock())
	a.cs.ContestSized(a.ctx(ctx), jobID, reached)
	a.t.end("alloc.ContestSized", a.t.jobTag(jobID), m)
}

// ctx decorates the allocator's context when stage instants must come
// from the allocator side; otherwise the context passes through.
func (a *tracedAlloc) ctx(ctx engine.AllocCtx) engine.AllocCtx {
	if a.t.stages == nil {
		return ctx
	}
	return stageCtx{AllocCtx: ctx, t: a.t}
}

func (a *tracedAlloc) Name() string { return a.a.Name() }

func (a *tracedAlloc) JobReady(ctx engine.AllocCtx, job *engine.Job) {
	tag := a.t.jobTag(job.ID)
	m := a.t.begin(ctx.Clock())
	a.t.stage(tag, func(s *stageTimes) { s.Due, s.Injected = m.pos, m.pos })
	a.a.JobReady(a.ctx(ctx), job)
	a.t.end("alloc.JobReady", tag, m)
}

func (a *tracedAlloc) BidReceived(ctx engine.AllocCtx, bid engine.MsgBid) {
	m := a.t.begin(ctx.Clock())
	a.a.BidReceived(a.ctx(ctx), bid)
	a.t.end("alloc.BidReceived", a.t.jobTag(bid.JobID), m)
}

func (a *tracedAlloc) BidWindowExpired(ctx engine.AllocCtx, jobID string) {
	m := a.t.begin(ctx.Clock())
	a.a.BidWindowExpired(a.ctx(ctx), jobID)
	a.t.end("alloc.BidWindowExpired", a.t.jobTag(jobID), m)
}

func (a *tracedAlloc) OfferRejected(ctx engine.AllocCtx, jobID, worker string) {
	m := a.t.begin(ctx.Clock())
	a.a.OfferRejected(a.ctx(ctx), jobID, worker)
	a.t.end("alloc.OfferRejected", a.t.jobTag(jobID), m)
}

func (a *tracedAlloc) WorkerIdle(ctx engine.AllocCtx, req engine.MsgRequestJob) {
	m := a.t.begin(ctx.Clock())
	a.a.WorkerIdle(a.ctx(ctx), req)
	a.t.end("alloc.WorkerIdle", "", m)
}

func (a *tracedAlloc) JobFinished(ctx engine.AllocCtx, jobID, worker string) {
	tag := a.t.jobTag(jobID)
	m := a.t.begin(ctx.Clock())
	a.t.stage(tag, func(s *stageTimes) { s.Finished, s.done = m.pos, true })
	a.a.JobFinished(a.ctx(ctx), jobID, worker)
	a.t.end("alloc.JobFinished", tag, m)
}

func (a *tracedAlloc) WorkerLost(ctx engine.AllocCtx, worker string, inflight []*engine.Job) {
	m := a.t.begin(ctx.Clock())
	a.a.WorkerLost(a.ctx(ctx), worker, inflight)
	a.t.end("alloc.WorkerLost", "", m)
}

func (a *tracedAlloc) WorkerJoined(ctx engine.AllocCtx, worker string) {
	m := a.t.begin(ctx.Clock())
	a.a.WorkerJoined(a.ctx(ctx), worker)
	a.t.end("alloc.WorkerJoined", "", m)
}

func (a *tracedAlloc) CacheEvicted(ctx engine.AllocCtx, worker string, keys []string) {
	m := a.t.begin(ctx.Clock())
	a.a.CacheEvicted(a.ctx(ctx), worker, keys)
	a.t.end("alloc.CacheEvicted", "", m)
}

func (a *tracedAlloc) Tick(ctx engine.AllocCtx, token string) {
	m := a.t.begin(ctx.Clock())
	a.a.Tick(a.ctx(ctx), token)
	a.t.end("alloc.Tick", "", m)
}

// stage updates one job's allocator-side stage instants; a no-op unless
// the tracer collects them.
func (t *tracer) stage(tag string, f func(*stageTimes)) {
	if t.stages == nil {
		return
	}
	t.mu.Lock()
	s := t.stages[tag]
	if s == nil {
		s = &stageTimes{}
		t.stages[tag] = s
	}
	f(s)
	t.mu.Unlock()
}

// stageCtx stamps the instant the allocator hands a job to a worker —
// the one stage boundary no Allocator event marks. It forwards
// CountFallback, the optional method policies type-assert on their
// context.
type stageCtx struct {
	engine.AllocCtx
	t *tracer
}

func (c stageCtx) Assign(jobID, worker string, est time.Duration) {
	at := c.t.pos(c.Clock().Now())
	c.t.stage(c.t.jobTag(jobID), func(s *stageTimes) { s.Queued = at })
	c.AllocCtx.Assign(jobID, worker, est)
}

func (c stageCtx) Offer(jobID, worker string) {
	at := c.t.pos(c.Clock().Now())
	c.t.stage(c.t.jobTag(jobID), func(s *stageTimes) { s.Queued = at })
	c.AllocCtx.Offer(jobID, worker)
}

func (c stageCtx) CountFallback() {
	if m, ok := c.AllocCtx.(interface{ CountFallback() }); ok {
		m.CountFallback()
	}
}

// tracedAgent decorates a worker-side agent. The Agent interface has no
// optional methods.
type tracedAgent struct {
	engine.Agent
	t *tracer
}

func (a *tracedAgent) OnBidRequest(w *engine.Worker, job *engine.Job) {
	m := a.t.begin(w.Clock())
	a.Agent.OnBidRequest(w, job)
	a.t.end("agent.OnBidRequest", a.t.jobTag(job.ID), m)
}

func (a *tracedAgent) OnOffer(w *engine.Worker, job *engine.Job) {
	m := a.t.begin(w.Clock())
	a.Agent.OnOffer(w, job)
	a.t.end("agent.OnOffer", a.t.jobTag(job.ID), m)
}

func (a *tracedAgent) OnNoWork(w *engine.Worker, backoff time.Duration) {
	m := a.t.begin(w.Clock())
	a.Agent.OnNoWork(w, backoff)
	a.t.end("agent.OnNoWork", "", m)
}

func (a *tracedAgent) OnJobFinished(w *engine.Worker, job *engine.Job) {
	m := a.t.begin(w.Clock())
	a.Agent.OnJobFinished(w, job)
	a.t.end("agent.OnJobFinished", a.t.jobTag(job.ID), m)
	a.t.mu.Lock()
	a.t.finishedBy[w.Name()]++
	a.t.mu.Unlock()
}

// tracedTask decorates a task body. Its span covers the clock sleeps of
// the simulated download and processing, so it is waiting, not CPU.
func (t *tracer) tracedTask(fn engine.TaskFunc) engine.TaskFunc {
	return func(ctx *engine.TaskContext, job *engine.Job) ([]*engine.Job, []any, error) {
		m := t.begin(ctx.Clock())
		jobs, results, err := fn(ctx, job)
		t.endAt("task.body", t.jobTag(job.ID), m, t.pos(ctx.Clock().Now()))
		return jobs, results, err
	}
}

// --- assembling the span tree ------------------------------------------

// stageNames are the children of a job's root span, in order.
var stageNames = [3]string{"ingest", "allocate", "run"}

// assemble builds the span tree of every sampled job with known stage
// instants: root "job" (due to finished), its three stages, and each
// call span under the stage whose interval contains its start (under
// the root when none does).
func (t *tracer) assemble(stages map[string]*stageTimes) []span {
	t.mu.Lock()
	calls := append([]span(nil), t.calls...)
	t.mu.Unlock()
	byJob := make(map[string][]span)
	for _, c := range calls {
		byJob[c.Job] = append(byJob[c.Job], c)
	}
	jobs := make([]string, 0, len(stages))
	for job := range stages {
		if t.sampled(job) {
			jobs = append(jobs, job)
		}
	}
	sort.Strings(jobs)
	var out []span
	for _, job := range jobs {
		s := stages[job]
		if !s.done {
			continue
		}
		root := len(out)
		out = append(out, span{Name: "job", Job: job, Start: s.Due, End: s.Finished, Parent: -1})
		bounds := [4]int64{s.Due, s.Injected, s.Queued, s.Finished}
		for i, name := range stageNames {
			out = append(out, span{Name: name, Job: job, Start: bounds[i], End: bounds[i+1], Parent: root})
		}
		for _, c := range byJob[job] {
			c.Parent = root
			for i := range stageNames {
				last := i == len(stageNames)-1
				if c.Start >= bounds[i] && (c.Start < bounds[i+1] || (last && c.Start <= bounds[i+1])) {
					c.Parent = root + 1 + i
					break
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, edge int64
	edge = s.Start
	for _, v := range ivs {
		if v.a > edge {
			edge = v.a
		}
		if v.b > edge {
			covered += v.b - edge
			edge = v.b
		}
	}
	return s.End - s.Start - covered
}

// selfTimes averages self time per span name over the tree, in
// nanoseconds per job that has the span.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := make(map[string]float64)
	jobs := 0
	for i, s := range spans {
		if s.Parent < 0 {
			jobs++
		}
		sum[s.Name] += float64(selfTime(s, children[i]))
	}
	for name := range sum {
		sum[name] /= float64(max(jobs, 1))
	}
	return sum
}

// writeSpans stores the span tree where a later reader finds it.
func writeSpans(dir, workload string, spans []span, dropped int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, dropped, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
