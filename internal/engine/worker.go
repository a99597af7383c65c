package engine

import (
	"sync"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/gitsim"
	"crossflow/internal/netsim"
	"crossflow/internal/storage"
	"crossflow/internal/vclock"
)

// Agent is the worker-side scheduling policy: the "opinion" of an
// opinionated node. The worker's communications goroutine translates
// protocol messages into these calls; implementations answer through the
// worker's helper methods (SubmitBid, AcceptOffer, RejectOffer,
// RequestWork). SubmitBid, AcceptOffer and RejectOffer answer the
// message being handled, so call them from OnBidRequest and OnOffer.
// Calls happen on the worker's comms goroutine, except OnJobFinished,
// which the executor goroutine makes: an agent whose state both touch
// must guard it.
type Agent interface {
	// Name identifies the policy in reports.
	Name() string
	// Start is called once, after the worker registers with the master.
	// Pull-based agents request their first job here.
	Start(w *Worker)
	// OnBidRequest is called when the master opens a contest.
	OnBidRequest(w *Worker, job *Job)
	// OnOffer is called when the master proposes a job for local
	// evaluation against the worker's acceptance criteria.
	OnOffer(w *Worker, job *Job)
	// OnNoWork is called when a pull for work came back empty; backoff
	// is the master's suggested wait (zero = agent's default).
	OnNoWork(w *Worker, backoff time.Duration)
	// OnJobFinished is called on the executor goroutine after it
	// completed a job and sent the completion, before the master
	// acknowledged it. Pull-based agents request the next job here.
	OnJobFinished(w *Worker, job *Job)
}

// Worker is one node: a communications actor plus a FIFO executor, a
// local data cache, a network/disk link, and a cost model for estimates.
type Worker struct {
	name      string
	clk       vclock.Clock
	ep        Port
	wf        *Workflow
	cache     *storage.Cache
	link      *netsim.Link
	hub       *gitsim.Hub
	costs     CostModel
	agent     Agent
	bidDelay  time.Duration
	heartbeat time.Duration
	// labeled is non-nil only under a model-checking chooser (see
	// vclock.ActiveLabeled); the worker's own timers then carry labels.
	labeled *vclock.Sim

	execQ vclock.Mailbox // execEntry, FIFO local queue

	// wfResolve, when set, maps a job's Session to its workflow for
	// multi-workflow fleets; jobs it cannot resolve run under wf.
	wfResolve func(session string) *Workflow

	mu           sync.Mutex
	queuedTotal  time.Duration  //xflow:owned mu=mu (believed cost of the entries in execQ)
	pendingData  map[string]int //xflow:owned mu=mu (data keys unfinished queued jobs will fetch)
	running      execEntry      //xflow:owned mu=mu (the executing entry; zero when idle)
	currentStart time.Time      //xflow:owned mu=mu
	jobsDone     int            //xflow:owned mu=mu
	busy         time.Duration  //xflow:owned mu=mu
	killed       bool           //xflow:owned mu=mu
	stopped      bool           //xflow:owned mu=mu
	draining     bool           //xflow:owned mu=mu
	registered   bool           //xflow:owned mu=mu
	evictNotify  bool           //xflow:owned mu=mu
	// pullArmed coalesces scheduled pull retries: on a sharded control
	// plane one pull fans out to every shard, and each shard with
	// nothing to offer replies NoWork — without coalescing, every reply
	// would re-arm its own retry timer and the pull rate would multiply
	// by the shard count each round. On a single master at most one
	// retry is ever in flight, so coalescing changes nothing there.
	pullArmed bool //xflow:owned mu=mu

	// replyTo is the sender of the message the comms loop is handling,
	// empty between messages. The agent helpers answer it: on a sharded
	// plane that is the contest shard that asked, so replies skip the
	// frontend.
	replyTo string //xflow:owned comms-loop
}

// execEntry is one job in the executor's queue with the believed cost
// it was enqueued with and the endpoint that assigned or offered it,
// where its completion goes.
type execEntry struct {
	job     *Job
	est     time.Duration
	replyTo string
}

// WorkerSpec configures one worker node.
type WorkerSpec struct {
	// Name is the broker endpoint name; must be unique in the cluster.
	Name string
	// Net and RW are the node's network and read/write speed channels.
	Net netsim.Speed
	RW  netsim.Speed
	// CacheMB is the local storage capacity (<= 0 = unbounded).
	CacheMB float64
	// Link is the one-way broker link latency.
	Link time.Duration
	// BidDelay models the time the bidding thread takes to compute an
	// estimate before submitting.
	BidDelay time.Duration
	// Heartbeat is the idle re-pull interval for pull-based agents and
	// the registration retry interval. Zero defaults to 500ms; negative
	// disables the retry timers entirely (the model checker sets this so
	// an idle worker cannot generate an infinite timer chain — safe only
	// for push policies, and in lossless single-shot runs where the
	// first registration always lands).
	Heartbeat time.Duration
	// Seed seeds the node's noise stream.
	Seed int64
}

// WorkerState is the part of a worker that survives across workflow
// runs: its cache contents, link accounting, and learned cost model.
// The experiment harness reuses one WorkerState per node across the
// paper's three iterations so later runs see warm caches.
type WorkerState struct {
	Spec  WorkerSpec
	Cache *storage.Cache
	Link  *netsim.Link
	Costs CostModel
}

// NewWorkerState builds the persistent state for a spec. costs may be
// nil, in which case StaticCosts over the nominal speeds is used.
func NewWorkerState(spec WorkerSpec, costs CostModel) *WorkerState {
	if spec.Heartbeat == 0 {
		spec.Heartbeat = 500 * time.Millisecond
	}
	if costs == nil {
		costs = StaticCosts{NetMBps: spec.Net.BaseMBps, RWMBps: spec.RW.BaseMBps}
	}
	return &WorkerState{
		Spec:  spec,
		Cache: storage.New(spec.CacheMB),
		Link:  netsim.NewLink(spec.Net, spec.RW, spec.Seed),
		Costs: costs,
	}
}

// StaticCosts is the perfect-knowledge cost model: it prices a
// transfer and a processing step at fixed nominal speeds, exactly as a
// noise-free link times them (netsim.DurationFor), and ignores
// observations. It is a worker's default model.
type StaticCosts struct {
	NetMBps float64
	RWMBps  float64
}

// TransferEstimate implements CostModel: free when the data is local.
func (s StaticCosts) TransferEstimate(hasData bool, sizeMB float64) time.Duration {
	if hasData {
		return 0
	}
	return netsim.DurationFor(sizeMB, s.NetMBps)
}

// ProcessEstimate implements CostModel.
func (s StaticCosts) ProcessEstimate(sizeMB float64) time.Duration {
	return netsim.DurationFor(sizeMB, s.RWMBps)
}

// ObserveTransfer implements CostModel as a no-op.
func (StaticCosts) ObserveTransfer(float64, time.Duration) {}

// ObserveProcess implements CostModel as a no-op.
func (StaticCosts) ObserveProcess(float64, time.Duration) {}

// NewWorker wires a worker over existing persistent state and an
// arbitrary Port — in-process broker endpoint or TCP client alike. hub
// may be nil when the workflow's tasks never call SearchHub.
func NewWorker(clk vclock.Clock, ep Port, wf *Workflow, st *WorkerState,
	hub *gitsim.Hub, agent Agent) *Worker {
	return &Worker{
		name:        st.Spec.Name,
		clk:         clk,
		labeled:     vclock.ActiveLabeled(clk),
		ep:          ep,
		wf:          wf,
		cache:       st.Cache,
		link:        st.Link,
		hub:         hub,
		costs:       st.Costs,
		agent:       agent,
		bidDelay:    st.Spec.BidDelay,
		heartbeat:   st.Spec.Heartbeat,
		execQ:       clk.NewMailbox("exec:" + st.Spec.Name),
		pendingData: make(map[string]int),
	}
}

// SetWorkflowResolver installs a session→workflow lookup for fleets
// that host several workflows at once (see Cluster). Set it before
// Start. Jobs whose Session the resolver knows run under the returned
// workflow; all others fall back to the worker's default workflow.
func (w *Worker) SetWorkflowResolver(f func(session string) *Workflow) { w.wfResolve = f }

// Registered reports whether the master has acknowledged this worker's
// registration — useful when orchestrating mid-run joins.
func (w *Worker) Registered() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.registered
}

// Start registers with the master and launches the comms and executor
// goroutines. It returns immediately; the goroutines run until a stop
// message arrives or the port's inbox closes. The policy agent starts
// once the master acknowledges the registration, so its first pull
// cannot be lost to start-up ordering.
func (w *Worker) Start() {
	w.ep.Subscribe(TopicBids)
	w.ep.Subscribe(TopicControl)
	w.register()
	w.clk.Go(w.commsLoop)
	w.clk.Go(w.execLoop)
}

// register announces the worker and keeps re-announcing on the
// heartbeat until acknowledged — the master may not be reachable yet in
// a distributed deployment.
func (w *Worker) register() {
	w.mu.Lock()
	stop := w.killed || w.stopped || w.registered
	w.mu.Unlock()
	if stop {
		return
	}
	w.ep.Send(MasterName, MsgRegister{Worker: w.name})
	if w.heartbeat > 0 {
		w.selfAfter(w.heartbeat, " register-retry", "", msgRegisterRetry{})
	}
}

// selfAfter delivers payload to the worker's own inbox after d: its
// timers are messages to the comms loop, so a timer firing costs what
// any delivery costs and a dead worker's closed inbox drops it. The
// event is labeled when a model-checking chooser is active; what the
// comms loop does with it sends messages, so it conflicts with
// everything (empty Node). The label's detail is the worker's name, what
// and id, joined only where a chooser reads it.
func (w *Worker) selfAfter(d time.Duration, what, id string, payload any) {
	env := &broker.Envelope{From: w.name, To: w.name, Payload: payload}
	if w.labeled != nil {
		w.labeled.SendAfterLabeled(d, vclock.EventLabel{Detail: w.name + what + id}, w.ep.Inbox(), env)
		return
	}
	w.clk.SendAfter(d, w.ep.Inbox(), env)
}

//xflow:goroutine comms-loop
func (w *Worker) commsLoop() {
	for {
		v, ok := w.ep.Inbox().Recv()
		if !ok {
			w.shutdown()
			return
		}
		env, ok := v.(*broker.Envelope)
		if !ok {
			continue
		}
		w.replyTo = env.From
		//xflow:dispatch worker
		switch msg := env.Payload.(type) {
		case MsgRegisterAck:
			w.mu.Lock()
			first := !w.registered
			w.registered = true
			w.mu.Unlock()
			if first {
				w.agent.Start(w)
			}
		case MsgAssign:
			est := msg.EstimatedCost
			if est <= 0 {
				est, _ = w.EstimateJob(msg.Job)
			}
			w.enqueue(msg.Job, est)
		case MsgOffer:
			w.agent.OnOffer(w, msg.Job)
		case MsgBidRequest:
			w.agent.OnBidRequest(w, msg.Job)
		case MsgNoWork:
			w.agent.OnNoWork(w, msg.Backoff)
		case MsgDrain:
			w.beginDrain()
		case msgRegisterRetry:
			w.register()
		case msgBidReady:
			w.ep.Send(msg.to, msg.bid)
		case msgPullRetry:
			w.mu.Lock()
			w.pullArmed = false
			w.mu.Unlock()
			w.RequestWork(msg.strikes)
		case MsgStop:
			w.shutdown()
			return
		}
		w.replyTo = ""
	}
}

// reply is the endpoint the agent helpers answer: the sender of the
// message being handled, MasterName outside a handler.
func (w *Worker) reply() string {
	if w.replyTo == "" {
		return MasterName
	}
	return w.replyTo
}

// drainSentinel marks the end of a draining worker's queue: everything
// enqueued before it still executes, then the worker says goodbye.
type drainSentinel struct{}

// beginDrain starts a graceful exit: the worker keeps executing (and
// even accepting assignments that were already in flight), but a
// sentinel in the exec queue marks where the drain was requested. When
// the executor reaches it, the queue is empty and the worker leaves.
func (w *Worker) beginDrain() {
	w.mu.Lock()
	if w.draining || w.killed || w.stopped {
		w.mu.Unlock()
		return
	}
	w.draining = true
	w.mu.Unlock()
	w.execQ.Send(drainSentinel{})
}

// finishDrain runs on the executor goroutine when the drain sentinel
// surfaces: every job queued before the drain has completed (and its
// MsgJobDone precedes the MsgLeave on the same FIFO route, so the master
// sees the completions first). The worker deregisters so its name is
// free for a future joiner.
func (w *Worker) finishDrain() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.ep.Send(MasterName, MsgLeave{Worker: w.name})
	if d, ok := w.ep.(deregisterer); ok {
		d.Deregister()
	}
	w.ep.Inbox().Close()
	w.execQ.Close()
}

// shutdown marks the worker stopped and closes the executor queue.
func (w *Worker) shutdown() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	w.execQ.Close()
}

func (w *Worker) execLoop() {
	for {
		v, ok := w.execQ.Recv()
		if !ok {
			return
		}
		if _, drain := v.(drainSentinel); drain {
			w.finishDrain()
			return
		}
		w.execute(v.(execEntry))
	}
}

// workflowFor resolves the workflow a job runs under: the session
// resolver when it knows the job's session, the worker's default
// workflow otherwise.
func (w *Worker) workflowFor(job *Job) *Workflow {
	if w.wfResolve != nil {
		if wf := w.wfResolve(job.Session); wf != nil {
			return wf
		}
	}
	return w.wf
}

// begin makes e the running entry: its believed cost leaves the queued
// total and decays from now on (see QueuedCost).
func (w *Worker) begin(e execEntry) {
	w.mu.Lock()
	w.running = e
	w.currentStart = w.clk.Now()
	w.queuedTotal -= e.est
	w.mu.Unlock()
}

func (w *Worker) execute(e execEntry) {
	w.begin(e)
	job := e.job

	var task *TaskSpec
	var ok bool
	if wf := w.workflowFor(job); wf != nil {
		task, ok = wf.TaskFor(job.Stream)
	}
	done := MsgJobDone{JobID: job.ID, Worker: w.name}
	if !ok {
		done.Failed = true
		done.Error = "no task consumes stream " + job.Stream
	} else {
		ctx := &TaskContext{worker: w, job: job}
		newJobs, results, err := task.Fn(ctx, job)
		done.NewJobs = newJobs
		done.Results = results
		if err != nil {
			done.Failed = true
			done.Error = err.Error()
		}
	}

	w.mu.Lock()
	w.running = execEntry{}
	w.jobsDone++
	w.busy += w.clk.Since(w.currentStart)
	if job.DataKey != "" {
		// The data is now cached (or the job is gone); stop counting it
		// as a pending acquisition.
		if w.pendingData[job.DataKey]--; w.pendingData[job.DataKey] <= 0 {
			delete(w.pendingData, job.DataKey)
		}
	}
	w.mu.Unlock()

	w.ep.Send(e.replyTo, done)
	w.agent.OnJobFinished(w, job)
}

// enqueue accepts a job into the local FIFO queue with the given
// believed cost; its completion answers the message being handled.
func (w *Worker) enqueue(job *Job, est time.Duration) {
	w.mu.Lock()
	w.queuedTotal += est
	if job.DataKey != "" {
		w.pendingData[job.DataKey]++
	}
	w.mu.Unlock()
	w.execQ.Send(execEntry{job: job, est: est, replyTo: w.reply()})
}

// kill simulates a crash: the node drops off the broker and stops
// accepting work. A job already executing runs to completion but its
// results are lost in the network.
func (w *Worker) kill() {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	w.mu.Unlock()
	if d, ok := w.ep.(disconnecter); ok {
		d.Disconnect()
	}
	w.ep.Inbox().Close()
}

// --- Agent-facing API ----------------------------------------------------

// Name returns the worker's node name.
func (w *Worker) Name() string { return w.name }

// Clock returns the engine clock.
func (w *Worker) Clock() vclock.Clock { return w.clk }

// Cache returns the worker's local data cache.
func (w *Worker) Cache() *storage.Cache { return w.cache }

// Costs returns the worker's cost model.
func (w *Worker) Costs() CostModel { return w.costs }

// Heartbeat returns the idle re-pull interval.
func (w *Worker) Heartbeat() time.Duration { return w.heartbeat }

// QueuedCost returns the believed time to finish all unfinished local
// work — Listing 2, line 2 (totalCostOfUnfinishedJobs), including the
// remaining believed cost of the job currently executing.
func (w *Worker) QueuedCost() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Maintained incrementally on enqueue/dequeue: bid estimation calls
	// this for every contest, so it must not scan the queue.
	total := w.queuedTotal
	if w.running.job != nil {
		remaining := w.running.est - w.clk.Since(w.currentStart)
		if remaining > 0 {
			total += remaining
		}
	}
	return total
}

// EstimateJob returns the believed data-transfer plus processing cost of
// job on this worker (Listing 2, lines 4–5), and whether the job's data
// is local. Data counts as local if it is cached or if an unfinished
// queued job will already fetch it — the §5 estimate covers "the time to
// download resources and execute all unfinished jobs", so a committed
// download is never priced twice. Both results come from one locality
// read, so a bid's Local flag always agrees with the estimate it
// carries. A job's CostHint, when set, replaces the speed-derived
// processing estimate.
func (w *Worker) EstimateJob(job *Job) (cost time.Duration, local bool) {
	local = job.DataKey == "" || w.cache.Contains(job.DataKey) || w.dataPending(job.DataKey)
	transfer := w.costs.TransferEstimate(local, job.DataSizeMB)
	if job.CostHint > 0 {
		return transfer + job.CostHint, local
	}
	return transfer + w.costs.ProcessEstimate(job.computeMB()), local
}

// dataPending reports whether an unfinished queued job will fetch key.
func (w *Worker) dataPending(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pendingData[key] > 0
}

// EnableEvictionNotices makes the worker report cache evictions to the
// master (MsgCacheEvict) so a master-side data-location index stays
// fresh. Agents of index-driven policies call it from Start; it is off
// by default so other policies pay no extra traffic.
func (w *Worker) EnableEvictionNotices() {
	w.mu.Lock()
	w.evictNotify = true
	w.mu.Unlock()
}

// notifyEvictions forwards cache-displaced keys to the master when the
// agent asked for eviction notices.
func (w *Worker) notifyEvictions(keys []string) {
	if len(keys) == 0 {
		return
	}
	w.mu.Lock()
	notify := w.evictNotify && !w.killed && !w.stopped
	w.mu.Unlock()
	if notify {
		w.ep.Send(MasterName, MsgCacheEvict{Worker: w.name, Keys: keys})
	}
}

// SubmitBid sends a bid for job after the worker's bid-computation
// delay, modelling the separate bidding thread of §5. jobCost is the
// job-only component of the estimate (see MsgBid.JobCost); local flags a
// data-local bid (see MsgBid.Local).
//
//xflow:goroutine comms-loop
func (w *Worker) SubmitBid(jobID string, estimate, jobCost time.Duration, local bool) {
	bid := MsgBid{JobID: jobID, Worker: w.name, Estimate: estimate, JobCost: jobCost, Local: local}
	if w.bidDelay <= 0 {
		w.ep.Send(w.reply(), bid)
		return
	}
	w.selfAfter(w.bidDelay, " bid ", jobID, msgBidReady{bid: bid, to: w.reply()})
}

// AcceptOffer takes an offered job into the local queue and notifies the
// master.
//
//xflow:goroutine comms-loop
func (w *Worker) AcceptOffer(job *Job) {
	est, _ := w.EstimateJob(job)
	w.enqueue(job, est)
	w.ep.Send(w.reply(), MsgAccept{JobID: job.ID, Worker: w.name})
}

// RejectOffer returns an offered job to the master.
//
//xflow:goroutine comms-loop
func (w *Worker) RejectOffer(job *Job) {
	w.ep.Send(w.reply(), MsgReject{JobID: job.ID, Worker: w.name})
}

// RequestWork pulls for a job, reporting the worker's cached keys and
// its consecutive-empty-pull strike count.
func (w *Worker) RequestWork(strikes int) {
	w.ep.Send(MasterName, MsgRequestJob{
		Worker:     w.name,
		CachedKeys: w.cache.Keys(),
		Strikes:    strikes,
	})
}

// RequestWorkAfter schedules RequestWork after d (the worker's
// heartbeat when d is zero). A negative heartbeat disables the retry
// entirely — see WorkerSpec.Heartbeat.
func (w *Worker) RequestWorkAfter(d time.Duration, strikes int) {
	if d <= 0 {
		d = w.heartbeat
	}
	if d <= 0 {
		return
	}
	w.mu.Lock()
	armed := w.pullArmed
	w.pullArmed = true
	w.mu.Unlock()
	if armed {
		return // a retry is already scheduled; don't multiply the pull rate
	}
	w.selfAfter(d, " pull", "", msgPullRetry{strikes: strikes})
}

// JobsDone returns how many jobs this worker has completed.
func (w *Worker) JobsDone() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.jobsDone
}

// BusyTime returns the cumulative clock time this worker spent
// executing jobs, the basis of the utilization metric.
func (w *Worker) BusyTime() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.busy
}
