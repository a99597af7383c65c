package engine

import (
	"crossflow/internal/gitsim"
	"crossflow/internal/netsim"
	"crossflow/internal/storage"
	"crossflow/internal/vclock"
	"time"
)

// TaskFunc is the body of a task: it consumes one job and returns the
// jobs to emit downstream and/or terminal results. All time-consuming
// work must go through the TaskContext so it is charged to the simulated
// clock and to the worker's data-load accounting.
type TaskFunc func(ctx *TaskContext, job *Job) ([]*Job, []any, error)

// TaskSpec declares one task of a workflow: the stream it consumes and
// the function it applies. Output streams are implicit in the jobs the
// function returns.
type TaskSpec struct {
	// Name identifies the task in reports.
	Name string
	// Input is the stream whose jobs this task consumes.
	Input string
	// Fn is the task body. If nil, DefaultTask is used.
	Fn TaskFunc
}

// DefaultTask is the generic data-bound task used by the synthetic
// workloads: fetch the job's data requirement (from cache or network)
// and process it at the worker's read/write speed.
func DefaultTask(ctx *TaskContext, job *Job) ([]*Job, []any, error) {
	ctx.RequireData(job.DataKey, job.DataSizeMB)
	ctx.Process(job.computeMB())
	return nil, []any{job.ID}, nil
}

// TaskContext gives a task body access to the facilities of the worker
// executing it.
type TaskContext struct {
	worker *Worker
	job    *Job
}

// Clock returns the engine clock.
func (c *TaskContext) Clock() vclock.Clock { return c.worker.clk }

// Cache returns the worker's local data cache.
func (c *TaskContext) Cache() *storage.Cache { return c.worker.cache }

// Link returns the worker's network/disk link.
func (c *TaskContext) Link() *netsim.Link { return c.worker.link }

// Hub returns the synthetic GitHub hub, if the cluster was built with
// one; nil otherwise.
func (c *TaskContext) Hub() *gitsim.Hub { return c.worker.hub }

// Job returns the job being executed.
func (c *TaskContext) Job() *Job { return c.job }

// RequireData ensures the named resource is local, downloading it on a
// cache miss. It returns true on a hit. The download time is charged to
// the clock and the transfer recorded in the worker's data load; the
// observed speed is reported to the worker's cost model so learning
// estimators can adapt.
func (c *TaskContext) RequireData(key string, sizeMB float64) bool {
	if key == "" {
		return true
	}
	w := c.worker
	if w.cache.Access(key) {
		return true
	}
	d := w.link.TransferTime(sizeMB, w.clk.Now())
	w.clk.Sleep(d)
	w.notifyEvictions(w.cache.Put(key, sizeMB))
	w.costs.ObserveTransfer(sizeMB, d)
	return false
}

// Process charges the time to read and process sizeMB of local data.
func (c *TaskContext) Process(sizeMB float64) {
	if sizeMB <= 0 {
		return
	}
	w := c.worker
	d := w.link.ProcessTime(sizeMB, w.clk.Now())
	w.clk.Sleep(d)
	w.costs.ObserveProcess(sizeMB, d)
}

// Emit sends a downstream job to the master immediately, while the task
// keeps running. Stream-processing tasks use it to publish results as
// they are discovered instead of batching them into their return value;
// each emitted job enters allocation right away.
func (c *TaskContext) Emit(job *Job) {
	if job.Session == "" {
		// Downstream jobs stay in their parent's workflow session.
		job.Session = c.job.Session
	}
	c.worker.ep.Send(MasterName, MsgEmit{Job: job, Worker: c.worker.name})
}

// SearchHub performs a repository search, charging the hub's API
// latency. It panics if the cluster has no hub: calling it from a
// workflow that was not built with one is a programming error.
func (c *TaskContext) SearchHub(f gitsim.Filter) []gitsim.Repo {
	w := c.worker
	if w.hub == nil {
		panic("engine: SearchHub called on a cluster built without a hub")
	}
	w.clk.Sleep(w.hub.APILatency)
	return w.hub.Search(f)
}

// CostModel estimates the two cost components of a job on a particular
// worker — the paper's estimateDataTransferTime and estimateProcessingTime
// (Listing 2, lines 4–5) — and optionally learns from observed
// operations (§6.4's historic-average speed tracking).
type CostModel interface {
	// TransferEstimate returns the believed time to obtain sizeMB of
	// data; hasData reports whether the data is already local (in which
	// case the estimate is typically zero).
	TransferEstimate(hasData bool, sizeMB float64) time.Duration
	// ProcessEstimate returns the believed time to process sizeMB.
	ProcessEstimate(sizeMB float64) time.Duration
	// ObserveTransfer reports an actual download for learning models.
	ObserveTransfer(sizeMB float64, took time.Duration)
	// ObserveProcess reports an actual processing run.
	ObserveProcess(sizeMB float64, took time.Duration)
}
