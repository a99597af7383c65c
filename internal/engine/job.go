// Package engine implements the Crossflow-like distributed
// stream-processing substrate the paper builds on: typed jobs flowing
// through named streams between tasks, a master that mediates
// allocation, and worker nodes that execute tasks over locally cached
// data. Allocation policy is pluggable — the master delegates to an
// Allocator and each worker to an Agent, so the paper's Bidding
// scheduler, the Baseline opinionated scheduler, and the centralized
// comparators are all strategies over one engine.
package engine

import (
	"fmt"
	"time"

	"crossflow/internal/vclock"
)

// JobStatus tracks a job through its lifecycle, mirroring the status
// fields of the paper's Listings 1 and 2.
type JobStatus int

const (
	// StatusPending means the job awaits allocation (bidding open, or in
	// the pull queue).
	StatusPending JobStatus = iota
	// StatusOffered means the job is held by a worker deciding whether
	// to accept it (Baseline pull model).
	StatusOffered
	// StatusQueued means the job has been allocated and sits in a
	// worker's FIFO queue.
	StatusQueued
	// StatusFinished means the job completed.
	StatusFinished
)

// String returns the lower-case status name.
func (s JobStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusOffered:
		return "offered"
	case StatusQueued:
		return "queued"
	case StatusFinished:
		return "finished"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Job is one unit of work: "a piece of data required to process a task".
// The Stream field names the channel it travels on and thereby the task
// that consumes it.
type Job struct {
	// ID uniquely identifies the job. The master assigns sequential IDs
	// to jobs injected without one.
	ID string
	// Stream is the channel the job belongs to; the task whose input is
	// this stream consumes the job. A job on a stream without a consumer
	// is collected as a workflow result.
	Stream string
	// Payload carries application data (e.g. the library/repository
	// pair in the MSR pipeline).
	Payload any
	// DataKey names the data resource the job needs locally (e.g. a
	// repository clone). Empty means the job needs no bulk data.
	DataKey string
	// DataSizeMB is the size of that resource.
	DataSizeMB float64
	// ComputeMB is the amount of data the job must read/process. Zero
	// means "same as DataSizeMB".
	ComputeMB float64
	// CostHint, when positive, overrides the processing-time component
	// of worker estimates for this job. The paper leaves cost formulas
	// to the application developer (§5); data-bound jobs derive costs
	// from sizes and speeds, while jobs whose duration is not
	// data-bound (e.g. a searcher streaming API results) declare it
	// here so bids stay honest.
	CostHint time.Duration
	// Session names the workflow session the job belongs to (see
	// Cluster); empty in the empty-id session, which is Run's. The
	// master stamps it on injection and workers use it to pick the
	// right workflow when several share one fleet.
	Session string
}

// computeMB returns the effective processing volume.
func (j *Job) computeMB() float64 {
	if j.ComputeMB > 0 {
		return j.ComputeMB
	}
	return j.DataSizeMB
}

// JobRecord is the master's book-keeping for one job, the analogue of
// the paper's JobStatus map with its timestamps. Its fold is the one
// writer of every exported field but Job.
type JobRecord struct {
	Job      *Job
	Status   JobStatus
	Worker   string // the worker the job was allocated to
	Injected time.Time
	Queued   time.Time
	Finished time.Time

	// sess is the workflow session the job belongs to; the master uses
	// it to route completions and counters on multi-workflow clusters.
	sess *session
}

// fold applies one decision about the job to its record, reading the
// clock only for the kinds that stamp. An injected job no task consumes
// is finished at its injection instant; a reject or a redispatch
// returns the job to allocation.
func (r *JobRecord) fold(d decision, clk vclock.Clock) {
	switch d.kind {
	case TraceInjected:
		r.Injected = clk.Now()
		if d.terminal {
			r.Status, r.Finished = StatusFinished, r.Injected
		}
	case TraceOffered:
		r.Status, r.Worker = StatusOffered, d.worker
	case TraceRejected, TraceRedispatch:
		r.Status, r.Worker = StatusPending, ""
	case TraceAssigned:
		r.Status, r.Worker, r.Queued = StatusQueued, d.worker, clk.Now()
	case TraceFinished, TraceFailed:
		r.Status, r.Finished = StatusFinished, clk.Now()
	}
}

// Arrival schedules one job's injection into the workflow, At after the
// workflow starts. Jobs with equal offsets arrive in slice order.
type Arrival struct {
	At  time.Duration
	Job *Job
}
