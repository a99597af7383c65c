package engine

import (
	"time"

	"crossflow/internal/vclock"
)

// Topic names used on the broker.
const (
	// TopicBids is the broadcast topic the master publishes bid requests
	// on; every worker subscribes.
	TopicBids = "xflow/bids"
	// TopicControl carries workflow-wide control messages (stop).
	TopicControl = "xflow/control"
)

// MasterName is the broker endpoint name of the master node.
const MasterName = "master"

// The message types below form the wire protocol between master and
// workers. They are plain exported structs so the wire package can
// encode them unchanged.

// MsgRegister announces a worker to the master. Workers re-send it on
// their heartbeat until the master acknowledges, so process start-up
// order does not matter in distributed deployments.
//
//xflow:msg master
type MsgRegister struct {
	Worker string
}

// MsgRegisterAck confirms a registration; the worker's policy agent
// starts only after it arrives.
//
//xflow:msg worker
type MsgRegisterAck struct{}

// MsgBidRequest opens a bidding contest for a job (Listing 1, line 3:
// publishForBidding). Broadcast on TopicBids.
//
//xflow:msg worker
type MsgBidRequest struct {
	Job *Job
}

// MsgBid is a worker's submission in a contest (Listing 2, line 6).
//
//xflow:msg master
type MsgBid struct {
	JobID  string
	Worker string
	// Estimate is the full bid: current unfinished workload plus the
	// job's own transfer and processing cost.
	Estimate time.Duration
	// JobCost is the job-only component of the estimate. The master
	// passes the winner's JobCost back in MsgAssign.EstimatedCost so the
	// worker's unfinished-work total never double-counts its queue.
	JobCost time.Duration
	// Local reports that the bidder already holds (or has committed to
	// fetch) the job's data. Fast-path masters may close a contest early
	// on a local bid — the paper's future-work item on minimizing the
	// bidding overhead for highly local jobs.
	Local bool
}

// MsgAssign hands a job to a worker's queue (Listing 1, line 26:
// worker.consumeJob).
//
//xflow:msg worker
type MsgAssign struct {
	Job *Job
	// EstimatedCost lets the master communicate the winning estimate so
	// the worker can maintain its unfinished-work total; zero when the
	// allocator has no estimate (centralized policies).
	EstimatedCost time.Duration
}

// MsgOffer proposes a job to a worker, which may accept or reject it
// (the Baseline opinionated pull model, §4).
//
//xflow:msg worker
type MsgOffer struct {
	Job *Job
}

// MsgAccept is the worker's positive answer to an offer.
//
//xflow:msg master
type MsgAccept struct {
	JobID  string
	Worker string
}

// MsgReject returns an offered job to the master "so another worker can
// consider it".
//
//xflow:msg master
type MsgReject struct {
	JobID  string
	Worker string
}

// MsgRequestJob is a worker pulling for work when idle. CachedKeys and
// Strikes support locality-aware pull policies (Matchmaking): keys list
// the worker's cached data, strikes how many consecutive empty
// heartbeats it has waited.
//
//xflow:msg master
type MsgRequestJob struct {
	Worker     string
	CachedKeys []string
	Strikes    int
}

// MsgNoWork tells a pulling worker the master has nothing suitable; the
// worker retries after its heartbeat interval.
//
//xflow:msg worker
type MsgNoWork struct {
	// Backoff suggests how long to wait before the next pull; zero means
	// the worker's default heartbeat.
	Backoff time.Duration
}

// MsgCacheEvict notifies the master that a worker's cache displaced the
// listed data keys, so the master's data-location index can forget the
// worker as a holder. Workers send it only when their policy agent asks
// for eviction notices (Worker.EnableEvictionNotices) — policies without
// a location index never pay the extra traffic. Notices are advisory
// and may be lost or reordered; the index self-corrects from later bids.
//
//xflow:msg master
type MsgCacheEvict struct {
	Worker string
	Keys   []string
}

// MsgJobDone reports a completed job together with the jobs the task
// produced downstream (Listing 2, line 14: master.sendJob(newJob)).
//
//xflow:msg master
type MsgJobDone struct {
	JobID   string
	Worker  string
	NewJobs []*Job
	Results []any
	// Failed marks a job whose task function returned an error.
	Failed bool
	Error  string
}

// MsgEmit carries a downstream job produced by a task that is still
// running — stream-processing tasks emit results as they find them
// rather than batching them into the final MsgJobDone.
//
//xflow:msg master
type MsgEmit struct {
	Job    *Job
	Worker string
}

// MsgBidWindowExpired is the master's self-message closing a contest
// after the bidding threshold (Listing 1, line 30).
//
//xflow:msg master
type MsgBidWindowExpired struct {
	JobID string
}

// MsgTick is a generic timer self-message for allocators that need
// periodic work.
//
//xflow:msg master
type MsgTick struct {
	Token string
}

// MsgStop shuts a worker down after the workflow completes.
//
//xflow:msg worker
type MsgStop struct{}

// MsgDrain asks a worker to finish the jobs already in its queue, stop
// taking new work, and leave the cluster. The master removes the worker
// from the live set before sending it, so nothing new is assigned while
// the queue empties; broker routes are FIFO, so every assignment sent
// before the drain is in the queue by the time MsgDrain arrives.
//
//xflow:msg worker
type MsgDrain struct{}

// MsgLeave is a worker's goodbye: its queue is empty (graceful drain)
// or abandoned (voluntary leave) and it will not send again. The master
// redispatches anything still attributed to the worker.
//
//xflow:msg master
type MsgLeave struct {
	Worker string
}

// MsgWorkerDead is the master's self-message injected by fault-injection
// hooks when a worker is declared lost.
//
//xflow:msg master
type MsgWorkerDead struct {
	Worker string
}

// The three kinds below are a worker's timers: self-messages scheduled
// into its timer mailbox (Worker.selfAfter) and handled by
// Worker.onTimer. They never cross the broker.

// msgRegisterRetry re-announces an unacknowledged worker on its
// heartbeat.
//
//xflow:msg worker-timer
type msgRegisterRetry struct{}

// msgBidReady ends the worker's bid-computation delay (§5's bidding
// thread): the bid it carries goes to the endpoint that asked for it.
//
//xflow:msg worker-timer
type msgBidReady struct {
	bid MsgBid
	to  string
}

// msgPullRetry re-pulls for work after an empty pull's backoff.
//
//xflow:msg worker-timer
type msgPullRetry struct{ strikes int }

// msgAbort is the master's self-message injected when a run's Deadline
// expires: the master stops waiting for outstanding work, publishes the
// stop signal, and Run reports ErrDeadlineExceeded. It never crosses the
// broker, so it stays unexported.
//
//xflow:msg master
type msgAbort struct{}

// The messages below drive the long-lived cluster runtime. They are
// handed to the master through Inject by the Cluster API on the same
// process, never serialized, so they stay unexported.

// msgOpenSession announces a new workflow session to the master loop.
//
//xflow:msg master
type msgOpenSession struct{ s *session }

// msgSubmit feeds one job into an open session.
//
//xflow:msg master
type msgSubmit struct {
	s   *session
	job *Job
}

// msgCloseFeed marks a session's submission feed closed; the session
// completes once its outstanding jobs finish.
//
//xflow:msg master
type msgCloseFeed struct{ s *session }

// msgDrainStart begins a graceful drain of one worker. ack, when
// non-nil, receives one value after the worker's MsgLeave is processed.
//
//xflow:msg master
type msgDrainStart struct {
	worker string
	ack    vclock.Mailbox
}

// msgShutdown stops a long-lived master: it publishes MsgStop to the
// fleet, flushes reports to any sessions still waiting, and exits the
// master loop.
//
//xflow:msg master
type msgShutdown struct{}

// msgShardSettled is a contest shard's notice to the sharded frontend
// that one of its jobs reached a terminal state, carrying any
// downstream jobs the task produced so the router can re-partition them
// by content hash. Only the router consumes it; it travels in-process
// (broker endpoint or direct inject), never over the wire.
//
//xflow:msg master
type msgShardSettled struct {
	JobID   string
	Sess    string
	NewJobs []*Job
}
