package main

import "time"

// metricSpec names one metric of the benchmark contract. The tables
// below are the single source BENCHMARK.json is checked against (see
// TestContractMatchesTables), so a name, unit or bound changes in one
// place.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; README.md says which are measured on the
// workload's own traffic and which come from its reference slice.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},                 // bring-up to the first timed job, median of several set-ups: work moved out of the window shows here
	{"jobs_per_s", "1/s", "higher", 0.25},           // completed jobs per wall second of the timed window
	{"sim_jobs_per_s", "1/s", "higher", 0.25},       // simulated jobs per wall second: how fast the paper's grid regenerates
	{"cpu_us_per_job", "us", "lower", 0.25},         // rusage user+sys over the window per job: the cost that survives a faster box
	{"session_p50_ms", "ms", "lower", 0.25},         // open to report of one batch of jobs, median
	{"session_p90_ms", "ms", "lower", 0.25},         // open to report of one batch of jobs, 90th percentile
	{"submit_done_p50_ms", "ms", "lower", 0.25},     // due to finished, median
	{"submit_done_p90_ms", "ms", "lower", 0.25},     // due to finished, 90th percentile
	{"submit_assigned_p50_ms", "ms", "lower", 0.25}, // due to assigned: the bid round the paper adds to every job
	{"wire_bytes_per_job", "B", "lower", 0.05},      // control-plane bytes per job
	{"makespan_sim_s", "s", "lower", 0.08},          // mean virtual makespan: the paper's end-to-end execution time
	{"data_load_mb_per_job", "MB", "lower", 0.08},   // non-local data transferred per job: the paper's data load
	{"cache_miss_ratio", "ratio", "lower", 0.05},    // cache misses over cache accesses: the paper's cache-miss metric
	{"bidding_speedup_pct", "%", "higher", 0.20},    // mean makespan reduction of bidding over baseline across the grid
	{"peak_rss_mb", "MB", "lower", 0.25},            // ru_maxrss at the end of the timed window
}

// perLayer lists the single-layer metrics, layer = package name. They
// carry no bound: they exist to say where an end-to-end change came
// from. A metric a workload cannot produce reads 0 on that workload.
var perLayer = []metricSpec{
	{Name: "vclock.sim_sleep_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.sim_mailbox_pingpong_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.sim_afterfunc_ns", Unit: "ns", Better: "lower"},
	{Name: "vclock.real_mailbox_pingpong_ns", Unit: "ns", Better: "lower"},

	{Name: "broker.send_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_w5_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_w500_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "broker.sendmulti_k6_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.encode_ns.bidrequest", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.bid", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.assign", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns.jobdone", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.bidrequest", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.bid", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.assign", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns.jobdone", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.decode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.frame_bytes.bidrequest", Unit: "B", Better: "lower"},
	{Name: "wire.frame_bytes.bid", Unit: "B", Better: "lower"},

	{Name: "transport.send_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.publish_ack_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.publish_async_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.stream_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.stream_cpu_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "transport.fanout_w8_deliveries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "transport.fanout_cpu_us_per_delivery", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_in_per_job", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_out_per_job", Unit: "B", Better: "lower"},
	{Name: "transport.port_busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "transport.port_calls_per_job", Unit: "count", Better: "lower"},

	{Name: "engine.master_us_per_job_w8", Unit: "us", Better: "lower"},
	{Name: "engine.master_us_per_job_w500", Unit: "us", Better: "lower"},
	{Name: "engine.worker_us_per_job", Unit: "us", Better: "lower"},
	{Name: "engine.sim_s1_w500_us_per_job", Unit: "us", Better: "lower"},
	{Name: "engine.sim_s2_w500_us_per_job", Unit: "us", Better: "lower"},
	{Name: "engine.ingest_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.alloc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.alloc_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.contests_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.bids_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.contest_msgs_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.fallbacks_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.redispatched_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.mean_alloc_latency_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.worker_jobs_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "engine.task_body_us_per_job", Unit: "us", Better: "lower"},

	{Name: "core.alloc_busy_us_per_job", Unit: "us", Better: "lower"},
	{Name: "core.alloc_calls_per_job", Unit: "count", Better: "lower"},
	{Name: "core.bid_received_ns", Unit: "ns", Better: "lower"},
	{Name: "core.job_ready_ns", Unit: "ns", Better: "lower"},
	{Name: "core.agent_busy_us_per_job", Unit: "us", Better: "lower"},

	{Name: "locindex.add_holder_ns", Unit: "ns", Better: "lower"},
	{Name: "locindex.holders_ns", Unit: "ns", Better: "lower"},
	{Name: "locindex.sample_light_w2000_ns", Unit: "ns", Better: "lower"},
	{Name: "locindex.shardof_ns", Unit: "ns", Better: "lower"},

	{Name: "storage.put_access_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "netsim.downloaded_mb_per_job", Unit: "MB", Better: "lower"},
	{Name: "workload.generate_us", Unit: "us", Better: "lower"},

	{Name: "runtime.allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.submit_call_ns", Unit: "ns", Better: "lower"},

	{Name: "tail.submit_done_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.submit_done_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.session_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadSpec is one named set of inputs.
type workloadSpec struct {
	Name string
	Why  string
	run  func(rc *runCtx) error
}

var workloads = []workloadSpec{
	{"tcp_sessions_w8", "closed loop: 2 clients stream 500-job sessions through one master and 8 workers over loopback TCP; wire, transport and the master loop do nearly all the work",
		func(rc *runCtx) error { return runTCP(rc, 1, false) }},
	{"tcp_sharded_s2_w8", "the same closed loop through the 2-shard control plane: adds the frontend router hop that tcp_sessions_w8 bypasses",
		func(rc *runCtx) error { return runTCP(rc, 2, false) }},
	{"tcp_paced_w8", "open loop at 2000 jobs/s, a tenth of capacity, each job timed from when it was due: the same layers used for latency instead of throughput",
		func(rc *runCtx) error { return runTCP(rc, 1, true) }},
	{"sim_fleet_w500", "crossflow.Run on the simulated clock with 500 workers and broadcast bidding: 1000 contest messages per job load the vclock kernel, broker fanout and master bid handling; no wire",
		runSimFleet},
	{"sim_paper_grid", "experiments.Grid, the researcher's traffic: 5-7 workers, so per-job engine, worker, storage, netsim and allocator cost dominate; carries the paper's quality numbers",
		runSimGrid},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// The deployment shape of the tcp_* workloads and the cut of a window
// are the same at every size the benchmark runs at.
const (
	fleetWorkers = 8    // real workers, each on its own loopback connection
	clockScale   = 1000 // compression of the fleet's clocks: 1 ms real = 1 s of clock
	loadClients  = 2    // closed-loop client goroutines (= nproc of the reference box)
	pacedRate    = 2000 // jobs per second of the open loop, a tenth of closed-loop capacity
	hotKeys      = 8    // 80 % of jobs draw their data key from these
	coldKeys     = 56   // the rest from these
	jobMB        = 4
	// windowBlocks is how many blocks a window is cut into; every timing
	// is the median over blocks (see blocks.go).
	windowBlocks = 8
	// fleetGap spaces sim_fleet_w500's arrivals, as in internal/bench's
	// fleet_w500_bidding.
	fleetGap = 2 * time.Second
)

// params holds the sizes that differ between the benchmark (full) and
// its smoke test, which runs the same code at a fraction of the work.
type params struct {
	// Closed-loop sessions are SessionJobs jobs long; a fleet is warmed
	// with WarmupJobs (PacedWarmup on the open loop) before its window.
	SessionJobs int
	WarmupJobs  int
	PacedWarmup int

	// Setups is how many times a run sets up; setup_s is their median.
	Setups int

	// sim_fleet_w500: FleetJobs jobs over FleetKeys keys on FleetW
	// workers. Quality metrics are the mean of the first FleetMinRuns
	// runs, which always complete.
	FleetW       int
	FleetJobs    int
	FleetKeys    int
	FleetMinRuns int

	// sim_paper_grid: quality metrics are the mean over the first
	// GridMinSeeds seeds, which always complete. GridJobs and
	// GridIterations of 0 keep the paper's 120 and 3.
	GridMinSeeds   int
	GridJobs       int
	GridIterations int

	// RefSeeds is the size of the reference slice of sim_paper_grid a
	// workload runs after its window for the metrics its own traffic
	// cannot produce.
	RefSeeds int

	// SpanSample keeps the spans of one job in SpanSample; SpanCap is
	// the preallocated span buffer.
	SpanSample int
	SpanCap    int

	// ProbeTime is the minimum measured time of one per-layer probe;
	// SuiteProbes runs the probes reused from internal/bench, which
	// cannot be made shorter than one of their iterations.
	ProbeTime   time.Duration
	SuiteProbes bool
	StreamMsgs  int
}

func full() params {
	return params{
		SessionJobs: 500, WarmupJobs: 16000, PacedWarmup: 2000,
		Setups: 3,
		FleetW: 500, FleetJobs: 160, FleetKeys: 40, FleetMinRuns: 12,
		GridMinSeeds: 24,
		RefSeeds:     8,
		SpanSample:   16, SpanCap: 1 << 18,
		ProbeTime: 100 * time.Millisecond, SuiteProbes: true, StreamMsgs: 200000,
	}
}
