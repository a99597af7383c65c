package simtest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// scenarioStream is the single stream scenario jobs travel on.
const scenarioStream = "work"

func speed(mbps, noise float64) netsim.Speed {
	return netsim.Speed{BaseMBps: mbps, NoiseAmp: noise}
}

// scenarioWorkflow consumes the stream with the default data-bound
// task, except that poison jobs fail after fetching their data.
func scenarioWorkflow() *engine.Workflow {
	wf := engine.NewWorkflow("simtest")
	wf.MustAddTask(engine.TaskSpec{
		Name:  "work",
		Input: scenarioStream,
		Fn: func(ctx *engine.TaskContext, job *engine.Job) ([]*engine.Job, []any, error) {
			newJobs, results, err := engine.DefaultTask(ctx, job)
			if err == nil && strings.HasPrefix(job.ID, "poison-") {
				err = errors.New("simtest: poison job")
			}
			return newJobs, results, err
		},
	})
	return wf
}

// delayFunc builds the broker delay model: link-sum, amplified inside
// every spike window. It reads the clock under the broker lock, which
// is the established lock order (the broker already stamps SentAt
// there).
func (sc *Scenario) delayFunc(clk vclock.Clock) broker.DelayFunc {
	spikes := sc.Faults.Spikes
	if len(spikes) == 0 {
		return nil
	}
	return func(from, to *broker.Endpoint) time.Duration {
		var d time.Duration
		if from != nil {
			d += from.Link()
		}
		if to != nil {
			d += to.Link()
		}
		now := clk.Since(vclock.Epoch)
		for _, sp := range spikes {
			if now >= sp.At && now < sp.At+sp.Duration {
				d = time.Duration(float64(d)*sp.Factor) + sp.Extra
			}
		}
		return d
	}
}

// dropFunc builds the message-loss model: a deterministic hash of the
// envelope's route, payload type, and timestamp against DropProb.
// Deciding from content rather than call order keeps same-seed runs
// byte-identical even though concurrent senders race for the broker
// lock. MsgStop is exempt: a lost stop strands a worker forever, which
// models a process that outlives the run, not a scheduling failure.
func (sc *Scenario) dropFunc() broker.DropFunc {
	p := sc.Faults.DropProb
	if p <= 0 {
		return nil
	}
	salt := sc.Faults.DropSalt
	return func(env broker.Envelope, to string) bool {
		if _, stop := env.Payload.(engine.MsgStop); stop {
			return false
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%T|%d|%d", env.From, to, env.Payload, env.SentAt.UnixNano(), salt)
		return float64(h.Sum64()>>11)/(1<<53) < p
	}
}

// RunResult is one policy's execution of a scenario.
type RunResult struct {
	Policy string
	Report *engine.Report
	Events []engine.TraceEvent
	Err    error
}

// ExecOptions lets callers hook a scenario execution: the model checker
// supplies a pre-configured clock (with a scheduling chooser installed)
// and a cluster probe. The zero value is a plain run.
type ExecOptions struct {
	// Clock replaces the fresh vclock.NewSim() an ordinary run uses.
	Clock *vclock.Sim
	// Probe receives the assembled cluster before it starts.
	Probe func(*engine.Cluster)
}

// Execute runs one policy over a scenario on a fresh simulated clock
// and fleet, returning the report, the full allocation trace, and the
// run error (nil, ErrDeadlineExceeded, or ErrDeadlocked).
func Execute(sc *Scenario, pol core.Policy) *RunResult {
	return ExecuteOpts(sc, pol, ExecOptions{})
}

// ExecuteOpts is Execute with execution hooks (see ExecOptions).
func ExecuteOpts(sc *Scenario, pol core.Policy, opts ExecOptions) *RunResult {
	clk := opts.Clock
	if clk == nil {
		clk = vclock.NewSim()
	}
	trace := engine.NewTraceLog()
	rep, err := engine.Run(engine.Config{
		ClusterConfig: engine.ClusterConfig{
			Clock:        clk,
			Workers:      sc.BuildWorkers(),
			Shards:       sc.Shards,
			NewAllocator: pol.NewAllocator,
			NewAgent:     pol.NewAgent,
			Seed:         sc.Seed*7919 + 17,
			DelayFunc:    sc.delayFunc(clk),
			DropFunc:     sc.dropFunc(),
			Tracer:       trace,
		},
		Workflow:     scenarioWorkflow(),
		Arrivals:     sc.Arrivals(),
		Kills:        sc.Faults.Kills,
		Partitions:   sc.Faults.Partitions,
		CacheShrinks: sc.Faults.Shrinks,
		Joins:        sc.BuildJoins(),
		Drains:       sc.Faults.Drains,
		Deadline:     sc.Deadline,
		Probe:        opts.Probe,
	})
	return &RunResult{Policy: pol.Name, Report: rep, Events: trace.Events(), Err: err}
}

// Violation is one invariant failure, with everything needed to replay
// it: the seed, the policy, the invariant's name, and the detail.
type Violation struct {
	Seed      int64
	Policy    string
	Invariant string
	Detail    string
}

// Error renders the violation for reports.
func (v *Violation) Error() string {
	return fmt.Sprintf("seed %d, policy %s: invariant %q violated: %s",
		v.Seed, v.Policy, v.Invariant, v.Detail)
}

// Options tunes a fuzzing session.
type Options struct {
	// Limits bound scenario generation.
	Limits Limits
	// Policies are the schedulers under test; nil means core.Policies().
	Policies []core.Policy
	// SkipDeterminism disables the double-run byte-identity check
	// (shrinking uses it: half the runs, same failure predicate).
	SkipDeterminism bool
}

func (o Options) policies() []core.Policy {
	if o.Policies != nil {
		return o.Policies
	}
	return core.Policies()
}

// DefaultOptions is the standard fuzzing configuration.
func DefaultOptions() Options { return Options{Limits: DefaultLimits()} }

// ShortOptions is the CI configuration: smaller scenarios, identical
// checks.
func ShortOptions() Options { return Options{Limits: ShortLimits()} }

// CheckSeed generates the scenario for seed and checks every policy
// against the invariant library, including same-seed replay
// determinism. It returns the first violation, or nil.
func CheckSeed(seed int64, opts Options) *Violation {
	return CheckScenario(Generate(seed, opts.Limits), opts)
}

// CheckScenario checks an explicit scenario (CheckSeed's core; the
// shrinker calls it with reduced scenarios).
func CheckScenario(sc *Scenario, opts Options) *Violation {
	for _, pol := range opts.policies() {
		r := Execute(sc, pol)
		if v := CheckTrace(sc, r); v != nil {
			return v
		}
		if opts.SkipDeterminism {
			continue
		}
		r2 := Execute(sc, pol)
		if v := diffRuns(sc, r, r2); v != nil {
			return v
		}
	}
	return nil
}

// diffRuns compares two executions of the same (scenario, policy) and
// reports the first divergence — the determinism invariant.
func diffRuns(sc *Scenario, a, b *RunResult) *Violation {
	ta, tb := FormatTrace(a.Events), FormatTrace(b.Events)
	if ta != tb {
		return &Violation{
			Seed: sc.Seed, Policy: a.Policy, Invariant: "determinism",
			Detail: "same-seed re-run produced a different trace:\n" + firstDiff(ta, tb),
		}
	}
	ra, rb := FormatReport(a.Report), FormatReport(b.Report)
	if ra != rb {
		return &Violation{
			Seed: sc.Seed, Policy: a.Policy, Invariant: "determinism",
			Detail: "same-seed re-run produced different metrics:\n" + firstDiff(ra, rb),
		}
	}
	if (a.Err == nil) != (b.Err == nil) {
		return &Violation{
			Seed: sc.Seed, Policy: a.Policy, Invariant: "determinism",
			Detail: fmt.Sprintf("same-seed re-run diverged in outcome: %v vs %v", a.Err, b.Err),
		}
	}
	return nil
}

// firstDiff returns the first differing line of two serializations.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
