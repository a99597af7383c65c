package simtest

import (
	"encoding/json"
	"fmt"

	"crossflow/internal/core"
	"crossflow/internal/vclock"
)

// Counterexample is an invariant-violating execution found by the model
// checker (internal/modelcheck), in replayable form: the scenario, the
// policy, and the schedule of scheduling decisions that reaches the
// violation. Unlike a fuzz seed — which replays one fixed interleaving —
// a counterexample pins the exact interleaving the checker chose, so it
// reproduces bugs that only a particular delivery order exposes.
type Counterexample struct {
	Policy    string `json:"policy"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	// Schedule is the sequence of scheduling decisions: the i-th entry
	// indexes the i-th enabled set the clock presented (see
	// vclock.Chooser). Decisions past the end of the schedule default to
	// 0, the event the unguided simulator would fire, so a schedule only
	// needs to pin the prefix that provokes the bug.
	Schedule []int     `json:"schedule"`
	Scenario *Scenario `json:"scenario"`
	// Trace is the violating run's formatted allocation trace, for
	// humans; Replay regenerates it.
	Trace string `json:"trace,omitempty"`
}

// Encode renders the counterexample as indented JSON.
func (ce *Counterexample) Encode() ([]byte, error) {
	return json.MarshalIndent(ce, "", "  ")
}

// DecodeCounterexample parses a counterexample produced by Encode.
func DecodeCounterexample(data []byte) (*Counterexample, error) {
	ce := new(Counterexample)
	if err := json.Unmarshal(data, ce); err != nil {
		return nil, fmt.Errorf("simtest: bad counterexample: %w", err)
	}
	if ce.Scenario == nil {
		return nil, fmt.Errorf("simtest: counterexample has no scenario")
	}
	return ce, nil
}

// Replay re-executes the recorded schedule and re-checks the invariant
// library against the resulting trace. It returns the run and the
// violation it reproduces; a nil violation means the schedule no longer
// breaks anything (the bug is fixed, or the code changed enough that
// the schedule no longer reaches it).
func (ce *Counterexample) Replay() (*RunResult, *Violation, error) {
	pol, ok := core.PolicyByName(ce.Policy)
	if !ok {
		return nil, nil, fmt.Errorf("simtest: counterexample policy %q unknown", ce.Policy)
	}
	r := ReplaySchedule(ce.Scenario, pol, ce.Schedule)
	return r, CheckTrace(ce.Scenario, r), nil
}

// ReplaySchedule executes a scenario under a scripted scheduling
// chooser: decision i fires enabled event Schedule[i] (out-of-range
// entries fall back to 0, the unguided simulator's choice). Once the
// schedule is exhausted the chooser uninstalls itself and the run
// finishes unguided, with virtual time advancing again — exactly how
// the model checker's own executions cruise past their last branch
// point, so a replayed suffix matches the recorded one event for
// event. (Leaving the chooser installed would also keep time frozen,
// and a policy with re-arming timers would then never reach its
// deadline.) The model checker uses this both to re-verify
// counterexamples and to shrink them.
func ReplaySchedule(sc *Scenario, pol core.Policy, schedule []int) *RunResult {
	clk := vclock.NewSim()
	step := 0
	clk.SetChooser(func(enabled []vclock.EnabledEvent) int {
		if step >= len(schedule) {
			clk.SetChooser(nil)
			return 0
		}
		c := schedule[step]
		step++
		if c < 0 || c >= len(enabled) {
			c = 0
		}
		return c
	})
	return ExecuteOpts(sc, pol, ExecOptions{Clock: clk})
}
