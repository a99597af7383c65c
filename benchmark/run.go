package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// runCtx is one invocation: one workload, one seed, one window length,
// traced or not.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	p        params
	// boot is how long the process took to reach the workload (runtime
	// start-up, flags); the first set-up is charged it.
	boot   time.Duration
	outDir string
	log    io.Writer
	res    *result
}

// window is the length of one timed window: the whole of -seconds on
// an untraced run; a quarter on a traced run, which times an untraced
// and a traced window and runs the probes.
func (rc *runCtx) window() time.Duration {
	s := rc.seconds
	if rc.trace {
		s /= 4
	}
	return time.Duration(s * float64(time.Second))
}

// setUps sets the workload up Setups times and returns the median
// duration in seconds and how many there were. A run sets up several
// times because one set-up is too short to time steadily; each but the
// last is torn down by the next call of fn.
func (rc *runCtx) setUps(fn func(i int) error) (float64, int, error) {
	secs := make([]float64, 0, rc.p.Setups)
	for i := 0; i < rc.p.Setups; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		if i == 0 {
			d += rc.boot
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), len(secs), nil
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// result accumulates what a run reports. It is shared with the
// watchdog, which prints it if the run hangs.
type result struct {
	mu        sync.Mutex
	metrics   map[string]float64
	samples   map[string]int
	attempted int
	verified  int
	failed    int
	notes     []string
}

func newResult() *result {
	return &result{metrics: make(map[string]float64), samples: make(map[string]int)}
}

// set records a metric; setN also records how many samples a timing
// was taken from.
func (r *result) set(name string, v float64) { r.setN(name, v, 0) }

func (r *result) setN(name string, v float64, n int) {
	r.mu.Lock()
	r.metrics[name] = v
	if n > 0 {
		r.samples[name] = n
	}
	r.mu.Unlock()
}

func (r *result) get(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}

// attempt counts operations (jobs) handed to the system.
func (r *result) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// pass counts operations whose outputs checked out.
func (r *result) pass(n int) {
	r.mu.Lock()
	r.verified += n
	r.mu.Unlock()
}

// outstanding is how many operations were handed over and have neither
// passed nor failed verification: what a hung run leaves behind.
func (r *result) outstanding() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(0, r.attempted-r.verified-r.failed)
}

// failf counts n failed operations and keeps the first few reasons.
func (r *result) failf(n int, format string, args ...any) {
	r.mu.Lock()
	r.failed += n
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result for the metric set of the run's mode. An
// end-to-end metric that is missing or zero is a failure of the
// benchmark itself; a per-layer metric a workload cannot produce reads
// zero.
func (r *result) line(specs []metricSpec, mustBeSet bool) resultLine {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if mustBeSet && (!ok || v == 0) {
			out.Failed++
			r.notes = append(r.notes, "metric "+s.Name+" was not measured")
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed++
	}
	out.Correct = out.Failed == 0
	return out
}

// report prints every metric by name with its unit and sample count,
// then any failure reasons.
func (r *result) report(w io.Writer, specs []metricSpec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range specs {
		n := ""
		if c := r.samples[s.Name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "  %-40s %16.4f %-6s%s\n", s.Name, r.metrics[s.Name], s.Unit, n)
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", note)
	}
}

func marshalLine(l resultLine) string {
	data, err := json.Marshal(l)
	if err != nil {
		panic(err) // plain maps of floats and strings always marshal
	}
	return string(data)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
