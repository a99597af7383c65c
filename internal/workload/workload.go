// Package workload generates the five job configurations of the paper's
// controlled experiments (§6.3.1): 120-job streams whose repository
// sizes and repetition patterns emulate real-world assignment patterns.
// Generation is deterministic per (configuration, seed), so every
// scheduler under comparison sees the identical stream.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/gitsim"
)

// Stream is the channel synthetic repository jobs are injected on; the
// benchmark workflow attaches its analysis task to it.
const Stream = "repo-jobs"

// JobConfig names the paper's job configurations.
type JobConfig int

const (
	// AllDiffEqual: equal distribution of repository sizes, all jobs use
	// different repositories.
	AllDiffEqual JobConfig = iota
	// AllDiffLarge: mostly large repositories, all different.
	AllDiffLarge
	// AllDiffSmall: mostly small repositories, all different.
	AllDiffSmall
	// Rep80Large: mostly large; 80% of the large-scale jobs require the
	// same large repository.
	Rep80Large
	// Rep80Small: mostly small; 80% of the small-scale jobs require the
	// same repository.
	Rep80Small
)

// JobConfigs lists the configurations in paper order.
var JobConfigs = []JobConfig{AllDiffEqual, AllDiffLarge, AllDiffSmall, Rep80Large, Rep80Small}

// String returns the paper's configuration name.
func (c JobConfig) String() string {
	switch c {
	case AllDiffEqual:
		return "all_diff_equal"
	case AllDiffLarge:
		return "all_diff_large"
	case AllDiffSmall:
		return "all_diff_small"
	case Rep80Large:
		return "80%_large"
	case Rep80Small:
		return "80%_small"
	default:
		return fmt.Sprintf("JobConfig(%d)", int(c))
	}
}

// ParseJobConfig resolves a configuration by its String name.
func ParseJobConfig(s string) (JobConfig, error) {
	for _, c := range JobConfigs {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown job configuration %q", s)
}

// mix returns the small/medium/large proportions of the configuration.
func (c JobConfig) mix() (small, medium, large float64) {
	switch c {
	case AllDiffLarge, Rep80Large:
		return 0.10, 0.20, 0.70
	case AllDiffSmall, Rep80Small:
		return 0.70, 0.20, 0.10
	default: // AllDiffEqual
		return 1.0 / 3, 1.0 / 3, 1.0 / 3
	}
}

// repetitive reports whether the configuration repeats a repository and,
// if so, in which size class.
func (c JobConfig) repetitive() (gitsim.SizeClass, bool) {
	switch c {
	case Rep80Large:
		return gitsim.Large, true
	case Rep80Small:
		return gitsim.Small, true
	default:
		return 0, false
	}
}

// Options tunes generation.
type Options struct {
	// Jobs is the stream length; zero defaults to the paper's 120.
	Jobs int
	// Seed makes the stream reproducible.
	Seed int64
	// MeanInterarrival is the mean of the exponential inter-arrival
	// time; zero defaults to 2s, negative injects everything at t=0.
	MeanInterarrival time.Duration
	// Stream overrides the injection stream name.
	Stream string
}

func (o Options) withDefaults() Options {
	if o.Jobs == 0 {
		o.Jobs = 120
	}
	if o.MeanInterarrival == 0 {
		o.MeanInterarrival = 2 * time.Second
	}
	if o.MeanInterarrival < 0 {
		o.MeanInterarrival = 0
	}
	if o.Stream == "" {
		o.Stream = Stream
	}
	return o
}

// Generate builds the arrival stream for a configuration. Jobs carry
// repository keys namespaced by configuration and seed, so distinct
// configurations never share cache entries while repeated runs of the
// same configuration (the paper's three iterations) do.
func Generate(c JobConfig, opts Options) []engine.Arrival {
	o := opts.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed*31 + int64(c)))

	repClass, isRep := c.repetitive()
	ns := fmt.Sprintf("%s/s%d", c.String(), o.Seed)
	hotKey := ns + "/hot"
	hotSize := gitsim.SampleSize(repClass, rng) // drawn even if unused, keeps streams aligned

	small, medium, _ := c.mix()
	arrivals := make([]engine.Arrival, 0, o.Jobs)
	var at time.Duration
	for i := 0; i < o.Jobs; i++ {
		var class gitsim.SizeClass
		switch u := rng.Float64(); {
		case u < small:
			class = gitsim.Small
		case u < small+medium:
			class = gitsim.Medium
		default:
			class = gitsim.Large
		}

		key := fmt.Sprintf("%s/repo-%03d", ns, i)
		size := gitsim.SampleSize(class, rng)
		if isRep && class == repClass && rng.Float64() < 0.8 {
			// Within the repeated size class, 80% of jobs share one repo.
			key, size = hotKey, hotSize
		}

		if o.MeanInterarrival > 0 && i > 0 {
			gap := time.Duration(rng.ExpFloat64() * float64(o.MeanInterarrival))
			if gap > 10*o.MeanInterarrival {
				gap = 10 * o.MeanInterarrival
			}
			at += gap
		}
		arrivals = append(arrivals, engine.Arrival{
			At: at,
			Job: &engine.Job{
				ID:         fmt.Sprintf("%s-%03d", c.String(), i),
				Stream:     o.Stream,
				DataKey:    key,
				DataSizeMB: size,
			},
		})
	}
	return arrivals
}

// Workflow returns the single-task analysis workflow the synthetic
// workloads run on: fetch the repository if non-local, process it.
func Workflow() *engine.Workflow {
	wf := engine.NewWorkflow("synthetic-msr")
	wf.MustAddTask(engine.TaskSpec{Name: "analyze", Input: Stream})
	return wf
}

// Stats summarizes a generated stream (for tests and reports).
type Stats struct {
	Jobs         int
	DistinctKeys int
	TotalMB      float64
	HotShare     float64 // fraction of jobs using the most common key
	Span         time.Duration
}

// Summarize computes stream statistics.
func Summarize(arrivals []engine.Arrival) Stats {
	s := Stats{Jobs: len(arrivals)}
	counts := make(map[string]int)
	for _, a := range arrivals {
		counts[a.Job.DataKey]++
		s.TotalMB += a.Job.DataSizeMB
		if a.At > s.Span {
			s.Span = a.At
		}
	}
	s.DistinctKeys = len(counts)
	maxCount := 0
	for _, n := range counts {
		if n > maxCount {
			maxCount = n
		}
	}
	if s.Jobs > 0 {
		s.HotShare = float64(maxCount) / float64(s.Jobs)
	}
	if math.IsNaN(s.HotShare) {
		s.HotShare = 0
	}
	return s
}
