package experiments

import (
	"fmt"
	"runtime"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/metrics"
	"crossflow/internal/sweep"
	"crossflow/internal/workload"
)

// SimOptions tunes the controlled-environment experiments (§6.3).
type SimOptions struct {
	// Iterations per (workload, profile, policy) cell; worker caches
	// persist across iterations, matching the paper's protocol. Zero
	// defaults to the paper's 3.
	Iterations int
	// Jobs per workflow run; zero defaults to the paper's 120.
	Jobs int
	// Seed drives workload generation and worker noise.
	Seed int64
	// Policies to compare; nil defaults to bidding vs baseline.
	Policies []core.Policy
	// Cluster tunes fleet construction (noise, latency, cache size).
	Cluster cluster.Options
	// MeanInterarrival spaces the job stream; zero keeps the default.
	MeanInterarrival time.Duration
}

func (o SimOptions) withDefaults() SimOptions {
	if o.Iterations == 0 {
		o.Iterations = 3
	}
	if o.Jobs == 0 {
		o.Jobs = 120
	}
	if len(o.Policies) == 0 {
		bid, _ := core.PolicyByName("bidding")
		base, _ := core.PolicyByName("baseline")
		o.Policies = []core.Policy{bid, base}
	}
	o.Cluster.Seed = o.Seed
	return o
}

// Cell is the outcome of one (workload, profile) combination: one series
// of iteration runs per policy.
type Cell struct {
	Workload workload.JobConfig
	Profile  cluster.Profile
	Series   map[string]*metrics.Series
}

// cellKey names the combination a Cell is the outcome of.
type cellKey struct {
	Workload workload.JobConfig
	Profile  cluster.Profile
}

// gridKeys is the full §6.3 sweep, workload-major, profile-minor.
func gridKeys() []cellKey {
	keys := make([]cellKey, 0, len(workload.JobConfigs)*len(cluster.Profiles))
	for _, jc := range workload.JobConfigs {
		for _, prof := range cluster.Profiles {
			keys = append(keys, cellKey{jc, prof})
		}
	}
	return keys
}

// strand is the unit the experiments fan out over cores: one policy on
// one cell at one seed (o.Seed).
type strand struct {
	cell *Cell
	pol  core.Policy
	o    SimOptions
}

// run gives the strand a fresh, identically seeded cluster (cold
// caches); its iterations then share worker state so caches warm up. A
// strand builds all it touches, arrivals included (the master stamps
// Job.Session on injection), so strands share nothing mutable.
func (s strand) run() (*metrics.Series, error) {
	states := cluster.Build(s.cell.Profile, s.o.Cluster, nil)
	series := &metrics.Series{Name: s.pol.Name}
	for it := 0; it < s.o.Iterations; it++ {
		arrivals := workload.Generate(s.cell.Workload, workload.Options{
			Jobs:             s.o.Jobs,
			Seed:             s.o.Seed,
			MeanInterarrival: s.o.MeanInterarrival,
		})
		rep, err := engine.Run(engine.Config{
			ClusterConfig: engine.ClusterConfig{
				Workers:      states,
				NewAllocator: s.pol.NewAllocator,
				NewAgent:     s.pol.NewAgent,
				Seed:         s.o.Seed + int64(it),
			},
			Workflow: workload.Workflow(),
			Arrivals: arrivals,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s/%s seed %d iteration %d: %w",
				s.pol.Name, s.cell.Workload, s.cell.Profile, s.o.Seed, it, err)
		}
		series.Add(metrics.FromReport(rep))
	}
	return series, nil
}

// runCells runs every policy on every key — at opts.Seed, or at each of
// seeds instead — as one flat list of strands on GOMAXPROCS goroutines,
// and returns the cells seed-major, key-minor. Strands are deterministic
// and independent, so the cells and the error, if any, are the serial
// loop's whatever the interleaving. A policy that is not
// core.Policy.Concurrent gets that loop itself.
func runCells(keys []cellKey, opts SimOptions, seeds ...int64) ([]*Cell, error) {
	if len(seeds) == 0 {
		seeds = []int64{opts.Seed}
	}
	o := opts.withDefaults()
	workers := runtime.GOMAXPROCS(0)
	named := make(map[string]bool, len(o.Policies))
	for _, pol := range o.Policies {
		if named[pol.Name] {
			return nil, fmt.Errorf("experiments: two policies named %q: one's series would overwrite the other's", pol.Name)
		}
		named[pol.Name] = true
		if !pol.Concurrent {
			workers = 1
		}
	}
	var cells []*Cell
	var strands []strand
	for _, seed := range seeds {
		o.Seed = seed
		so := o.withDefaults() // carries the seed to the fleet's
		for _, k := range keys {
			cell := &Cell{k.Workload, k.Profile, make(map[string]*metrics.Series, len(o.Policies))}
			cells = append(cells, cell)
			for _, pol := range o.Policies {
				strands = append(strands, strand{cell, pol, so})
			}
		}
	}
	series, err := sweep.Each(workers, len(strands), func(i int) (*metrics.Series, error) {
		return strands[i].run()
	})
	if err != nil {
		return nil, err
	}
	for i, s := range strands {
		s.cell.Series[s.pol.Name] = series[i]
	}
	return cells, nil
}

// RunCell executes every policy on one workload/profile combination.
func RunCell(jc workload.JobConfig, prof cluster.Profile, opts SimOptions) (*Cell, error) {
	cells, err := runCells([]cellKey{{jc, prof}}, opts)
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// Grid runs every workload × profile combination and returns cells in
// (workload-major, profile-minor) order — the full §6.3 sweep.
func Grid(opts SimOptions) ([]*Cell, error) {
	return runCells(gridKeys(), opts)
}

// pooled merges every cell's series for one policy across profiles,
// giving the per-workload aggregates Figure 3 charts.
func pooled(cells []*Cell, jc workload.JobConfig, policy string) *metrics.Series {
	out := &metrics.Series{Name: policy}
	for _, c := range cells {
		if c.Workload != jc {
			continue
		}
		if s := c.Series[policy]; s != nil {
			out.Runs = append(out.Runs, s.Runs...)
		}
	}
	return out
}
