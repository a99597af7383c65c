// Command xflow-experiments regenerates every table and figure of the
// paper's evaluation. Each experiment prints the paper-reported values
// next to the measured ones.
//
// Usage:
//
//	xflow-experiments -run all            # everything (default)
//	xflow-experiments -run fig2           # Spark-like vs Crossflow Baseline
//	xflow-experiments -run fig3           # per-workload aggregates (3a–3c)
//	xflow-experiments -run fig4           # per-configuration breakdown
//	xflow-experiments -run tables         # live MSR Tables 1–3
//	xflow-experiments -run summary        # headline statistics
//	xflow-experiments -run cell -workload 80%_large -workers fast-slow
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/experiments"
	"crossflow/internal/metrics"
	"crossflow/internal/workload"
)

func main() {
	var (
		run        = flag.String("run", "all", "experiment: all|fig2|fig3|fig4|tables|summary|seeds|overhead|cell")
		seed       = flag.Int64("seed", 1, "random seed for workloads and noise")
		iterations = flag.Int("iterations", 3, "iterations per configuration (warm caches)")
		jobs       = flag.Int("jobs", 120, "jobs per workflow run")
		wlName     = flag.String("workload", "80%_large", "workload for -run cell")
		profName   = flag.String("workers", "fast-slow", "worker profile for -run cell")
		liveRuns   = flag.Int("live-runs", 3, "repetitions of the live MSR experiment")
		liveRepos  = flag.Int("live-repos", 100, "repositories in the live MSR catalog")
		liveLibs   = flag.Int("live-libraries", 5, "libraries in the live MSR stream")
		seedCount  = flag.Int("seeds", 5, "number of seeds for -run seeds")
		csvDir     = flag.String("csv", "", "directory to also write figure/table CSVs into")
	)
	flag.Parse()
	csvOut = *csvDir

	opts := experiments.SimOptions{Iterations: *iterations, Jobs: *jobs, Seed: *seed}
	liveOpts := experiments.LiveOptions{
		Runs: *liveRuns, Repos: *liveRepos, Libraries: *liveLibs, Seed: *seed,
	}

	start := time.Now()
	var err error
	switch *run {
	case "fig2":
		err = experiments.WriteFigure2(os.Stdout, opts)
	case "fig3":
		err = runGrid(opts, true, false, false)
	case "fig4":
		err = runGrid(opts, false, true, false)
	case "summary":
		err = runGrid(opts, false, false, true)
	case "tables":
		err = experiments.WriteTables(os.Stdout, liveOpts)
	case "seeds":
		if *seedCount < 1 {
			fmt.Fprintf(os.Stderr, "xflow-experiments: -seeds %d: need at least 1\n", *seedCount)
			os.Exit(2)
		}
		err = runSeeds(*seedCount, opts)
	case "overhead":
		err = runOverhead(opts)
	case "cell":
		err = runCell(*wlName, *profName, opts)
	case "all":
		var rows3 []experiments.Fig3Row
		var rows4 []experiments.Fig4Row
		if rows3, rows4, err = experiments.All(os.Stdout, opts, liveOpts); err == nil && csvOut != "" {
			err = writeGridCSV(csvOut, rows3, rows4)
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xflow-experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("\n(completed in %v of wall time)\n", time.Since(start).Round(time.Millisecond))
}

func runOverhead(opts experiments.SimOptions) error {
	rows, err := experiments.Overhead(opts)
	if err != nil {
		return err
	}
	experiments.RenderOverhead(os.Stdout, rows)
	return nil
}

// runSeeds executes the full grid for n consecutive seeds.
func runSeeds(n int, opts experiments.SimOptions) error {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = opts.Seed + int64(i)
	}
	study, err := experiments.RunSeedStudy(seeds, opts)
	if err != nil {
		return err
	}
	experiments.RenderSeedStudy(os.Stdout, study)
	return nil
}

// runGrid executes the full workload × profile sweep once and renders
// any combination of Figure 3, Figure 4 and the summary from it.
func runGrid(opts experiments.SimOptions, fig3, fig4, summary bool) error {
	cells, err := experiments.Grid(opts)
	if err != nil {
		return err
	}
	rows3, rows4 := experiments.FiguresFromGrid(cells)
	if dir := csvOut; dir != "" {
		if err := writeGridCSV(dir, rows3, rows4); err != nil {
			return err
		}
	}
	if fig3 {
		experiments.RenderFigure3(os.Stdout, rows3)
		fmt.Println()
	}
	if fig4 {
		experiments.RenderFigure4(os.Stdout, rows4)
		fmt.Println()
	}
	if summary {
		experiments.RenderSummary(os.Stdout, experiments.Summarize(cells))
	}
	return nil
}

func runCell(wlName, profName string, opts experiments.SimOptions) error {
	jc, err := workload.ParseJobConfig(wlName)
	if err != nil {
		return err
	}
	prof, err := cluster.ParseProfile(profName)
	if err != nil {
		return err
	}
	cell, err := experiments.RunCell(jc, prof, opts)
	if err != nil {
		return err
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("Cell %s / %s (%d iterations)", jc, prof, opts.Iterations),
		Header: []string{"policy", "mean time", "mean misses", "mean data (MB)", "mean contest msgs"},
	}
	for _, pol := range []string{"bidding", "baseline"} {
		if s := cell.Series[pol]; s != nil {
			t.AddRow(pol, metrics.Seconds(s.MeanSeconds()),
				metrics.Count(s.MeanMisses()), metrics.MB(s.MeanDataMB()),
				metrics.Count(s.MeanContestMsgs()))
		}
	}
	t.Render(os.Stdout)
	return nil
}

// csvOut is the optional CSV output directory set by -csv.
var csvOut string

// writeGridCSV exports the Figure 3 and Figure 4 series for plotting.
func writeGridCSV(dir string, rows3 []experiments.Fig3Row, rows4 []experiments.Fig4Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f3 := &metrics.Table{Header: []string{"workload", "bidding_s", "baseline_s",
		"bidding_misses", "baseline_misses", "bidding_mb", "baseline_mb",
		"bidding_contest_msgs", "baseline_contest_msgs"}}
	for _, r := range rows3 {
		f3.AddRow(r.Workload.String(),
			fmt.Sprintf("%.2f", r.BidSec), fmt.Sprintf("%.2f", r.BaseSec),
			fmt.Sprintf("%.2f", r.BidMiss), fmt.Sprintf("%.2f", r.BaseMiss),
			fmt.Sprintf("%.2f", r.BidMB), fmt.Sprintf("%.2f", r.BaseMB),
			fmt.Sprintf("%.2f", r.BidMsgs), fmt.Sprintf("%.2f", r.BaseMsgs))
	}
	f4 := &metrics.Table{Header: []string{"workload", "workers", "bidding_s", "baseline_s"}}
	for _, r := range rows4 {
		f4.AddRow(r.Workload.String(), r.Profile.String(),
			fmt.Sprintf("%.2f", r.BidSec), fmt.Sprintf("%.2f", r.BaseSec))
	}
	for name, tb := range map[string]*metrics.Table{"figure3.csv": f3, "figure4.csv": f4} {
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			return err
		}
		if err := tb.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
