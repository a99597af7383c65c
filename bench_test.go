// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations over the design parameters DESIGN.md calls
// out. Each benchmark runs the corresponding experiment per iteration
// and reports the headline comparison as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers (shape, not absolute seconds) alongside
// the harness's own cost. The simulator's own throughput and the layer
// microbenches are internal/bench's suite.
package crossflow_test

import (
	"fmt"
	"testing"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/experiments"
	"crossflow/internal/workload"
)

// BenchmarkFigure2 regenerates the Spark-like vs Crossflow-Baseline
// comparison (Figure 2), one sub-benchmark per column group. The
// "spark_over_crossflow_ratio" metric is the paper's reported ratio dimension
// (7.94x for group-1, 2.3x for group-2).
func BenchmarkFigure2(b *testing.B) {
	groups := []struct {
		name    string
		profile cluster.Profile
		wl      workload.JobConfig
	}{
		{"group1_fastslow_large", cluster.FastSlow, workload.AllDiffLarge},
		{"group2_equal_small", cluster.AllEqual, workload.AllDiffSmall},
		{"group3_equal_nonrepetitive", cluster.AllEqual, workload.AllDiffEqual},
		{"group4_varying_repetitive", cluster.FastSlow, workload.Rep80Large},
	}
	for _, g := range groups {
		b.Run(g.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				spark, _ := core.PolicyByName("spark-like")
				base, _ := core.PolicyByName("baseline")
				cell, err := experiments.RunCell(g.wl, g.profile, experiments.SimOptions{
					Iterations: 1, Seed: 1,
					Policies: []core.Policy{spark, base},
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio = cell.Series["spark-like"].MeanSeconds() / cell.Series["baseline"].MeanSeconds()
			}
			b.ReportMetric(ratio, "spark_over_crossflow_ratio")
		})
	}
}

// BenchmarkFigure3 regenerates the per-workload aggregates (Figures
// 3a–3c): for each of the five job configurations, Bidding vs Baseline
// pooled over all four worker profiles with three warm-cache iterations.
// Metrics: end-to-end speedup, and the miss and data-load reductions.
func BenchmarkFigure3(b *testing.B) {
	for _, jc := range workload.JobConfigs {
		jc := jc
		b.Run(jc.String(), func(b *testing.B) {
			var speedup, missRed, dataRed float64
			for i := 0; i < b.N; i++ {
				var bidTime, baseTime, bidMiss, baseMiss, bidMB, baseMB float64
				for _, prof := range cluster.Profiles {
					cell, err := experiments.RunCell(jc, prof, experiments.SimOptions{Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					bid, base := cell.Series["bidding"], cell.Series["baseline"]
					bidTime += bid.MeanSeconds()
					baseTime += base.MeanSeconds()
					bidMiss += bid.MeanMisses()
					baseMiss += base.MeanMisses()
					bidMB += bid.MeanDataMB()
					baseMB += base.MeanDataMB()
				}
				speedup = baseTime / bidTime
				missRed = (baseMiss - bidMiss) / baseMiss
				dataRed = (baseMB - bidMB) / baseMB
			}
			b.ReportMetric(speedup, "speedup_ratio")
			b.ReportMetric(missRed*100, "miss_reduction_pct")
			b.ReportMetric(dataRed*100, "data_reduction_pct")
		})
	}
}

// BenchmarkFigure4 regenerates the execution-time breakdown per workload
// per worker configuration, one sub-benchmark per cell, reporting the
// Baseline/Bidding makespan ratio.
func BenchmarkFigure4(b *testing.B) {
	for _, jc := range workload.JobConfigs {
		for _, prof := range cluster.Profiles {
			jc, prof := jc, prof
			b.Run(fmt.Sprintf("%s/%s", jc, prof), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					cell, err := experiments.RunCell(jc, prof, experiments.SimOptions{Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					ratio = cell.Series["baseline"].MeanSeconds() / cell.Series["bidding"].MeanSeconds()
				}
				b.ReportMetric(ratio, "base_over_bidding_ratio")
			})
		}
	}
}

// BenchmarkTables1to3 regenerates the live MSR experiment behind Tables
// 1 (execution time), 2 (data load) and 3 (cache misses): the full
// pipeline, cold caches, probed and learned speeds. Metrics are per-run
// averages for both schedulers.
func BenchmarkTables1to3(b *testing.B) {
	var rows []experiments.TableRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tables(experiments.LiveOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	var bidSec, baseSec, bidMiss, baseMiss float64
	for _, r := range rows {
		bidSec += r.BidSec
		baseSec += r.BaseSec
		bidMiss += float64(r.BidMiss)
		baseMiss += float64(r.BaseMiss)
	}
	n := float64(len(rows))
	b.ReportMetric(bidSec/n, "bidding_sec")
	b.ReportMetric(baseSec/n, "baseline_sec")
	b.ReportMetric(bidMiss/n, "bidding_misses_count")
	b.ReportMetric(baseMiss/n, "baseline_misses_count")
}

// BenchmarkHeadlineSummary regenerates the paper's abstract-level
// claims from the full grid: max speedup ("up to 3.57x"), average time
// reduction (~24.5%), miss reduction (~49%), data reduction (~45.3%).
func BenchmarkHeadlineSummary(b *testing.B) {
	var s experiments.Summary
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Grid(experiments.SimOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		s = experiments.Summarize(cells)
	}
	b.ReportMetric(s.MaxSpeedup, "max_speedup_ratio")
	b.ReportMetric(s.AvgSpeedupPct, "avg_time_reduction_pct")
	b.ReportMetric(s.MissReductionPct, "miss_reduction_pct")
	b.ReportMetric(s.DataReductionPct, "data_reduction_pct")
}

// --- Ablations over the design choices DESIGN.md calls out ----------------

// BenchmarkAblationBidWindow varies the bidding threshold (the paper
// fixes it at 1s) on the repetitive-large workload.
func BenchmarkAblationBidWindow(b *testing.B) {
	for _, window := range []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second} {
		window := window
		b.Run(window.String(), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				bid, _ := core.PolicyByName("bidding")
				bid.NewAllocator = func() engine.Allocator {
					return &core.BiddingAllocator{Window: window}
				}
				cell, err := experiments.RunCell(workload.Rep80Large, cluster.AllEqual,
					experiments.SimOptions{Seed: 1, Policies: []core.Policy{bid}})
				if err != nil {
					b.Fatal(err)
				}
				mean = cell.Series["bidding"].MeanSeconds()
			}
			b.ReportMetric(mean, "makespan_sec")
		})
	}
}

// BenchmarkAblationCache varies per-worker storage, quantifying how
// eviction pressure stales the Bidding scheduler's at-arrival locality
// decisions (the calibration finding recorded in internal/cluster).
func BenchmarkAblationCache(b *testing.B) {
	for _, cacheMB := range []float64{10000, 20000, 50000} {
		cacheMB := cacheMB
		b.Run(fmt.Sprintf("%.0fMB", cacheMB), func(b *testing.B) {
			var missRed float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(workload.Rep80Large, cluster.FastSlow,
					experiments.SimOptions{Seed: 1, Cluster: cluster.Options{CacheMB: cacheMB}})
				if err != nil {
					b.Fatal(err)
				}
				missRed = (cell.Series["baseline"].MeanMisses() -
					cell.Series["bidding"].MeanMisses()) / cell.Series["baseline"].MeanMisses()
			}
			b.ReportMetric(missRed*100, "miss_reduction_pct")
		})
	}
}

// BenchmarkAblationNoise varies the execution-time speed noise; bids use
// believed speeds, so noise is what separates estimates from actuals.
func BenchmarkAblationNoise(b *testing.B) {
	for _, noise := range []float64{-1, 0.2, 0.4} {
		noise := noise
		name := fmt.Sprintf("amp=%.1f", noise)
		if noise < 0 {
			name = "amp=0.0"
		}
		b.Run(name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(workload.Rep80Large, cluster.FastSlow,
					experiments.SimOptions{Seed: 1, Cluster: cluster.Options{NoiseAmp: noise}})
				if err != nil {
					b.Fatal(err)
				}
				speedup = cell.Series["baseline"].MeanSeconds() / cell.Series["bidding"].MeanSeconds()
			}
			b.ReportMetric(speedup, "speedup_ratio")
		})
	}
}

// BenchmarkAblationSchedulers runs every policy on one mid-size workload
// so their makespans can be compared in a single table.
func BenchmarkAblationSchedulers(b *testing.B) {
	for _, pol := range core.Policies() {
		pol := pol
		b.Run(pol.Name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				cell, err := experiments.RunCell(workload.Rep80Large, cluster.FastSlow,
					experiments.SimOptions{Seed: 1, Policies: []core.Policy{pol}})
				if err != nil {
					b.Fatal(err)
				}
				mean = cell.Series[pol.Name].MeanSeconds()
			}
			b.ReportMetric(mean, "makespan_sec")
		})
	}
}
