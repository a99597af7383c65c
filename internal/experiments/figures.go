package experiments

import (
	"fmt"
	"io"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/metrics"
	"crossflow/internal/workload"
)

// Fig2Group is one column group of Figure 2.
type Fig2Group struct {
	Name        string
	Description string
	Profile     cluster.Profile
	Workload    workload.JobConfig
	SparkSec    float64
	CrossSec    float64
	PaperRatio  float64
}

// Ratio returns how many times longer the Spark-like run took.
func (g Fig2Group) Ratio() float64 {
	if g.CrossSec == 0 {
		return 0
	}
	return g.SparkSec / g.CrossSec
}

// Figure2 reproduces the §4 comparison: the MSR workload under the
// Spark-like centralized scheduler vs the Crossflow Baseline across the
// paper's four column groups.
func Figure2(opts SimOptions) ([]Fig2Group, error) {
	spark, _ := core.PolicyByName("spark-like")
	base, _ := core.PolicyByName("baseline")
	opts.Policies = []core.Policy{spark, base}
	if opts.Iterations == 0 {
		// Figure 2 compares cold, single executions: the paper ran each
		// framework fresh rather than over warm-cache iterations.
		opts.Iterations = 1
	}

	groups := []Fig2Group{
		{Name: "group-1", Description: Fig2Reported[0].Description,
			Profile: cluster.FastSlow, Workload: workload.AllDiffLarge, PaperRatio: 7.94},
		{Name: "group-2", Description: Fig2Reported[1].Description,
			Profile: cluster.AllEqual, Workload: workload.AllDiffSmall, PaperRatio: 2.3},
		{Name: "group-3", Description: Fig2Reported[2].Description,
			Profile: cluster.AllEqual, Workload: workload.AllDiffEqual},
		{Name: "group-4", Description: Fig2Reported[3].Description,
			Profile: cluster.FastSlow, Workload: workload.Rep80Large},
	}
	keys := make([]cellKey, len(groups))
	for i, g := range groups {
		keys[i] = cellKey{g.Workload, g.Profile}
	}
	cells, err := runCells(keys, opts)
	if err != nil {
		return nil, err
	}
	for i, cell := range cells {
		groups[i].SparkSec = cell.Series["spark-like"].MeanSeconds()
		groups[i].CrossSec = cell.Series["baseline"].MeanSeconds()
	}
	return groups, nil
}

// RenderFigure2 prints the group table with paper ratios alongside.
func RenderFigure2(w io.Writer, groups []Fig2Group) {
	t := &metrics.Table{
		Title:  "Figure 2: MSR execution time, Spark-like vs Crossflow Baseline",
		Header: []string{"group", "configuration", "spark-like", "crossflow", "ratio", "paper"},
	}
	for _, g := range groups {
		paper := "-"
		if g.PaperRatio > 0 {
			paper = metrics.Ratio(g.PaperRatio)
		}
		t.AddRow(g.Name, g.Description,
			metrics.Seconds(g.SparkSec), metrics.Seconds(g.CrossSec),
			metrics.Ratio(g.Ratio()), paper)
	}
	t.Render(w)
}

// Fig3Row is one workload's aggregate across all worker profiles.
type Fig3Row struct {
	Workload workload.JobConfig
	BidSec   float64
	BaseSec  float64
	BidMiss  float64
	BaseMiss float64
	BidMB    float64
	BaseMB   float64
	// BidMsgs and BaseMsgs are the mean contest-message counts — the
	// allocation wire traffic behind each policy's numbers. They feed
	// the CSV export; the rendered Figure 3 tables match the paper's
	// three charts and omit them.
	BidMsgs  float64
	BaseMsgs float64
}

func figure3FromCells(cells []*Cell) []Fig3Row {
	rows := make([]Fig3Row, 0, len(workload.JobConfigs))
	for _, jc := range workload.JobConfigs {
		bid := pooled(cells, jc, "bidding")
		base := pooled(cells, jc, "baseline")
		rows = append(rows, Fig3Row{
			Workload: jc,
			BidSec:   bid.MeanSeconds(),
			BaseSec:  base.MeanSeconds(),
			BidMiss:  bid.MeanMisses(),
			BaseMiss: base.MeanMisses(),
			BidMB:    bid.MeanDataMB(),
			BaseMB:   base.MeanDataMB(),
			BidMsgs:  bid.MeanContestMsgs(),
			BaseMsgs: base.MeanContestMsgs(),
		})
	}
	return rows
}

// RenderFigure3 prints the three charts of Figure 3 as tables.
func RenderFigure3(w io.Writer, rows []Fig3Row) {
	ta := &metrics.Table{
		Title:  "Figure 3a: average total execution time per workload (s)",
		Header: []string{"workload", "bidding", "baseline", "speedup"},
	}
	tb := &metrics.Table{
		Title:  "Figure 3b: average cache-miss count per workload",
		Header: []string{"workload", "bidding", "baseline", "reduction"},
	}
	tc := &metrics.Table{
		Title:  "Figure 3c: average data load per workload (MB)",
		Header: []string{"workload", "bidding", "baseline", "reduction"},
	}
	for _, r := range rows {
		speedup := 0.0
		if r.BidSec > 0 {
			speedup = r.BaseSec / r.BidSec
		}
		ta.AddRow(r.Workload.String(), metrics.Seconds(r.BidSec), metrics.Seconds(r.BaseSec),
			metrics.Ratio(speedup))
		tb.AddRow(r.Workload.String(), metrics.Count(r.BidMiss), metrics.Count(r.BaseMiss),
			metrics.Percent(metrics.Reduction(r.BidMiss, r.BaseMiss)))
		tc.AddRow(r.Workload.String(), metrics.MB(r.BidMB), metrics.MB(r.BaseMB),
			metrics.Percent(metrics.Reduction(r.BidMB, r.BaseMB)))
	}
	ta.Render(w)
	fmt.Fprintln(w)
	tb.Render(w)
	fmt.Fprintln(w)
	tc.Render(w)
	fmt.Fprintln(w)
	paper := &metrics.Table{
		Title:  "Paper-reported Figure 3 data points (for comparison)",
		Header: []string{"workload", "bid miss", "base miss", "bid MB", "base MB", "speedup"},
	}
	for _, p := range Fig3Reported {
		paper.AddRow(p.Workload, metrics.Count(p.BidMisses), metrics.Count(p.BaseMisses),
			metrics.MB(p.BidMB), metrics.MB(p.BaseMB), fmt.Sprintf("%.0f%%", p.SpeedupPct))
	}
	paper.Render(w)
}

// Fig4Row is one (workload, profile) execution-time cell.
type Fig4Row struct {
	Workload workload.JobConfig
	Profile  cluster.Profile
	BidSec   float64
	BaseSec  float64
}

func figure4FromCells(cells []*Cell) []Fig4Row {
	rows := make([]Fig4Row, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, Fig4Row{
			Workload: c.Workload,
			Profile:  c.Profile,
			BidSec:   c.Series["bidding"].MeanSeconds(),
			BaseSec:  c.Series["baseline"].MeanSeconds(),
		})
	}
	return rows
}

// RenderFigure4 prints the breakdown table.
func RenderFigure4(w io.Writer, rows []Fig4Row) {
	t := &metrics.Table{
		Title:  "Figure 4: average execution times per workload per worker configuration (s)",
		Header: []string{"workload", "workers", "bidding", "baseline", "bidding wins"},
	}
	for _, r := range rows {
		wins := "no"
		if r.BidSec < r.BaseSec {
			wins = "yes"
		}
		t.AddRow(r.Workload.String(), r.Profile.String(),
			metrics.Seconds(r.BidSec), metrics.Seconds(r.BaseSec), wins)
	}
	t.Render(w)
}

// FiguresFromGrid derives both Figure 3 and Figure 4 from one grid run,
// so a single sweep feeds both renderings.
func FiguresFromGrid(cells []*Cell) ([]Fig3Row, []Fig4Row) {
	return figure3FromCells(cells), figure4FromCells(cells)
}
