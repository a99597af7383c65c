package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/metrics"
	"crossflow/internal/workload"
)

// small keeps test sweeps quick: one iteration of 20 jobs.
func small() SimOptions {
	return SimOptions{Iterations: 1, Jobs: 20, Seed: 1}
}

func TestRunCellProducesBothSeries(t *testing.T) {
	cell, err := RunCell(workload.Rep80Large, cluster.AllEqual, small())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bidding", "baseline"} {
		s := cell.Series[name]
		if s == nil || s.Len() != 1 {
			t.Fatalf("series %q = %v", name, s)
		}
		if s.Runs[0].Jobs != 20 {
			t.Errorf("%s completed %d jobs", name, s.Runs[0].Jobs)
		}
		if s.MeanSeconds() <= 0 {
			t.Errorf("%s mean time = %v", name, s.MeanSeconds())
		}
	}
}

func TestRunCellIterationsWarmCaches(t *testing.T) {
	opts := small()
	opts.Iterations = 2
	cell, err := RunCell(workload.AllDiffSmall, cluster.AllEqual, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := cell.Series["bidding"].Runs
	if len(runs) != 2 {
		t.Fatalf("iterations = %d", len(runs))
	}
	if runs[1].CacheMisses >= runs[0].CacheMisses {
		t.Errorf("warm run misses %d not below cold %d", runs[1].CacheMisses, runs[0].CacheMisses)
	}
}

func TestRunCellCustomPolicies(t *testing.T) {
	mm, _ := core.PolicyByName("matchmaking")
	opts := small()
	opts.Policies = []core.Policy{mm}
	cell, err := RunCell(workload.AllDiffSmall, cluster.AllEqual, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Series["matchmaking"] == nil || cell.Series["bidding"] != nil {
		t.Errorf("series = %v", cell.Series)
	}
}

func TestGridCoversAllCombinations(t *testing.T) {
	cells, err := Grid(small())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(workload.JobConfigs) * len(cluster.Profiles); len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		seen[c.Workload.String()+"/"+c.Profile.String()] = true
	}
	if len(seen) != len(cells) {
		t.Error("duplicate cells in grid")
	}
}

func TestFiguresFromGridShapes(t *testing.T) {
	cells, err := Grid(small())
	if err != nil {
		t.Fatal(err)
	}
	rows3, rows4 := FiguresFromGrid(cells)
	if len(rows3) != len(workload.JobConfigs) {
		t.Errorf("fig3 rows = %d", len(rows3))
	}
	for _, r := range rows3 {
		if r.BidSec <= 0 || r.BaseSec <= 0 {
			t.Errorf("fig3 row %s has zero time", r.Workload)
		}
	}
	if len(rows4) != len(cells) {
		t.Errorf("fig4 rows = %d", len(rows4))
	}
}

func TestFigure2ColdSingleRuns(t *testing.T) {
	opts := small()
	opts.Iterations = 0 // let Figure2 pick its cold default
	opts.Jobs = 16
	groups, err := Figure2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Group 1 is the paper's flagship case: heterogeneous workers and
	// large repositories must hurt the centralized scheduler.
	if groups[0].Ratio() <= 1 {
		t.Errorf("group-1 ratio = %.2f, want spark-like slower", groups[0].Ratio())
	}
	for _, g := range groups {
		if g.SparkSec <= 0 || g.CrossSec <= 0 {
			t.Errorf("group %s has zero time", g.Name)
		}
	}
	var zero Fig2Group
	if zero.Ratio() != 0 {
		t.Error("zero group ratio should be 0")
	}
}

func TestSummarizeMath(t *testing.T) {
	mk := func(wl workload.JobConfig, prof cluster.Profile, bidS, baseS float64,
		bidMiss, baseMiss float64) *Cell {
		bid := &metrics.Series{Name: "bidding"}
		bid.Add(metrics.RunSummary{
			Makespan:    time.Duration(bidS * float64(time.Second)),
			CacheMisses: int(bidMiss), DataLoadMB: bidMiss * 10,
		})
		base := &metrics.Series{Name: "baseline"}
		base.Add(metrics.RunSummary{
			Makespan:    time.Duration(baseS * float64(time.Second)),
			CacheMisses: int(baseMiss), DataLoadMB: baseMiss * 10,
		})
		return &Cell{Workload: wl, Profile: prof,
			Series: map[string]*metrics.Series{"bidding": bid, "baseline": base}}
	}
	cells := []*Cell{
		mk(workload.AllDiffEqual, cluster.AllEqual, 100, 200, 10, 20), // 2x, 50% red
		mk(workload.Rep80Large, cluster.OneSlow, 100, 400, 10, 40),    // 4x
	}
	s := Summarize(cells)
	if s.Cells != 2 || s.BiddingWins != 2 {
		t.Errorf("cells/wins = %d/%d", s.Cells, s.BiddingWins)
	}
	if s.MaxSpeedup != 4 || !strings.Contains(s.MaxSpeedupCell, "80%_large") {
		t.Errorf("max speedup = %v at %q", s.MaxSpeedup, s.MaxSpeedupCell)
	}
	if s.AvgSpeedupPct != 62.5 { // mean of 50% and 75%
		t.Errorf("AvgSpeedupPct = %v", s.AvgSpeedupPct)
	}
	if diff := s.MissReductionPct - (60.0-20.0)/60.0*100; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("MissReductionPct = %v", s.MissReductionPct)
	}
	// Incomplete cells are skipped, not crashed on.
	cells = append(cells, &Cell{Series: map[string]*metrics.Series{}})
	if got := Summarize(cells); got.Cells != 2 {
		t.Errorf("incomplete cell counted: %d", got.Cells)
	}
}

func TestTablesSmall(t *testing.T) {
	rows, err := Tables(LiveOptions{
		Runs: 1, Libraries: 2, Repos: 10, Workers: 3, Seed: 1,
		ResultInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.BidSec <= 0 || r.BaseSec <= 0 || r.BidMiss <= 0 || r.BaseMiss <= 0 {
		t.Errorf("degenerate row: %+v", r)
	}
	// 2 libraries x 10 repos: at least 10 clones, at most 20 per side.
	if r.BidMiss < 10 || r.BidMiss > 20 {
		t.Errorf("BidMiss = %d outside [10,20]", r.BidMiss)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	cells, err := Grid(small())
	if err != nil {
		t.Fatal(err)
	}
	rows3, rows4 := FiguresFromGrid(cells)

	var b strings.Builder
	RenderFigure3(&b, rows3)
	if !strings.Contains(b.String(), "Figure 3a") || !strings.Contains(b.String(), "80%_large") {
		t.Error("figure 3 rendering incomplete")
	}
	b.Reset()
	RenderFigure4(&b, rows4)
	if !strings.Contains(b.String(), "Figure 4") || !strings.Contains(b.String(), "fast-slow") {
		t.Error("figure 4 rendering incomplete")
	}
	b.Reset()
	RenderSummary(&b, Summarize(cells))
	if !strings.Contains(b.String(), "max speedup") || !strings.Contains(b.String(), "3.57x") {
		t.Error("summary rendering incomplete")
	}
	b.Reset()
	RenderFigure2(&b, []Fig2Group{{Name: "group-1", PaperRatio: 7.94, SparkSec: 10, CrossSec: 5}})
	if !strings.Contains(b.String(), "7.94x") || !strings.Contains(b.String(), "2.00x") {
		t.Errorf("figure 2 rendering incomplete:\n%s", b.String())
	}
	b.Reset()
	RenderTables(&b, []TableRow{{Run: "run 1", BidSec: 1, BaseSec: 2, BidMiss: 3, BaseMiss: 4}})
	out := b.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "3575.55s"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables rendering missing %q", want)
		}
	}
}

func TestPaperDataConsistency(t *testing.T) {
	if Headline.MaxSpeedup != 3.57 || Headline.MissReductionPct != 49.0 {
		t.Errorf("headline constants drifted: %+v", Headline)
	}
	if len(TablesReported) != 3 {
		t.Fatalf("TablesReported rows = %d", len(TablesReported))
	}
	for _, r := range TablesReported {
		if r.BiddingSec >= r.BaselineSec {
			t.Errorf("%s: paper bidding (%v) not faster than baseline (%v)",
				r.Run, r.BiddingSec, r.BaselineSec)
		}
		if r.BiddingMiss >= r.BaselineMiss || r.BiddingMB >= r.BaselineMB {
			t.Errorf("%s: paper locality metrics inverted", r.Run)
		}
	}
	if len(Fig2Reported) != 4 || Fig2Reported[0].SparkOverCrossflow != 7.94 {
		t.Errorf("Fig2Reported drifted: %+v", Fig2Reported)
	}
	if len(WorkloadNames()) != 5 {
		t.Errorf("WorkloadNames = %v", WorkloadNames())
	}
}

func TestSeedStudy(t *testing.T) {
	study, err := RunSeedStudy([]int64{1, 2}, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Seeds) != 2 || len(study.Summaries) != 2 {
		t.Fatalf("study shape: %d seeds, %d summaries", len(study.Seeds), len(study.Summaries))
	}
	if rate := study.WinRate(); rate < 0 || rate > 1 {
		t.Errorf("WinRate = %v", rate)
	}
	mean, std := study.Stat(func(s Summary) float64 { return s.AvgSpeedupPct })
	if mean == 0 && std == 0 {
		t.Error("Stat produced all zeros")
	}
	var b strings.Builder
	RenderSeedStudy(&b, study)
	if !strings.Contains(b.String(), "mean±std") || !strings.Contains(b.String(), "win rate") {
		t.Errorf("seed study rendering incomplete:\n%s", b.String())
	}
	empty := &SeedStudy{}
	if empty.WinRate() != 0 {
		t.Error("empty study win rate != 0")
	}
	if m, s := empty.Stat(func(Summary) float64 { return 1 }); m != 0 || s != 0 {
		t.Error("empty study stat != 0")
	}
}

// An empty seed list used to run opts.Seed's whole grid, throw it away
// and render an empty table with a "0% win rate".
func TestSeedStudyRejectsNoSeeds(t *testing.T) {
	var built atomic.Int32
	pol, _ := core.PolicyByName("bidding")
	inner := pol.NewAllocator
	pol.NewAllocator = func() engine.Allocator {
		built.Add(1)
		return inner()
	}
	opts := small()
	opts.Policies = []core.Policy{pol}
	for _, seeds := range [][]int64{nil, {}} {
		if study, err := RunSeedStudy(seeds, opts); err == nil || study != nil {
			t.Errorf("RunSeedStudy(%v) = %v, %v; want no study and an error", seeds, study, err)
		}
	}
	if n := built.Load(); n != 0 {
		t.Errorf("%d strands ran for an empty seed list", n)
	}
}

func TestOverheadExperiment(t *testing.T) {
	rows, err := Overhead(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 2 workloads x 3 policies
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MakespanSec <= 0 {
			t.Errorf("%s/%s: zero makespan", r.Workload, r.Policy)
		}
		switch r.Policy {
		case "bidding", "bidding-fast":
			if r.Contests == 0 || r.Bids == 0 {
				t.Errorf("%s/%s: no contest traffic", r.Workload, r.Policy)
			}
		case "baseline":
			if r.Contests != 0 {
				t.Errorf("baseline ran %d contests", r.Contests)
			}
		}
	}
	var b strings.Builder
	RenderOverhead(&b, rows)
	if !strings.Contains(b.String(), "bidding-fast") {
		t.Error("overhead rendering incomplete")
	}
}

// twoIter is small with a second, warm-cache iteration, so a strand's
// iterations sharing worker state is part of what is compared.
func twoIter() SimOptions {
	o := small()
	o.Iterations = 2
	return o
}

// gridAt runs the grid with procs Ps and renders everything derived
// from it.
func gridAt(t *testing.T, procs int, opts SimOptions) ([]*Cell, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cells, err := Grid(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cells, renderGrid(cells)
}

func renderGrid(cells []*Cell) string {
	rows3, rows4 := FiguresFromGrid(cells)
	var b strings.Builder
	RenderFigure3(&b, rows3)
	RenderFigure4(&b, rows4)
	RenderSummary(&b, Summarize(cells))
	return b.String()
}

// Strands are deterministic and independent, so the number of cores
// changes wall time only.
func TestGridSerialParallelEquivalence(t *testing.T) {
	serial, serialOut := gridAt(t, 1, twoIter())
	parallel, parallelOut := gridAt(t, 4, twoIter())
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("GOMAXPROCS 1 and 4 produced different run summaries")
	}
	if serialOut != parallelOut {
		t.Errorf("rendered figures differ:\n--- GOMAXPROCS=1\n%s\n--- GOMAXPROCS=4\n%s", serialOut, parallelOut)
	}

	// The seed study is the same strands, flattened over seeds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	seeds := []int64{1, 2}
	study, err := RunSeedStudy(seeds, twoIter())
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		o := twoIter()
		o.Seed = seed
		cells, err := Grid(o)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := study.Summaries[i], Summarize(cells); got != want {
			t.Errorf("seed %d: study summary %+v, its own grid %+v", seed, got, want)
		}
	}
}

func TestConcurrentGridsAgreeWithSerial(t *testing.T) {
	_, want := gridAt(t, 1, twoIter())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := make([]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells, err := Grid(twoIter())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = renderGrid(cells)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("concurrent grid %d differs from the serial one", i)
		}
	}
}

// brokenPolicy builds no allocator, so engine.Run refuses its strand.
func brokenPolicy(name string) core.Policy {
	return core.Policy{
		Name:         name,
		NewAllocator: func() engine.Allocator { return nil },
		NewAgent:     func(*engine.WorkerState) engine.Agent { return core.NewBiddingAgent() },
		Concurrent:   true,
	}
}

func TestGridReportsTheFirstFailingStrand(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bid, _ := core.PolicyByName("bidding")
	opts := small()
	opts.Policies = []core.Policy{bid, brokenPolicy("broken-1"), brokenPolicy("broken-2")}
	// Every cell has two failing strands; the serial loop stops at the
	// first cell's first.
	want := fmt.Sprintf("broken-1 on %s/%s", workload.JobConfigs[0], cluster.Profiles[0])
	for round := 0; round < 20; round++ {
		_, err := Grid(opts)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("round %d: err = %v, want the strand %q", round, err, want)
		}
	}
}

func TestPanickingStrandPanicsTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	bid, _ := core.PolicyByName("bidding")
	bad := brokenPolicy("panics")
	bad.NewAllocator = func() engine.Allocator { panic("allocator blew up") }
	opts := small()
	opts.Policies = []core.Policy{bid, bad}

	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_, err := Grid(opts)
		t.Errorf("Grid returned (err = %v) past a panicking strand", err)
	}()
	select {
	case p := <-done:
		if !strings.Contains(fmt.Sprint(p), "allocator blew up") {
			t.Errorf("recovered %v, want the strand's panic", p)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Grid hung on a panicking strand")
	}
}

// Series is keyed by policy name: a repeated name used to lose one
// strand's result without a word.
func TestDuplicatePolicyNamesRejected(t *testing.T) {
	bid, _ := core.PolicyByName("bidding")
	opts := small()
	opts.Policies = []core.Policy{bid, bid}
	if _, err := RunCell(workload.AllDiffSmall, cluster.AllEqual, opts); err == nil ||
		!strings.Contains(err.Error(), `"bidding"`) {
		t.Errorf("err = %v, want a duplicate-name error", err)
	}
}

// A policy that does not declare itself Concurrent keeps the contract it
// was written under: the sweep's runs happen back to back, in the serial
// order, on however many cores.
func TestNonConcurrentPolicyRunsBackToBack(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var order []string // unsynchronised: -race sees any overlap
	counting := func(name string) core.Policy {
		pol, _ := core.PolicyByName(name)
		inner := pol.NewAllocator
		pol.NewAllocator = func() engine.Allocator {
			order = append(order, name)
			return inner()
		}
		pol.Concurrent = false
		return pol
	}
	opts := twoIter()
	opts.Policies = []core.Policy{counting("bidding"), counting("baseline")}
	got, err := Grid(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for range got {
		want = append(want, "bidding", "bidding", "baseline", "baseline")
	}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("allocators were built in the order %v, want two iterations per strand, strand after strand", order)
	}
	if plain, _ := gridAt(t, 4, twoIter()); !reflect.DeepEqual(got, plain) {
		t.Error("the back-to-back sweep and the parallel one produced different run summaries")
	}
}
