package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crossflow/internal/engine"
)

func TestFromReport(t *testing.T) {
	r := &engine.Report{
		Makespan:    90 * time.Second,
		CacheMisses: 7,
		CacheHits:   3,
		DataLoadMB:  1234.5,
		Tally: engine.Tally{
			JobsCompleted: 10,
			Contests:      10,
			Bids:          50,
			Offers:        2,
			Rejections:    1,
			Fallbacks:     1,
		},
	}
	s := FromReport(r)
	if s.Makespan != 90*time.Second || s.CacheMisses != 7 || s.DataLoadMB != 1234.5 ||
		s.Jobs != 10 || s.Bids != 50 || s.Fallbacks != 1 {
		t.Errorf("FromReport = %+v", s)
	}
}

func TestSeriesMeans(t *testing.T) {
	var s Series
	if s.MeanSeconds() != 0 || s.MeanMisses() != 0 || s.MeanDataMB() != 0 {
		t.Error("empty series means not zero")
	}
	s.Add(RunSummary{Makespan: 10 * time.Second, CacheMisses: 4, DataLoadMB: 100})
	s.Add(RunSummary{Makespan: 20 * time.Second, CacheMisses: 6, DataLoadMB: 300})
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.MeanSeconds(); got != 15 {
		t.Errorf("MeanSeconds = %v", got)
	}
	if got := s.MeanMisses(); got != 5 {
		t.Errorf("MeanMisses = %v", got)
	}
	if got := s.MeanDataMB(); got != 200 {
		t.Errorf("MeanDataMB = %v", got)
	}
}

func TestSpeedupAndReduction(t *testing.T) {
	fast := &Series{Runs: []RunSummary{{Makespan: 10 * time.Second}}}
	slow := &Series{Runs: []RunSummary{{Makespan: 35 * time.Second}}}
	if got := Speedup(fast, slow); got != 3.5 {
		t.Errorf("Speedup = %v", got)
	}
	empty := &Series{}
	if got := Speedup(empty, slow); got != 0 {
		t.Errorf("Speedup with empty numerator = %v", got)
	}
	if got := Reduction(55, 100); got != 0.45 {
		t.Errorf("Reduction = %v", got)
	}
	if got := Reduction(55, 0); got != 0 {
		t.Errorf("Reduction with zero base = %v", got)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := &Table{
		Title:  "Table 1: MSR execution times",
		Header: []string{"MSR", "Bidding", "Baseline"},
	}
	tb.AddRow("run 1", "3204.50s", "3575.55s")
	tb.AddRow("run 2 longer", "2918.50s")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Table 1") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "Bidding") || !strings.Contains(lines[2], "---") {
		t.Errorf("header/separator wrong:\n%s", out)
	}
	// Column alignment: "Bidding" starts at the same offset in header and
	// first data row.
	hIdx := strings.Index(lines[1], "Bidding")
	rIdx := strings.Index(lines[3], "3204.50s")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableMissingCellsRenderEmpty(t *testing.T) {
	tb := &Table{Header: []string{"a", "b", "c"}}
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Errorf("row lost: %s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		Seconds(3204.5): "3204.50s",
		MB(5270.866):    "5270.87",
		Count(22.654):   "22.65",
		Ratio(3.566):    "3.57x",
		Percent(0.453):  "45.3%",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("formatter = %q, want %q", got, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	tb.AddRow("only")
	tb.AddRow("x", "y", "overflow")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\nonly,\nx,y\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestFlowStats(t *testing.T) {
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	records := map[string]*engine.JobRecord{}
	for i := 1; i <= 100; i++ {
		records[fmt.Sprintf("j%03d", i)] = &engine.JobRecord{
			Status:   engine.StatusFinished,
			Injected: base,
			Finished: base.Add(time.Duration(i) * time.Second),
		}
	}
	records["unfinished"] = &engine.JobRecord{Status: engine.StatusQueued, Injected: base}
	f := Flow(records)
	if f.Count != 100 {
		t.Fatalf("Count = %d", f.Count)
	}
	if f.P50 != 50*time.Second || f.P90 != 90*time.Second || f.Max != 100*time.Second {
		t.Errorf("percentiles = %v/%v/%v", f.P50, f.P90, f.Max)
	}
	if f.Mean != 50500*time.Millisecond {
		t.Errorf("Mean = %v", f.Mean)
	}
	if empty := Flow(nil); empty.Count != 0 || empty.Max != 0 {
		t.Errorf("empty flow = %+v", empty)
	}
}
