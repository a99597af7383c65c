package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"crossflow/internal/metrics"
)

// SeedStudy aggregates headline statistics across several seeds,
// quantifying how robust the Bidding-vs-Baseline comparison is to
// workload and noise randomness — the "larger-scale evaluation" the
// paper lists as future work, in miniature.
type SeedStudy struct {
	Seeds     []int64
	Summaries []Summary
}

// RunSeedStudy executes the full grid for each seed, as one flat list
// of seeds × strands. An empty seed list is an error, not a study.
func RunSeedStudy(seeds []int64, opts SimOptions) (*SeedStudy, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiments: seed study needs at least one seed")
	}
	keys := gridKeys()
	cells, err := runCells(keys, opts, seeds...)
	if err != nil {
		return nil, err
	}
	study := &SeedStudy{Seeds: seeds}
	for i := range seeds {
		study.Summaries = append(study.Summaries, Summarize(cells[i*len(keys):(i+1)*len(keys)]))
	}
	return study, nil
}

// meanStd returns the mean and population standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Stat extracts one metric across the study's summaries.
func (s *SeedStudy) Stat(get func(Summary) float64) (mean, std float64) {
	xs := make([]float64, 0, len(s.Summaries))
	for _, sum := range s.Summaries {
		xs = append(xs, get(sum))
	}
	return meanStd(xs)
}

// WinRate returns the fraction of (cell, seed) pairs Bidding won.
func (s *SeedStudy) WinRate() float64 {
	var wins, cells int
	for _, sum := range s.Summaries {
		wins += sum.BiddingWins
		cells += sum.Cells
	}
	if cells == 0 {
		return 0
	}
	return float64(wins) / float64(cells)
}

// RenderSeedStudy prints per-seed rows plus mean ± std aggregates.
func RenderSeedStudy(w io.Writer, s *SeedStudy) {
	t := &metrics.Table{
		Title: "Seed-robustness study: Bidding vs Baseline headline metrics per seed",
		Header: []string{"seed", "max speedup", "avg time red.", "miss red.", "data red.",
			"cells won"},
	}
	for i, sum := range s.Summaries {
		t.AddRow(fmt.Sprintf("%d", s.Seeds[i]),
			metrics.Ratio(sum.MaxSpeedup),
			fmt.Sprintf("%.1f%%", sum.AvgSpeedupPct),
			fmt.Sprintf("%.1f%%", sum.MissReductionPct),
			fmt.Sprintf("%.1f%%", sum.DataReductionPct),
			fmt.Sprintf("%d/%d", sum.BiddingWins, sum.Cells))
	}
	avgTime, stdTime := s.Stat(func(x Summary) float64 { return x.AvgSpeedupPct })
	avgMiss, stdMiss := s.Stat(func(x Summary) float64 { return x.MissReductionPct })
	avgData, stdData := s.Stat(func(x Summary) float64 { return x.DataReductionPct })
	t.AddRow("mean±std",
		"",
		fmt.Sprintf("%.1f%%±%.1f", avgTime, stdTime),
		fmt.Sprintf("%.1f%%±%.1f", avgMiss, stdMiss),
		fmt.Sprintf("%.1f%%±%.1f", avgData, stdData),
		fmt.Sprintf("%.0f%% win rate", s.WinRate()*100))
	t.Render(w)
}
