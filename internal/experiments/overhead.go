package experiments

import (
	"fmt"
	"io"
	"time"

	"crossflow/internal/cluster"
	"crossflow/internal/core"
	"crossflow/internal/metrics"
	"crossflow/internal/workload"
)

// OverheadRow compares allocation overhead across policies for one job
// configuration — the paper's third conclusion is that the bidding
// contest "unnecessarily prolongs the execution" for small resources,
// and its future work proposes minimizing that overhead for highly
// local jobs (implemented here as the bidding-fast policy).
type OverheadRow struct {
	Workload workload.JobConfig
	Policy   string
	// MakespanSec is the mean end-to-end time.
	MakespanSec float64
	// AllocMS is the mean allocation latency (injection to queueing on a
	// worker) in milliseconds — the direct cost of the contest.
	AllocMS float64
	// Contests and Bids count the allocation rounds; ContestMsgs is the
	// wire traffic those rounds generated (requests plus bids).
	Contests    int
	Bids        int
	ContestMsgs int
}

// Overhead runs the small- and large-repository workloads under
// bidding, bidding-fast, and baseline on an all-equal fleet, isolating
// the cost of contesting every job.
func Overhead(opts SimOptions) ([]OverheadRow, error) {
	opts.Policies = nil
	for _, name := range []string{"bidding", "bidding-fast", "baseline"} {
		p, _ := core.PolicyByName(name)
		opts.Policies = append(opts.Policies, p)
	}
	cells, err := runCells([]cellKey{
		{workload.AllDiffSmall, cluster.AllEqual},
		{workload.AllDiffLarge, cluster.AllEqual},
	}, opts)
	if err != nil {
		return nil, err
	}
	var rows []OverheadRow
	for _, cell := range cells {
		for _, p := range opts.Policies {
			s := cell.Series[p.Name]
			if s == nil || s.Len() == 0 {
				continue
			}
			var allocMS float64
			var contests, bids, msgs int
			for _, r := range s.Runs {
				allocMS += float64(r.AllocLatency) / float64(time.Millisecond)
				contests += r.Contests
				bids += r.Bids
				msgs += r.ContestMsgs
			}
			rows = append(rows, OverheadRow{
				Workload:    cell.Workload,
				Policy:      p.Name,
				MakespanSec: s.MeanSeconds(),
				AllocMS:     allocMS / float64(s.Len()),
				Contests:    contests / s.Len(),
				Bids:        bids / s.Len(),
				ContestMsgs: msgs / s.Len(),
			})
		}
	}
	return rows, nil
}

// RenderOverhead prints the comparison.
func RenderOverhead(w io.Writer, rows []OverheadRow) {
	// Note the semantics: under bidding, allocation latency is the pure
	// contest cost (jobs then wait in worker queues); under the pull
	// baseline it is the time a job sits at the master until a worker
	// pulls it, i.e. queueing — structurally larger, but not overhead.
	t := &metrics.Table{
		Title: "Bidding overhead: contest cost per policy per workload (all-equal fleet)",
		Header: []string{"workload", "policy", "makespan", "mean alloc latency",
			"contests", "bids", "contest msgs"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload.String(), r.Policy,
			metrics.Seconds(r.MakespanSec),
			fmt.Sprintf("%.1fms", r.AllocMS),
			fmt.Sprintf("%d", r.Contests),
			fmt.Sprintf("%d", r.Bids),
			fmt.Sprintf("%d", r.ContestMsgs))
	}
	t.Render(w)
}
