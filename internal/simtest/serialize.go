package simtest

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crossflow/internal/engine"
	"crossflow/internal/vclock"
)

// FormatTrace serializes an allocation trace to a canonical text form:
// one line per event, in trace order, timestamps as nanoseconds since
// the simulation epoch. Two runs are behaviorally identical exactly
// when their serialized traces are byte-identical.
func FormatTrace(events []engine.TraceEvent) string {
	var b strings.Builder
	for _, ev := range events {
		fmt.Fprintf(&b, "%d %s %s %s\n",
			ev.At.Sub(vclock.Epoch).Nanoseconds(), ev.Kind, ev.JobID, ev.Node)
	}
	return b.String()
}

// FormatReport serializes a run report to a canonical text form with a
// stable field order, worker rows sorted by name and job records by ID.
// Nil (a run that deadlocked before producing a report) serializes to a
// distinguished marker so diffing still works.
func FormatReport(rep *engine.Report) string {
	if rep == nil {
		return "report: nil\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "allocator %s\n", rep.Allocator)
	fmt.Fprintf(&b, "makespan %d\n", rep.Makespan.Nanoseconds())
	fmt.Fprintf(&b, "completed %d failed %d redispatched %d\n",
		rep.JobsCompleted, rep.JobsFailed, rep.Redispatched)
	fmt.Fprintf(&b, "cache hits %d misses %d evictions %d\n",
		rep.CacheHits, rep.CacheMisses, rep.Evictions)
	fmt.Fprintf(&b, "data %.6f MB downloads %d\n", rep.DataLoadMB, rep.Downloads)
	fmt.Fprintf(&b, "offers %d rejections %d contests %d contest-msgs %d bids %d fallbacks %d\n",
		rep.Offers, rep.Rejections, rep.Contests, rep.ContestMsgs, rep.Bids, rep.Fallbacks)
	fmt.Fprintf(&b, "alloc latency %d\n", rep.MeanAllocLatency.Nanoseconds())

	workers := append([]engine.WorkerReport(nil), rep.Workers...)
	sort.Slice(workers, func(i, j int) bool { return workers[i].Name < workers[j].Name })
	for _, w := range workers {
		fmt.Fprintf(&b, "worker %s done %d hits %d misses %d evictions %d data %.6f downloads %d busy %d\n",
			w.Name, w.JobsDone, w.CacheHits, w.CacheMisses, w.Evictions,
			w.DataLoadMB, w.Downloads, w.BusyTime.Nanoseconds())
	}

	ids := make([]string, 0, len(rep.Records))
	for id := range rep.Records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := rep.Records[id]
		fmt.Fprintf(&b, "record %s status %s worker %s injected %d queued %d finished %d\n",
			id, rec.Status, rec.Worker, ns(rec.Injected), ns(rec.Queued), ns(rec.Finished))
	}

	fmt.Fprintf(&b, "results %d\n", len(rep.Results))
	return b.String()
}

func ns(t time.Time) int64 {
	if t.IsZero() {
		return -1
	}
	return t.Sub(vclock.Epoch).Nanoseconds()
}
