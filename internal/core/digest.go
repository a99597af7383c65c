package core

import (
	"fmt"
	"sort"
	"strings"
)

// State digests for the model checker (internal/modelcheck): each
// allocator that keeps protocol state between events renders it in a
// canonical order so two exploration paths reaching the same state
// produce byte-identical fingerprints. Bid lists keep arrival order —
// it is part of the state (among equal estimate and name the earliest
// arrival wins) — while map-keyed collections are emitted sorted.

// StateDigest implements engine.StateDigester.
func (b *BiddingAllocator) StateDigest() string {
	var out strings.Builder
	b.book.digest(&out)
	return out.String()
}

// StateDigest implements engine.StateDigester.
func (b *TopKAllocator) StateDigest() string {
	b.init()
	var out strings.Builder
	b.book.digest(&out)
	ids := make([]string, 0, len(b.assignedCost))
	for id := range b.assignedCost {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&out, "cost %s=%d\n", id, b.assignedCost[id])
	}
	out.WriteString(b.index.Digest())
	return out.String()
}

// StateDigest implements engine.StateDigester: the pull queue and the
// parked pulls, both in FIFO order.
func (b *BaselineAllocator) StateDigest() string {
	return fmt.Sprintf("pending=%s waiting=%s\n", strings.Join(b.pending, ","), strings.Join(b.waiting, ","))
}

// StateDigest implements engine.StateDigester: the jobs declined once.
func (a *BaselineAgent) StateDigest() string {
	ids := make([]string, 0, len(a.declined))
	for id := range a.declined {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return "declined=" + strings.Join(ids, ",") + "\n"
}

// StateDigest implements engine.StateDigester: the pull queue in order.
func (m *MatchmakingAllocator) StateDigest() string {
	return "pending=" + strings.Join(m.pending, ",") + "\n"
}

// StateDigest implements engine.StateDigester: the empty pulls since
// the last finished job.
func (a *MatchmakingAgent) StateDigest() string {
	return fmt.Sprintf("strikes=%d\n", a.strikes.Load())
}

// StateDigest implements engine.StateDigester: the pull queue in order,
// with each job's skipped opportunities.
func (d *DelayAllocator) StateDigest() string {
	var out strings.Builder
	out.WriteString("pending=")
	for _, dj := range d.pending {
		fmt.Fprintf(&out, "%s:%d,", dj.id, dj.skips)
	}
	out.WriteByte('\n')
	return out.String()
}

// digest renders each open contest: expectation, target set (nil for
// broadcast), and bids in arrival order.
func (k *contestBook) digest(out *strings.Builder) {
	for _, id := range k.ids() {
		c := k.open[id]
		fmt.Fprintf(out, "contest %s exp=%d", id, c.expected)
		if c.targets != nil {
			names := make([]string, 0, len(c.targets))
			for w := range c.targets {
				names = append(names, w)
			}
			sort.Strings(names)
			fmt.Fprintf(out, " targets=%s", strings.Join(names, ","))
		}
		for _, bid := range c.bids {
			fmt.Fprintf(out, " bid=%s:%d:%d:%t", bid.Worker, bid.Estimate, bid.JobCost, bid.Local)
		}
		out.WriteByte('\n')
	}
}
