package engine_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"crossflow/internal/broker"
	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/vclock"
)

// routeLog rides a cluster's broker as a drop model that drops nothing.
// It remembers, per job, the control-plane endpoint that last opened an
// exchange with a worker (bid request, offer or assignment) and checks
// that every worker reply about the job (bid, accept, reject,
// completion) goes back to that endpoint.
type routeLog struct {
	mu       sync.Mutex
	opener   map[string]string // job → From of its latest request
	requests int               // bid requests delivered
	replies  map[string]int    // reply kind → count
	toMaster int               // replies addressed to MasterName
	strays   []string          // replies that missed their opener
}

func newRouteLog() *routeLog {
	return &routeLog{opener: make(map[string]string), replies: make(map[string]int)}
}

func (l *routeLog) observe(env broker.Envelope, to string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	var job, kind string
	switch m := env.Payload.(type) {
	case engine.MsgBidRequest:
		l.opener[m.Job.ID] = env.From
		l.requests++
		return false
	case engine.MsgOffer:
		l.opener[m.Job.ID] = env.From
		return false
	case engine.MsgAssign:
		l.opener[m.Job.ID] = env.From
		return false
	case engine.MsgBid:
		job, kind = m.JobID, "bid"
	case engine.MsgAccept:
		job, kind = m.JobID, "accept"
	case engine.MsgReject:
		job, kind = m.JobID, "reject"
	case engine.MsgJobDone:
		job, kind = m.JobID, "done"
	default:
		return false
	}
	l.replies[kind]++
	if to == engine.MasterName {
		l.toMaster++
	}
	if want := l.opener[job]; to != want {
		l.strays = append(l.strays, fmt.Sprintf("%s %s from %s went to %s, opened by %s",
			kind, job, env.From, to, want))
	}
	return false
}

// counts returns the bid requests delivered and the bids sent so far.
func (l *routeLog) counts() (requests, bids int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.requests, l.replies["bid"]
}

// TestRepliesReachTheirOpener runs bidding (bids, completions),
// bidding-topk (the same, its targeted contests reaching workers through
// SendMulti rather than the bids topic) and the baseline (accepts,
// rejects, completions) on the single master and on two shards. Every
// worker reply reaches the endpoint that opened its exchange — on two
// shards never the frontend — including bids held back by the worker's
// bid delay, which is checked to be in effect mid-contest.
func TestRepliesReachTheirOpener(t *testing.T) {
	const bidDelay = 100 * time.Millisecond
	for _, policy := range []string{"bidding", "bidding-topk", "baseline"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy, shards), func(t *testing.T) {
				ws := testCluster(3, 20, 100, 0)
				for _, st := range ws {
					st.Spec.BidDelay = bidDelay
				}
				pol, _ := core.PolicyByName(policy)
				routes := newRouteLog()
				c, err := engine.NewCluster(engine.ClusterConfig{
					Clock:        vclock.NewSim(),
					Workers:      ws,
					Shards:       shards,
					NewAllocator: pol.NewAllocator,
					NewAgent:     pol.NewAgent,
					DropFunc:     routes.observe,
				})
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				var rep *engine.Report
				c.Start(func() {
					c.WaitReady()
					sess, err := c.Open("origins", dataWorkflow())
					if err != nil {
						t.Errorf("Open: %v", err)
						return
					}
					submit := func(i int) {
						sess.Submit(&engine.Job{ID: fmt.Sprintf("j%02d", i), Stream: "work",
							DataKey: fmt.Sprintf("r%d", i%4), DataSizeMB: 10})
					}
					submit(0)
					if policy != "baseline" {
						// A broadcast contest reaches the whole fleet; a
						// targeted one reaches its sample.
						c.Clock().Sleep(bidDelay / 2)
						requests, bids := routes.counts()
						want := len(ws)
						if policy != "bidding" {
							want = min(max(requests, 1), len(ws))
						}
						if requests != want || bids != 0 {
							t.Errorf("mid-contest: %d bid requests landed and %d bids left, want %d and 0",
								requests, bids, want)
						}
					}
					for i := 1; i < 12; i++ {
						submit(i)
					}
					sess.Close()
					rep = sess.Wait()
					c.Stop()
				})
				c.Wait()

				if rep == nil {
					t.Fatal("session report missing")
				}
				if rep.JobsCompleted != 12 {
					t.Fatalf("JobsCompleted = %d, want 12", rep.JobsCompleted)
				}
				routes.mu.Lock()
				defer routes.mu.Unlock()
				for _, s := range routes.strays {
					t.Error(s)
				}
				kinds := []string{"bid", "done"}
				if policy == "baseline" {
					kinds = []string{"accept", "reject", "done"}
				}
				for _, kind := range kinds {
					if routes.replies[kind] == 0 {
						t.Errorf("no %s reply observed", kind)
					}
				}
				if shards > 1 && routes.toMaster != 0 {
					t.Errorf("%d replies went through the frontend", routes.toMaster)
				}
			})
		}
	}
}
