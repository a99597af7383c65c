package core

import (
	"sync"
	"time"

	"crossflow/internal/engine"
)

// LearningCosts is the cost model of the non-simulated experiments
// (§6.4): workers start from speeds probed on a 100 MB repository and,
// after every job, fold the newly observed network and read/write speeds
// into a running historic average used for subsequent bids.
type LearningCosts struct {
	mu sync.Mutex

	netSum float64 // sum of observed download speeds (MB/s)
	netN   int
	rwSum  float64
	rwN    int
}

// NewLearningCosts returns a learning model primed with the probed
// speeds, each counted as one observation.
func NewLearningCosts(probeNetMBps, probeRWMBps float64) *LearningCosts {
	l := &LearningCosts{}
	if probeNetMBps > 0 {
		l.netSum, l.netN = probeNetMBps, 1
	}
	if probeRWMBps > 0 {
		l.rwSum, l.rwN = probeRWMBps, 1
	}
	return l
}

// NetMBps returns the current believed download speed.
func (l *LearningCosts) NetMBps() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.netLocked()
}

// RWMBps returns the current believed read/write speed.
func (l *LearningCosts) RWMBps() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rwLocked()
}

func (l *LearningCosts) netLocked() float64 {
	if l.netN == 0 {
		return 1 // ultra-conservative default before any observation
	}
	return l.netSum / float64(l.netN)
}

func (l *LearningCosts) rwLocked() float64 {
	if l.rwN == 0 {
		return 1
	}
	return l.rwSum / float64(l.rwN)
}

// TransferEstimate implements engine.CostModel using the historic
// average download speed.
func (l *LearningCosts) TransferEstimate(hasData bool, sizeMB float64) time.Duration {
	return l.believed().TransferEstimate(hasData, sizeMB)
}

// ProcessEstimate implements engine.CostModel using the historic average
// read/write speed.
func (l *LearningCosts) ProcessEstimate(sizeMB float64) time.Duration {
	return l.believed().ProcessEstimate(sizeMB)
}

// believed is the static model at the current historic averages.
func (l *LearningCosts) believed() engine.StaticCosts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return engine.StaticCosts{NetMBps: l.netLocked(), RWMBps: l.rwLocked()}
}

// ObserveTransfer implements engine.CostModel: fold one download into
// the historic average ("the network speed was determined by dividing
// the size of the repository by the time taken to complete the
// download").
func (l *LearningCosts) ObserveTransfer(sizeMB float64, took time.Duration) {
	if sizeMB <= 0 || took <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.netSum += sizeMB / took.Seconds()
	l.netN++
}

// ObserveProcess implements engine.CostModel: fold one processing run
// into the historic average.
func (l *LearningCosts) ObserveProcess(sizeMB float64, took time.Duration) {
	if sizeMB <= 0 || took <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rwSum += sizeMB / took.Seconds()
	l.rwN++
}

// Observations reports how many samples each average holds (tests).
func (l *LearningCosts) Observations() (net, rw int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.netN, l.rwN
}
