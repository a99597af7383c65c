package core

import (
	"sync"
	"time"

	"crossflow/internal/engine"
)

// CalibratingCosts wraps another cost model and corrects its estimates
// by the observed ratio between actual and estimated durations — the
// paper's future-work item on workers keeping "the historic data of
// their bids and completed work and use this data to learn from it and
// adjust their future bids". Transfer and processing channels calibrate
// independently with an exponentially weighted moving average.
type CalibratingCosts struct {
	inner engine.CostModel
	alpha float64

	mu            sync.Mutex
	transferRatio float64
	processRatio  float64
}

// NewCalibratingCosts wraps inner with ratio calibration. alpha is the
// EWMA weight of each new observation; zero or out-of-range values
// default to 0.2.
func NewCalibratingCosts(inner engine.CostModel, alpha float64) *CalibratingCosts {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &CalibratingCosts{
		inner:         inner,
		alpha:         alpha,
		transferRatio: 1,
		processRatio:  1,
	}
}

// Ratios returns the current correction factors (tests/diagnostics).
func (c *CalibratingCosts) Ratios() (transfer, process float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transferRatio, c.processRatio
}

// TransferEstimate implements engine.CostModel with ratio correction.
func (c *CalibratingCosts) TransferEstimate(hasData bool, sizeMB float64) time.Duration {
	est := c.inner.TransferEstimate(hasData, sizeMB)
	if est <= 0 {
		return est
	}
	c.mu.Lock()
	r := c.transferRatio
	c.mu.Unlock()
	return time.Duration(float64(est) * r)
}

// ProcessEstimate implements engine.CostModel with ratio correction.
func (c *CalibratingCosts) ProcessEstimate(sizeMB float64) time.Duration {
	est := c.inner.ProcessEstimate(sizeMB)
	if est <= 0 {
		return est
	}
	c.mu.Lock()
	r := c.processRatio
	c.mu.Unlock()
	return time.Duration(float64(est) * r)
}

// ObserveTransfer implements engine.CostModel: fold the actual/estimated
// ratio into the transfer correction, then forward to the inner model.
func (c *CalibratingCosts) ObserveTransfer(sizeMB float64, took time.Duration) {
	if est := c.inner.TransferEstimate(false, sizeMB); est > 0 && took > 0 {
		c.mu.Lock()
		c.transferRatio = (1-c.alpha)*c.transferRatio + c.alpha*float64(took)/float64(est)
		c.mu.Unlock()
	}
	c.inner.ObserveTransfer(sizeMB, took)
}

// ObserveProcess implements engine.CostModel: fold the actual/estimated
// ratio into the processing correction, then forward to the inner model.
func (c *CalibratingCosts) ObserveProcess(sizeMB float64, took time.Duration) {
	if est := c.inner.ProcessEstimate(sizeMB); est > 0 && took > 0 {
		c.mu.Lock()
		c.processRatio = (1-c.alpha)*c.processRatio + c.alpha*float64(took)/float64(est)
		c.mu.Unlock()
	}
	c.inner.ObserveProcess(sizeMB, took)
}
