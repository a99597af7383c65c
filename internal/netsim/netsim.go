// Package netsim models per-node network and disk performance.
//
// Each simulated node owns a Link with two speed channels: the network
// (download) speed and the read/write (processing) speed. A speed has a
// nominal value that bids are computed from, plus two perturbations that
// only affect actual execution, reproducing the paper's protocol (§6.3.1:
// "to better replicate real-world network throttling scenarios and ensure
// bidding costs differed from actual execution times, the speeds were
// subjected to a noise scheme during job execution"):
//
//   - noise: independent multiplicative jitter drawn per operation, and
//   - drift: a slow sinusoidal variation so node performance fluctuates
//     over the course of a workflow.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"crossflow/internal/vclock"
)

// Speed describes one performance channel (network or read/write) of a
// node in MB/s.
type Speed struct {
	// BaseMBps is the nominal speed. Bids and other estimates use this
	// value (or a learned approximation of it).
	BaseMBps float64
	// NoiseAmp is the amplitude of the uniform multiplicative noise
	// applied per operation: an actual speed is drawn from
	// Base*(1±NoiseAmp) (after drift). Zero disables noise.
	NoiseAmp float64
	// DriftAmp is the amplitude of the slow sinusoidal drift as a
	// fraction of Base. Zero disables drift.
	DriftAmp float64
	// DriftPeriod is the period of the drift sinusoid. Ignored when
	// DriftAmp is zero; defaults to one hour if left zero.
	DriftPeriod time.Duration
	// DriftPhase shifts the drift sinusoid, so that different nodes peak
	// at different times. Expressed in radians.
	DriftPhase float64
}

// Link is one node's connection to the world: a download channel and a
// local read/write channel, with accounting. Link is safe for concurrent
// use, although each simulated worker normally drives its own.
type Link struct {
	mu   sync.Mutex
	seed int64
	rng  *rand.Rand // nil until the first noisy sample

	net Speed
	rw  Speed

	downloadedMB float64
	downloads    int
	processedMB  float64
}

// NewLink returns a link with the given speed channels, drawing noise
// from a deterministic stream seeded with seed.
func NewLink(network, readwrite Speed, seed int64) *Link {
	return &Link{
		seed: seed,
		net:  network,
		rw:   readwrite,
	}
}

// sample draws channel s's actual instantaneous speed at time t. The
// caller holds l.mu.
func (l *Link) sample(s Speed, t time.Time) float64 {
	v := s.BaseMBps
	if s.DriftAmp != 0 {
		period := s.DriftPeriod
		if period <= 0 {
			period = time.Hour
		}
		phase := 2*math.Pi*float64(t.Sub(vclock.Epoch))/float64(period) + s.DriftPhase
		v *= 1 + s.DriftAmp*math.Sin(phase)
	}
	if s.NoiseAmp != 0 {
		if l.rng == nil {
			// Seeded on the first noisy sample: the source is ~5 KB, and a
			// noise-free link (every big-fleet worker) never draws from it.
			// Same seed, so the stream is the one an eager seeding gave.
			l.rng = rand.New(rand.NewSource(l.seed))
		}
		v *= 1 + s.NoiseAmp*(2*l.rng.Float64()-1)
	}
	if v < 1e-9 {
		v = 1e-9 // a stalled link still makes progress, eventually
	}
	return v
}

// NominalNetMBps returns the nominal download speed, the value a
// perfectly informed bidder would use.
func (l *Link) NominalNetMBps() float64 { return l.net.BaseMBps }

// NominalRWMBps returns the nominal read/write speed.
func (l *Link) NominalRWMBps() float64 { return l.rw.BaseMBps }

// TransferTime returns the time to download sizeMB at time t, sampling
// the actual network speed, and records the transfer in the link's
// data-load accounting.
func (l *Link) TransferTime(sizeMB float64, t time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	speed := l.sample(l.net, t)
	l.downloadedMB += sizeMB
	l.downloads++
	return DurationFor(sizeMB, speed)
}

// ProcessTime returns the time to read and process sizeMB of local data
// at time t, sampling the actual read/write speed.
func (l *Link) ProcessTime(sizeMB float64, t time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	speed := l.sample(l.rw, t)
	l.processedMB += sizeMB
	return DurationFor(sizeMB, speed)
}

// ProbeNetMBps samples the actual download speed at time t without
// recording a transfer — the §6.4 startup probe ("examining a repository
// of 100MB in advance") that primes learning cost models.
func (l *Link) ProbeNetMBps(t time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sample(l.net, t)
}

// ProbeRWMBps samples the actual read/write speed at time t without
// recording any processing.
func (l *Link) ProbeRWMBps(t time.Time) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sample(l.rw, t)
}

// DownloadedMB returns the cumulative megabytes downloaded through this
// link — the node's contribution to the paper's "data load" metric.
func (l *Link) DownloadedMB() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.downloadedMB
}

// Downloads returns the number of downloads performed.
func (l *Link) Downloads() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.downloads
}

// ProcessedMB returns the cumulative megabytes processed locally.
func (l *Link) ProcessedMB() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.processedMB
}

// ResetAccounting zeroes the link's counters, keeping its speed state.
// The experiment harness calls this between workflow iterations.
func (l *Link) ResetAccounting() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.downloadedMB = 0
	l.downloads = 0
	l.processedMB = 0
}

// DurationFor is the time to move sizeMB at mbps: zero for no data,
// saturating at 1e9 s rather than overflowing for a zero or absurdly
// slow speed. The link times transfers and processing with it, and
// engine.StaticCosts estimates them with it.
func DurationFor(sizeMB, mbps float64) time.Duration {
	if sizeMB <= 0 {
		return 0
	}
	sec := sizeMB / mbps
	if sec > 1e9 {
		sec = 1e9
	}
	return time.Duration(sec * float64(time.Second))
}

// String renders a speed for diagnostics.
func (s Speed) String() string {
	return fmt.Sprintf("%.1fMB/s±%.0f%%", s.BaseMBps, s.NoiseAmp*100)
}
