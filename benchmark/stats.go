package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product such as 0.9*10 = 9.000000000000002
	// from rounding up a rank.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPermille are the candidates topPercentile chooses from, in
// thousandths so that the sample arithmetic stays in integers.
var tailPermille = []int{500, 900, 990, 999}

// topPercentile returns the highest candidate percentile that still has
// at least ten of n samples beyond it — the highest one worth reporting
// — or 0 when even the median has fewer.
func topPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPermille {
		if n*(1000-pm)/1000 >= 10 {
			best = float64(pm) / 10
		}
	}
	return best
}

// median sorts a copy and returns the middle value (mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is what the Go runtime did between two MemStats readings.
type memDelta struct {
	Allocs    float64
	AllocKB   float64
	GCCycles  float64
	GCPauseMs float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		Allocs:    float64(after.Mallocs - before.Mallocs),
		AllocKB:   float64(after.TotalAlloc-before.TotalAlloc) / 1024,
		GCCycles:  float64(after.NumGC - before.NumGC),
		GCPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// usage is the resources one timed window consumed.
type usage struct {
	wall time.Time
	cpu  time.Duration
}

func startUsage() usage { return usage{wall: time.Now(), cpu: cpuTime()} }

func (u usage) elapsed() (wall, cpu time.Duration) {
	return time.Since(u.wall), cpuTime() - u.cpu
}
