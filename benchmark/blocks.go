package main

import (
	"sort"
	"time"
)

// The box this runs on slows down by a fifth for ten seconds at a time
// when its neighbours are busy (README.md has the trace). A figure
// taken over a whole window moves with however much of the window such
// an episode covered. So every timing is taken per block — a tenth of
// the window — and the run reports the median over blocks: an episode
// shorter than half the window no longer moves it.

// series holds one timing's samples by block of the window.
type series [][]float64

func (s *series) add(block int, v float64) {
	if block < 0 {
		return
	}
	for len(*s) <= block {
		*s = append(*s, nil)
	}
	(*s)[block] = append((*s)[block], v)
}

// count is the number of samples in every block.
func (s series) count() int {
	n := 0
	for _, b := range s {
		n += len(b)
	}
	return n
}

// over applies f to the sorted samples of each of the first n blocks
// that has any, and returns the median of the results.
func (s series) over(n int, f func(sorted []float64) float64) float64 {
	var per []float64
	for i := 0; i < n && i < len(s); i++ {
		if len(s[i]) == 0 {
			continue
		}
		b := append([]float64(nil), s[i]...)
		sort.Float64s(b)
		per = append(per, f(b))
	}
	return median(per)
}

func pct(p float64) func([]float64) float64 {
	return func(sorted []float64) float64 { return percentile(sorted, p) }
}

// blockView is a window cut into blocks: what each block completed,
// what it cost, and its samples of each timing.
type blockView struct {
	n     int       // whole blocks in the window
	jobs  []float64 // completed per block
	secs  []float64 // wall seconds per block
	cpuUs []float64 // CPU microseconds per block
	// sessions are the wall milliseconds of each session (or simulated
	// run) that ended in the block; done and assigned the per-job
	// intervals of the jobs that finished in it.
	sessions, done, assigned series
}

// ratio is the median over blocks of num/den, skipping empty blocks.
func (v *blockView) ratio(num, den []float64) float64 {
	var per []float64
	for i := 0; i < v.n && i < len(num) && i < len(den); i++ {
		if den[i] > 0 && num[i] > 0 {
			per = append(per, num[i]/den[i])
		}
	}
	return median(per)
}

// setTimings reports the timing metrics every workload has.
func (v *blockView) setTimings(res *result) {
	jobs := 0
	for i := 0; i < v.n && i < len(v.jobs); i++ {
		jobs += int(v.jobs[i])
	}
	res.setN("jobs_per_s", v.ratio(v.jobs, v.secs), jobs)
	res.setN("cpu_us_per_job", v.ratio(v.cpuUs, v.jobs), jobs)
	res.setN("session_p50_ms", v.sessions.over(v.n, pct(50)), v.sessions.count())
	res.setN("session_p90_ms", v.sessions.over(v.n, pct(90)), v.sessions.count())
}

// cpuSampler reads the process's CPU time at every block boundary of a
// window, from a goroutine that sleeps in between.
type cpuSampler struct {
	at   []time.Duration
	stop chan struct{}
	done chan struct{}
}

func sampleCPU(start time.Time, blockLen time.Duration, blocks int) *cpuSampler {
	s := &cpuSampler{at: []time.Duration{cpuTime()}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for k := 1; k <= blocks; k++ {
			timer := time.NewTimer(time.Until(start.Add(time.Duration(k) * blockLen)))
			select {
			case <-timer.C:
				s.at = append(s.at, cpuTime())
			case <-s.stop:
				timer.Stop()
				return
			}
		}
	}()
	return s
}

// perBlock stops the sampler and returns the CPU microseconds of each
// block it saw end.
func (s *cpuSampler) perBlock() []float64 {
	close(s.stop)
	<-s.done
	out := make([]float64, 0, len(s.at))
	for k := 1; k < len(s.at); k++ {
		out = append(out, float64((s.at[k] - s.at[k-1]).Microseconds()))
	}
	return out
}
