package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"crossflow/internal/vclock"
)

func flatSpeed(mbps float64) Speed { return Speed{BaseMBps: mbps} }

func TestTransferTimeNoNoiseIsExact(t *testing.T) {
	l := NewLink(flatSpeed(100), flatSpeed(200), 1)
	got := l.TransferTime(500, vclock.Epoch)
	if want := 5 * time.Second; got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
	if got := l.ProcessTime(500, vclock.Epoch); got != 2500*time.Millisecond {
		t.Errorf("ProcessTime = %v", got)
	}
}

func TestNoiseStaysWithinAmplitude(t *testing.T) {
	l := NewLink(Speed{BaseMBps: 100, NoiseAmp: 0.2}, flatSpeed(100), 42)
	for i := 0; i < 1000; i++ {
		d := l.TransferTime(100, vclock.Epoch)
		speed := 100 / d.Seconds()
		if speed < 100*0.8-1e-6 || speed > 100*1.2+1e-6 {
			t.Fatalf("sampled speed %.2f outside ±20%% of 100", speed)
		}
	}
}

func TestNoiseActuallyVaries(t *testing.T) {
	l := NewLink(Speed{BaseMBps: 100, NoiseAmp: 0.2}, flatSpeed(100), 42)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 50; i++ {
		seen[l.TransferTime(100, vclock.Epoch)] = true
	}
	if len(seen) < 10 {
		t.Errorf("noise produced only %d distinct durations in 50 draws", len(seen))
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	a := NewLink(Speed{BaseMBps: 100, NoiseAmp: 0.3}, flatSpeed(100), 99)
	b := NewLink(Speed{BaseMBps: 100, NoiseAmp: 0.3}, flatSpeed(100), 99)
	for i := 0; i < 100; i++ {
		if a.TransferTime(50, vclock.Epoch) != b.TransferTime(50, vclock.Epoch) {
			t.Fatal("same seed produced different noise streams")
		}
	}
}

// TestNoiseStreamSeededOnFirstNoisySample: a noise-free link never
// builds its random source, and a noisy one draws exactly the stream an
// eagerly seeded source gives — noise-free samples in between consume
// nothing.
func TestNoiseStreamSeededOnFirstNoisySample(t *testing.T) {
	quiet := NewLink(flatSpeed(100), flatSpeed(400), 7)
	quiet.TransferTime(50, vclock.Epoch)
	quiet.ProcessTime(50, vclock.Epoch)
	quiet.ProbeNetMBps(vclock.Epoch)
	if quiet.rng != nil {
		t.Error("a noise-free link seeded its random source")
	}

	noisy := NewLink(Speed{BaseMBps: 100, NoiseAmp: 0.3}, flatSpeed(400), 7)
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		noisy.ProcessTime(50, vclock.Epoch) // noise-free channel: no draw
		want := DurationFor(50, 100*(1+0.3*(2*ref.Float64()-1)))
		if got := noisy.TransferTime(50, vclock.Epoch); got != want {
			t.Fatalf("draw %d: transfer took %v, eager-seeded stream gives %v", i, got, want)
		}
	}
}

func TestDriftChangesOverTime(t *testing.T) {
	s := Speed{BaseMBps: 100, DriftAmp: 0.5, DriftPeriod: time.Hour}
	l := NewLink(s, flatSpeed(100), 1)
	peak := l.TransferTime(100, vclock.Epoch.Add(15*time.Minute))   // sin = 1
	trough := l.TransferTime(100, vclock.Epoch.Add(45*time.Minute)) // sin = -1
	if !(trough > peak) {
		t.Errorf("drift trough (%v) not slower than peak (%v)", trough, peak)
	}
	fast := 100 / peak.Seconds()
	slow := 100 / trough.Seconds()
	if math.Abs(fast-150) > 1 || math.Abs(slow-50) > 1 {
		t.Errorf("drift extremes %.1f/%.1f, want ≈150/50", fast, slow)
	}
}

func TestDriftDefaultPeriod(t *testing.T) {
	s := Speed{BaseMBps: 100, DriftAmp: 0.5} // period left zero => 1h default
	l := NewLink(s, flatSpeed(100), 1)
	a := l.TransferTime(100, vclock.Epoch.Add(15*time.Minute))
	b := l.TransferTime(100, vclock.Epoch.Add(45*time.Minute))
	if a == b {
		t.Error("default drift period produced constant speed")
	}
}

func TestAccounting(t *testing.T) {
	l := NewLink(flatSpeed(100), flatSpeed(100), 1)
	l.TransferTime(30, vclock.Epoch)
	l.TransferTime(70, vclock.Epoch)
	l.ProcessTime(25, vclock.Epoch)
	if got := l.DownloadedMB(); got != 100 {
		t.Errorf("DownloadedMB = %v, want 100", got)
	}
	if got := l.Downloads(); got != 2 {
		t.Errorf("Downloads = %d, want 2", got)
	}
	if got := l.ProcessedMB(); got != 25 {
		t.Errorf("ProcessedMB = %v, want 25", got)
	}
	l.ResetAccounting()
	if l.DownloadedMB() != 0 || l.Downloads() != 0 || l.ProcessedMB() != 0 {
		t.Error("ResetAccounting left residue")
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	l := NewLink(flatSpeed(100), flatSpeed(100), 1)
	if d := l.TransferTime(0, vclock.Epoch); d != 0 {
		t.Errorf("zero-size transfer took %v", d)
	}
	if d := l.ProcessTime(-5, vclock.Epoch); d != 0 {
		t.Errorf("negative-size process took %v", d)
	}
}

func TestStalledLinkStillProgresses(t *testing.T) {
	// Drift can drive the speed to zero (amp 1.0 at the trough); the
	// model clamps to a tiny positive speed and saturates the duration.
	s := Speed{BaseMBps: 100, DriftAmp: 1.0, DriftPeriod: time.Hour}
	l := NewLink(s, flatSpeed(100), 1)
	d := l.TransferTime(100, vclock.Epoch.Add(45*time.Minute))
	if d <= 0 {
		t.Errorf("stalled transfer returned %v", d)
	}
	if d > time.Duration(1e9)*time.Second {
		t.Errorf("duration not saturated: %v", d)
	}
}

func TestSpeedString(t *testing.T) {
	s := Speed{BaseMBps: 42.5, NoiseAmp: 0.2}
	if got := s.String(); got != "42.5MB/s±20%" {
		t.Errorf("String = %q", got)
	}
}

// Property: transfer time scales linearly with size for a noiseless link.
func TestPropertyLinearScaling(t *testing.T) {
	prop := func(sizeRaw uint16, speedRaw uint8) bool {
		size := float64(sizeRaw%5000) + 1
		speed := float64(speedRaw%200) + 1
		l := NewLink(flatSpeed(speed), flatSpeed(speed), 1)
		single := l.TransferTime(size, vclock.Epoch)
		double := l.TransferTime(2*size, vclock.Epoch)
		ratio := double.Seconds() / single.Seconds()
		return math.Abs(ratio-2) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: accounting equals the sum of requested sizes regardless of
// noise and drift settings.
func TestPropertyAccountingSums(t *testing.T) {
	prop := func(sizes []uint16, noise uint8) bool {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		l := NewLink(Speed{BaseMBps: 50, NoiseAmp: float64(noise%90) / 100}, flatSpeed(50), 3)
		var want float64
		for _, sz := range sizes {
			mb := float64(sz % 2048)
			if mb > 0 {
				want += mb
			}
			l.TransferTime(mb, vclock.Epoch)
		}
		return math.Abs(l.DownloadedMB()-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransferTime(b *testing.B) {
	l := NewLink(Speed{BaseMBps: 50, NoiseAmp: 0.2, DriftAmp: 0.1}, flatSpeed(100), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.TransferTime(250, vclock.Epoch)
	}
}
