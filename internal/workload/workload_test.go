package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestGenerateDefaults(t *testing.T) {
	arr := Generate(AllDiffEqual, Options{Seed: 1})
	if len(arr) != 120 {
		t.Fatalf("len = %d, want the paper's 120", len(arr))
	}
	for i, a := range arr {
		if a.Job.Stream != Stream {
			t.Fatalf("job %d on stream %q", i, a.Job.Stream)
		}
		if a.Job.DataSizeMB < 1 || a.Job.DataSizeMB > 1000 {
			t.Fatalf("job %d size %.1f outside 1MB–1GB", i, a.Job.DataSizeMB)
		}
		if i > 0 && arr[i].At < arr[i-1].At {
			t.Fatalf("arrivals not monotonic at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Rep80Large, Options{Seed: 9})
	b := Generate(Rep80Large, Options{Seed: 9})
	for i := range a {
		if *a[i].Job != *b[i].Job || a[i].At != b[i].At {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := Generate(Rep80Large, Options{Seed: 10})
	if a[0].Job.DataKey == c[0].Job.DataKey && a[0].Job.DataSizeMB == c[0].Job.DataSizeMB {
		// keys are namespaced by seed, so at minimum keys must differ
		t.Error("different seeds produced identical first job")
	}
}

func TestAllDiffConfigsUseDistinctRepos(t *testing.T) {
	for _, c := range []JobConfig{AllDiffEqual, AllDiffLarge, AllDiffSmall} {
		s := Summarize(Generate(c, Options{Seed: 3}))
		if s.DistinctKeys != s.Jobs {
			t.Errorf("%v: %d distinct keys for %d jobs, want all distinct", c, s.DistinctKeys, s.Jobs)
		}
	}
}

func TestRepetitiveConfigsShareHotRepo(t *testing.T) {
	for _, c := range []JobConfig{Rep80Large, Rep80Small} {
		s := Summarize(Generate(c, Options{Seed: 3}))
		// ~80% of ~70% (large mix) or ~80% of 70% (small mix) of jobs hit
		// the hot repo: expect a dominant key well above uniform.
		if s.HotShare < 0.3 {
			t.Errorf("%v: hot share %.2f, want a dominant repeated repo", c, s.HotShare)
		}
		if s.DistinctKeys >= s.Jobs {
			t.Errorf("%v: no repetition (%d keys)", c, s.DistinctKeys)
		}
	}
}

func TestSizeMixesMatchConfig(t *testing.T) {
	large := Summarize(Generate(AllDiffLarge, Options{Seed: 5, Jobs: 600}))
	small := Summarize(Generate(AllDiffSmall, Options{Seed: 5, Jobs: 600}))
	equal := Summarize(Generate(AllDiffEqual, Options{Seed: 5, Jobs: 600}))
	if !(large.TotalMB > equal.TotalMB && equal.TotalMB > small.TotalMB) {
		t.Errorf("total MB ordering wrong: large=%.0f equal=%.0f small=%.0f",
			large.TotalMB, equal.TotalMB, small.TotalMB)
	}
}

func TestConfigNamespacesDoNotCollide(t *testing.T) {
	keys := make(map[string]JobConfig)
	for _, c := range JobConfigs {
		for _, a := range Generate(c, Options{Seed: 1}) {
			if prev, dup := keys[a.Job.DataKey]; dup && prev != c {
				t.Fatalf("key %q shared between %v and %v", a.Job.DataKey, prev, c)
			}
			keys[a.Job.DataKey] = c
		}
	}
}

func TestInterarrivalOptions(t *testing.T) {
	instant := Generate(AllDiffEqual, Options{Seed: 1, MeanInterarrival: -1})
	for _, a := range instant {
		if a.At != 0 {
			t.Fatal("negative mean interarrival should inject everything at t=0")
		}
	}
	spaced := Generate(AllDiffEqual, Options{Seed: 1, MeanInterarrival: 5 * time.Second})
	s := Summarize(spaced)
	if s.Span < 3*time.Minute {
		t.Errorf("span = %v, implausibly short for 120 jobs at 5s mean", s.Span)
	}
}

func TestParseJobConfig(t *testing.T) {
	for _, c := range JobConfigs {
		got, err := ParseJobConfig(c.String())
		if err != nil || got != c {
			t.Errorf("ParseJobConfig(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseJobConfig("nope"); err == nil {
		t.Error("ParseJobConfig accepted garbage")
	}
	if JobConfig(99).String() == "" {
		t.Error("unknown config has empty String")
	}
}

func TestWorkflowConsumesStream(t *testing.T) {
	wf := Workflow()
	if _, ok := wf.TaskFor(Stream); !ok {
		t.Error("workflow does not consume the workload stream")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Jobs != 0 || s.HotShare != 0 || s.TotalMB != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
}

// Property: every stream is monotone in time, sized within the global
// bounds, and exactly Jobs long.
func TestPropertyStreamWellFormed(t *testing.T) {
	prop := func(cfgRaw uint8, seed int64, jobsRaw uint8) bool {
		c := JobConfigs[int(cfgRaw)%len(JobConfigs)]
		jobs := int(jobsRaw%100) + 1
		arr := Generate(c, Options{Seed: seed, Jobs: jobs})
		if len(arr) != jobs {
			return false
		}
		var prev time.Duration
		for _, a := range arr {
			if a.At < prev || a.Job.DataSizeMB < 1 || a.Job.DataSizeMB > 3000 || a.Job.DataKey == "" {
				return false
			}
			prev = a.At
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: generation is pure — two calls with identical inputs yield
// identical streams (no hidden global state).
func TestPropertyGenerationPure(t *testing.T) {
	prop := func(cfgRaw uint8, seed int64) bool {
		c := JobConfigs[int(cfgRaw)%len(JobConfigs)]
		a := Generate(c, Options{Seed: seed, Jobs: 40})
		b := Generate(c, Options{Seed: seed, Jobs: 40})
		for i := range a {
			if *a[i].Job != *b[i].Job || a[i].At != b[i].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
