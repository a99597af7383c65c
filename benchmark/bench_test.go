package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crossflow/internal/core"
	"crossflow/internal/engine"
	"crossflow/internal/transport"
	"crossflow/internal/vclock"
)

// smoke is the benchmark at about 1/200 of its work: the same code,
// every pass, in well under ten seconds.
func smoke() params {
	p := full()
	p.SessionJobs, p.WarmupJobs, p.PacedWarmup = 20, 80, 40
	p.Setups = 1
	p.FleetW, p.FleetJobs, p.FleetKeys, p.FleetMinRuns = 24, 16, 4, 1
	p.GridMinSeeds, p.GridJobs, p.GridIterations = 1, 20, 1
	p.RefSeeds = 1
	p.SpanSample, p.SpanCap = 1, 1<<15
	p.ProbeTime, p.SuiteProbes, p.StreamMsgs = time.Millisecond, false, 400
	return p
}

// TestSmoke runs every workload's two passes at smoke size and checks
// that each verifies its outputs, reports every metric of its pass and
// — traced — writes its span file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/e2e"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				rc := &runCtx{
					workload: w.Name, seed: 3, seconds: 0.05, trace: trace, p: smoke(),
					outDir: t.TempDir(), log: &log, res: newResult(),
				}
				if err := w.run(rc); err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				line := rc.res.line(specs, !trace)
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					rc.res.report(&log, specs)
					t.Fatalf("run failed: attempted %d, failed %d\n%s", line.Attempted, line.Failed, log.String())
				}
				if len(line.Metrics) != len(specs) {
					t.Fatalf("%d metrics reported, want %d", len(line.Metrics), len(specs))
				}
				if !trace {
					return
				}
				data, err := os.ReadFile(filepath.Join(rc.outDir, "trace_"+w.Name+".json"))
				if err != nil {
					t.Fatal(err)
				}
				var file struct{ Spans []span }
				if err := json.Unmarshal(data, &file); err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for i, s := range file.Spans {
					seen[s.Name] = true
					if s.Parent >= i || s.End < s.Start {
						t.Fatalf("span %d %+v: parent must precede it and end must not precede start", i, s)
					}
				}
				for _, want := range []string{"job", "ingest", "allocate", "run", "alloc.JobReady", "agent.OnBidRequest"} {
					if !seen[want] {
						t.Errorf("no %q span in the trace (have %v)", want, sortedKeys(seen))
					}
				}
				if strings.HasPrefix(w.Name, "tcp_") && !seen["port.publish"] {
					t.Errorf("no port.publish span on a TCP fleet")
				}
				if w.Name == "tcp_sessions_w8" && !strings.Contains(log.String(), "unexplained") {
					t.Errorf("cost-per-job table missing:\n%s", log.String())
				}
			})
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {300000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestDueClock checks the open loop's conversion of a wall-clock due
// time to the fleet's compressed clock, and back to real milliseconds.
func TestDueClock(t *testing.T) {
	wall0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	clock0 := vclock.Epoch.Add(7 * time.Second)
	due := dueClock(wall0, clock0, 1000, wall0.Add(2500*time.Microsecond))
	if want := clock0.Add(2500 * time.Millisecond); !due.Equal(want) {
		t.Errorf("due on the clock = %v, want %v", due, want)
	}
	// A job finished 3 s of clock time after it was due took 3 ms.
	if got := realMs(due.Add(3*time.Second).Sub(due), 1000); got != 3 {
		t.Errorf("realMs = %g, want 3", got)
	}
	if before := dueClock(wall0, clock0, 1000, wall0.Add(-time.Millisecond)); !before.Equal(clock0.Add(-time.Second)) {
		t.Errorf("a due time before the pair converts to %v", before)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 30}, {Start: 50, End: 60}}, 70},
		{"overlapping count once", []span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		{"clipped to the parent", []span{{Start: -20, End: 10}, {Start: 90, End: 120}}, 80},
		{"nested", []span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 20},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAssemble checks that call spans hang under the stage whose
// interval contains them and that unsampled jobs leave no spans.
func TestAssemble(t *testing.T) {
	p := smoke()
	tr := newTracer(1, p)
	tr.calls = append(tr.calls,
		span{Name: "alloc.JobReady", Job: "j1", Start: 100, End: 110},
		span{Name: "alloc.BidReceived", Job: "j1", Start: 150, End: 160},
		span{Name: "task.body", Job: "j1", Start: 300, End: 900},
		span{Name: "alloc.JobReady", Job: "j2", Start: 100, End: 110}, // j2 never finished
	)
	spans := tr.assemble(map[string]*stageTimes{
		"j1": {Due: 50, Injected: 100, Queued: 200, Finished: 1000, done: true},
		"j2": {Due: 50, Injected: 100},
	})
	if len(spans) != 7 {
		t.Fatalf("%d spans, want root + 3 stages + 3 calls: %+v", len(spans), spans)
	}
	parentName := func(s span) string { return spans[s.Parent].Name }
	for _, s := range spans[4:] {
		want := map[string]string{"alloc.JobReady": "allocate", "alloc.BidReceived": "allocate", "task.body": "run"}[s.Name]
		if parentName(s) != want {
			t.Errorf("%s hangs under %s, want %s", s.Name, parentName(s), want)
		}
	}
	self := selfTimes(spans)
	if self["run"] != 200 || self["allocate"] != 80 || self["ingest"] != 50 || self["job"] != 0 {
		t.Errorf("self times %v", self)
	}
}

// TestDecoratorForwarding checks that the decorators keep every
// optional method the engine type-asserts: a wrapper that dropped
// PublishAsync would silently move the master onto the synchronous
// publish path.
func TestDecoratorForwarding(t *testing.T) {
	var port any = &tracedPort{c: &transport.Client{}}
	if _, ok := port.(interface {
		PublishAsync(topic string, payload any) func() int
	}); !ok {
		t.Error("tracedPort lost PublishAsync")
	}
	if _, ok := port.(interface {
		SendMulti(targets []string, payload any) int
	}); !ok {
		t.Error("tracedPort lost SendMulti")
	}
	if _, ok := port.(interface{ Deregister() }); !ok {
		t.Error("tracedPort lost Deregister")
	}
	// The client has no Disconnect; the wrapper must not grow one.
	var client any = &transport.Client{}
	_, clientHas := client.(interface{ Disconnect() })
	_, wrapperHas := port.(interface{ Disconnect() })
	if clientHas != wrapperHas {
		t.Errorf("Disconnect: client %v, wrapper %v", clientHas, wrapperHas)
	}

	tr := newTracer(1, smoke())
	for _, name := range []string{"bidding", "bidding-fast", "bidding-topk", "baseline", "spark-like"} {
		pol, ok := core.PolicyByName(name)
		if !ok {
			t.Fatalf("no policy %s", name)
		}
		inner := pol.NewAllocator()
		_, innerSized := inner.(contestSizer)
		_, wrappedSized := tr.tracedAllocator(inner).(contestSizer)
		if innerSized != wrappedSized {
			t.Errorf("%s: ContestSized inner %v, wrapped %v", name, innerSized, wrappedSized)
		}
		if got := tr.tracedPolicy(pol); got.Name != pol.Name || got.NewAllocator().Name() != inner.Name() {
			t.Errorf("%s: decorated policy changed its name", name)
		}
	}
	// The context decorator keeps CountFallback reachable.
	var ctx engine.AllocCtx = stageCtx{t: tr}
	if _, ok := ctx.(interface{ CountFallback() }); !ok {
		t.Error("stageCtx lost CountFallback")
	}
}

// TestContractMatchesTables keeps BENCHMARK.json generated, not edited.
func TestContractMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(data, buildContract()) {
		t.Error("BENCHMARK.json differs from the tables: regenerate it with `go run -C benchmark . -contract > BENCHMARK.json`")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("contract limits: %d end-to-end, %d per-layer, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || m.Bound > 0.25 {
			t.Errorf("metric %+v breaks a contract limit or repeats a name", m)
		}
		seen[m.Name] = true
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, jobsPerS, cpu float64, correct bool) string {
		e2e := map[string]metricValue{}
		for _, m := range endToEnd {
			e2e[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		e2e["jobs_per_s"] = metricValue{Value: jobsPerS, Unit: "1/s"}
		e2e["cpu_us_per_job"] = metricValue{Value: cpu, Unit: "us"}
		f := resultFile{Workloads: []workloadResult{{Name: "tcp_sessions_w8", Correct: correct, EndToEnd: e2e}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := func(name string) float64 {
		for _, m := range endToEnd {
			if m.Name == name {
				return m.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	jb, cb := bound("jobs_per_s"), bound("cpu_us_per_job")
	base := write("base.json", 1000, 50, true)
	for _, c := range []struct {
		name   string
		path   string
		status int
	}{
		{"same", base, 0},
		{"within the bound", write("ok.json", 1000*(1-jb/2), 50*(1+cb/2), true), 0},
		{"better both ways", write("better.json", 1500, 30, true), 0},
		{"higher-is-better metric fell past its bound", write("slow.json", 1000*(1-jb-0.02), 50, true), 1},
		{"lower-is-better metric rose past its bound", write("cpu.json", 1000, 50*(1+cb+0.02), true), 1},
		{"failed verification", write("bad.json", 1000, 50, false), 1},
	} {
		var out bytes.Buffer
		if got := compareFiles(&out, base, c.path); got != c.status {
			t.Errorf("%s: status %d, want %d\n%s", c.name, got, c.status, out.String())
		}
	}
	if worsening("higher", 100, 90) != 0.1 || worsening("lower", 100, 90) != -0.1 {
		t.Error("worsening has its directions crossed")
	}
	_ = io.Discard
}
