package engine

import (
	"testing"
	"time"

	"crossflow/internal/netsim"
	"crossflow/internal/vclock"
)

// testWorker builds an unstarted worker over a simulated clock and a
// throwaway broker-less port; only the estimate/queue machinery is
// exercised, so no messaging happens.
func testWorker(t *testing.T) (*Worker, *vclock.Sim) {
	t.Helper()
	sim := vclock.NewSim()
	st := NewWorkerState(WorkerSpec{
		Name: "unit",
		Net:  netsim.Speed{BaseMBps: 10},
		RW:   netsim.Speed{BaseMBps: 100},
		Seed: 1,
	}, nil)
	w := NewWorker(sim, nopPort{clk: sim}, NewWorkflow("wf"), st, nil, nil)
	return w, sim
}

// nopPort satisfies Port without any routing.
type nopPort struct{ clk vclock.Clock }

func (p nopPort) Name() string            { return "unit" }
func (p nopPort) Inbox() vclock.Mailbox   { return p.clk.NewMailbox("nop") }
func (p nopPort) Send(string, any) bool   { return true }
func (p nopPort) Publish(string, any) int { return 0 }
func (p nopPort) Subscribe(string)        {}

func TestEstimateJobComponents(t *testing.T) {
	w, _ := testWorker(t)
	job := &Job{ID: "j", DataKey: "r", DataSizeMB: 100}
	// 100MB: 10s transfer at 10MB/s + 1s processing at 100MB/s.
	if got, local := w.EstimateJob(job); got != 11*time.Second || local {
		t.Errorf("EstimateJob = %v, local %t, want 11s, remote", got, local)
	}
	w.cache.Put("r", 100)
	if got, local := w.EstimateJob(job); got != time.Second || !local {
		t.Errorf("EstimateJob with cached data = %v, local %t, want 1s, local", got, local)
	}
	if _, local := w.EstimateJob(&Job{ID: "nodata"}); !local {
		t.Error("a job without data is not local")
	}
}

func TestEstimateJobCostHintOverridesProcessing(t *testing.T) {
	w, _ := testWorker(t)
	job := &Job{ID: "j", DataKey: "r", DataSizeMB: 100, CostHint: 30 * time.Second}
	if got, _ := w.EstimateJob(job); got != 40*time.Second {
		t.Errorf("EstimateJob = %v, want transfer 10s + hint 30s", got)
	}
	hintOnly := &Job{ID: "h", CostHint: 5 * time.Second}
	if got, _ := w.EstimateJob(hintOnly); got != 5*time.Second {
		t.Errorf("EstimateJob = %v, want bare hint", got)
	}
}

func TestEstimateJobComputeMBOverride(t *testing.T) {
	w, _ := testWorker(t)
	job := &Job{ID: "j", DataKey: "r", DataSizeMB: 100, ComputeMB: 200}
	// 10s transfer + 2s processing of the overridden volume.
	if got, _ := w.EstimateJob(job); got != 12*time.Second {
		t.Errorf("EstimateJob = %v, want 12s", got)
	}
}

func TestPendingDataCountsAsLocal(t *testing.T) {
	w, _ := testWorker(t)
	job := &Job{ID: "j1", DataKey: "r", DataSizeMB: 100}
	est, local := w.EstimateJob(job)
	if local {
		t.Fatal("data local before any commitment")
	}
	w.enqueue(job, est)
	twin := &Job{ID: "j2", DataKey: "r", DataSizeMB: 100}
	got, local := w.EstimateJob(twin)
	if !local {
		t.Error("queued acquisition not counted as local")
	}
	// A committed download is never priced twice.
	if got != time.Second {
		t.Errorf("EstimateJob = %v, want processing only", got)
	}
}

func TestQueuedCostSumsUnfinishedWork(t *testing.T) {
	w, sim := testWorker(t)
	if w.QueuedCost() != 0 {
		t.Fatal("fresh worker has queued cost")
	}
	w.enqueue(&Job{ID: "a"}, 10*time.Second)
	w.enqueue(&Job{ID: "b"}, 5*time.Second)
	if got := w.QueuedCost(); got != 15*time.Second {
		t.Errorf("QueuedCost = %v, want 15s", got)
	}
	// The executor starts "a": its remaining share decays with
	// simulated time.
	v, ok := w.execQ.TryRecv()
	if !ok {
		t.Fatal("exec queue empty after two enqueues")
	}
	w.begin(v.(execEntry))
	sim.Go(func() { sim.Sleep(4 * time.Second) })
	sim.Wait()
	if got := w.QueuedCost(); got != 11*time.Second { // 6s remaining + 5s queued
		t.Errorf("QueuedCost mid-execution = %v, want 11s", got)
	}
	// Past the estimate, the remaining share clamps at zero.
	sim.Go(func() { sim.Sleep(20 * time.Second) })
	sim.Wait()
	if got := w.QueuedCost(); got != 5*time.Second {
		t.Errorf("QueuedCost over-budget = %v, want 5s", got)
	}
}

func TestJobCloneAndComputeMB(t *testing.T) {
	j := &Job{ID: "x", Stream: "s", DataKey: "k", DataSizeMB: 10}
	if j.computeMB() != 10 {
		t.Errorf("computeMB = %v, want DataSizeMB fallback", j.computeMB())
	}
	j.ComputeMB = 3
	if j.computeMB() != 3 {
		t.Errorf("computeMB = %v, want explicit override", j.computeMB())
	}
}

func TestStaticCostsDefaultModel(t *testing.T) {
	// Noisy speeds: the default model prices at the nominal ones.
	st := NewWorkerState(WorkerSpec{
		Name: "d", Net: netsim.Speed{BaseMBps: 20, NoiseAmp: 0.5}, RW: netsim.Speed{BaseMBps: 40, NoiseAmp: 0.5},
	}, nil)
	if st.Link.NominalNetMBps() != 20 || st.Link.NominalRWMBps() != 40 {
		t.Error("nominal accessors wrong")
	}
	if got := st.Costs.TransferEstimate(false, 100); got != 5*time.Second {
		t.Errorf("TransferEstimate = %v", got)
	}
	if got := st.Costs.TransferEstimate(true, 100); got != 0 {
		t.Errorf("local TransferEstimate = %v", got)
	}
	if got := st.Costs.ProcessEstimate(100); got != 2500*time.Millisecond {
		t.Errorf("ProcessEstimate = %v", got)
	}
	st.Costs.ObserveTransfer(1, 1) // static model ignores observations
	st.Costs.ObserveProcess(1, 1)
	if got := st.Costs.TransferEstimate(false, 100); got != 5*time.Second {
		t.Errorf("estimate drifted after observations: %v", got)
	}
}

// TestZeroNetSpeedEstimatesTheLinksTime: a worker whose network speed
// is left zero must estimate a remote job at the time its own link
// takes to fetch it (saturated at 1e9 s), not at a negative duration
// converted from +Inf that would win every contest.
func TestZeroNetSpeedEstimatesTheLinksTime(t *testing.T) {
	st := NewWorkerState(WorkerSpec{Name: "z", RW: netsim.Speed{BaseMBps: 40}}, nil)
	got := st.Costs.TransferEstimate(false, 10)
	if want := st.Link.TransferTime(10, vclock.Epoch); got != want || got <= 0 {
		t.Errorf("TransferEstimate = %v, want the link's %v", got, want)
	}
}

func TestWorkerSpecHeartbeatDefault(t *testing.T) {
	st := NewWorkerState(WorkerSpec{Name: "h"}, nil)
	if st.Spec.Heartbeat != 500*time.Millisecond {
		t.Errorf("Heartbeat = %v, want 500ms default", st.Spec.Heartbeat)
	}
	st2 := NewWorkerState(WorkerSpec{Name: "h2", Heartbeat: time.Second}, nil)
	if st2.Spec.Heartbeat != time.Second {
		t.Errorf("explicit heartbeat overridden: %v", st2.Spec.Heartbeat)
	}
}
