package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// workflowTestTrace is the seeded mixed trace the workflow tests share:
// ETL scatter-gather and ML chains at a rate that keeps the drive pools
// busy without saturating them.
func workflowTestTrace(t *testing.T) *trace.WorkflowTrace {
	t.Helper()
	wtr, err := trace.GenerateWorkflows(trace.WorkflowConfig{
		Duration: 4 * time.Minute, Rate: 0.8, ETLShare: 0.5, FanOut: 4,
	}, workload.Suite(), sim.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	return wtr
}

// workflowGoldenConfig is the hybrid-regime setup the locality golden pins.
func workflowGoldenConfig(locality bool) WorkflowSimConfig {
	return WorkflowSimConfig{
		Drives: 4, WorkersPerDrive: 2, CPUInstances: 4, QueueDepth: 64,
		Service: mixedService, Locality: locality, MaxBatch: 4,
		BatchLinger: 20 * time.Millisecond, SampleEvery: 10 * time.Second,
		MakespanSLO: 5 * time.Second,
	}
}

// TestWorkflowLocalityGolden pins the locality comparison on the seeded
// mixed trace (Jitter=0, q=0.5 object I/O — the run is exactly
// reproducible): locality-aware placement must strictly dominate the
// locality-blind rotation on end-to-end makespan AND bytes moved over the
// fabric, and the exact values are pinned so a placement or pricing change
// cannot drift in silently. The PR 2–9 goldens run beside this one
// untouched: workflows are a separate entry point, so with workflows off
// those sims replay bit-identically (the full suite enforces it).
func TestWorkflowLocalityGolden(t *testing.T) {
	wtr := workflowTestTrace(t)
	aware, err := RunWorkflows(wtr, workflowGoldenConfig(true), 33)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := RunWorkflows(wtr, workflowGoldenConfig(false), 33)
	if err != nil {
		t.Fatal(err)
	}

	// Strict dominance: the thesis is "run the function where the data
	// lives", so the replica-map-aware placer must beat the rotation on
	// both axes, not trade one for the other.
	if aware.FabricBytes >= blind.FabricBytes {
		t.Fatalf("locality moved %d fabric bytes, blind %d — locality must strictly win",
			aware.FabricBytes, blind.FabricBytes)
	}
	if aware.MakespanP95 >= blind.MakespanP95 || aware.MakespanSample.Mean() >= blind.MakespanSample.Mean() {
		t.Fatalf("locality makespan p95=%v mean=%v vs blind p95=%v mean=%v — locality must strictly win",
			aware.MakespanP95, aware.MakespanSample.Mean(), blind.MakespanP95, blind.MakespanSample.Mean())
	}
	if aware.LocalStages <= blind.LocalStages {
		t.Fatalf("locality served %d stages local, blind %d", aware.LocalStages, blind.LocalStages)
	}

	// Everything settles cleanly in both regimes.
	for name, st := range map[string]*WorkflowStats{"aware": aware, "blind": blind} {
		if st.WorkflowsSettled != st.Workflows || st.WorkflowsSucceeded != st.Workflows {
			t.Fatalf("%s: %d/%d settled, %d succeeded", name, st.WorkflowsSettled, st.Workflows, st.WorkflowsSucceeded)
		}
		if st.StagesDropped != 0 || st.StagesStranded != 0 || st.FetchFailures != 0 {
			t.Fatalf("%s: dropped=%d stranded=%d fetchFailures=%d on a faultless run",
				name, st.StagesDropped, st.StagesStranded, st.FetchFailures)
		}
		if st.Formed == 0 || st.Batches > st.StagesCompleted {
			t.Fatalf("%s: formed=%d batches=%d completed=%d — inter-stage batching never engaged",
				name, st.Formed, st.Batches, st.StagesCompleted)
		}
	}
	// Batching coalesced parallel fan-out shards: executions < stages.
	if aware.Batches >= aware.StagesCompleted {
		t.Fatalf("aware: %d batches for %d stages — no coalescing", aware.Batches, aware.StagesCompleted)
	}

	// The pinned goldens. Every value below is deterministic; a diff means
	// placement, batching, or store pricing changed and must be reviewed.
	pins := []struct {
		name      string
		got, want int64
	}{
		{"workflows", int64(aware.Workflows), 164},
		{"stages", int64(aware.Stages), 765},
		{"aware.LocalStages", int64(aware.LocalStages), 484},
		{"aware.RemoteStages", int64(aware.RemoteStages), 281},
		{"aware.LocalBytes", int64(aware.LocalBytes), 1331893500},
		{"aware.FabricBytes", int64(aware.FabricBytes), 1062450140},
		{"aware.Batches", int64(aware.Batches), 763},
		{"aware.MakespanP50", int64(aware.MakespanP50), int64(373406279)},
		{"aware.MakespanP95", int64(aware.MakespanP95), int64(731727087)},
		{"blind.LocalStages", int64(blind.LocalStages), 158},
		{"blind.FabricBytes", int64(blind.FabricBytes), 1888694360},
		{"blind.MakespanP50", int64(blind.MakespanP50), int64(636800592)},
		{"blind.MakespanP95", int64(blind.MakespanP95), int64(1351933331)},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("golden drift: %s = %d, want %d", p.name, p.got, p.want)
		}
	}
}

// TestWorkflowRackRegime drives the drives-only shape (CPUInstances=0, the
// Figure 13 regime) with jitter armed: the ledger must balance and the
// batching/telemetry surfaces must engage regardless of placement policy.
func TestWorkflowRackRegime(t *testing.T) {
	wtr := workflowTestTrace(t)
	st, err := RunWorkflows(wtr, WorkflowSimConfig{
		Drives: 6, WorkersPerDrive: 2, QueueDepth: 128,
		Service: mixedService, Jitter: 0.15, Locality: true, MaxBatch: 4,
		BatchLinger: 20 * time.Millisecond,
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.WorkflowsSettled != st.Workflows {
		t.Fatalf("%d/%d workflows settled", st.WorkflowsSettled, st.Workflows)
	}
	if st.StagesCompleted+st.StagesDropped+st.StagesStranded != st.Stages {
		t.Fatalf("stage ledger leaks: %d+%d+%d != %d",
			st.StagesCompleted, st.StagesDropped, st.StagesStranded, st.Stages)
	}
	if st.LocalStages == 0 || st.Queue.MaxValue() < 0 {
		t.Fatalf("degenerate rack run: %+v", st)
	}
}

// TestWorkflowFanInStrandedByFault composes workflows with the PR 8 fault
// model: a scripted pool kill strands one branch of a fan-in mid-flight —
// the branch's task requeues onto the dead pool's durable queue and waits
// there past the horizon — so the join can never assemble its inputs and
// must settle stranded, while the surviving branch still completes. The
// per-workflow ledger (completed + dropped + stranded == admitted) is
// enforced inside RunWorkflows; this test pins the exact split.
func TestWorkflowFanInStrandedByFault(t *testing.T) {
	spec, err := trace.ParseWorkflowSpec(
		"0s:a=ppe-detection:;0s:b=ppe-detection:a;0s:c=ppe-detection:a;0s:d=ppe-detection:b,c")
	if err != nil {
		t.Fatal(err)
	}
	faults, err := trace.ParseFaultScript("400ms:pool-down:drive1")
	if err != nil {
		t.Fatal(err)
	}
	wtr := &trace.WorkflowTrace{
		Workflows: []trace.Workflow{{ID: 0, At: 0, Spec: spec}},
		Duration:  time.Second,
	}
	// Locality off: the blind rotation deterministically spreads a→drive0,
	// b→drive1, c→drive0, so the kill at 400ms catches exactly branch b
	// executing on drive1.
	st, err := RunWorkflows(wtr, WorkflowSimConfig{
		Drives: 2, WorkersPerDrive: 1, QueueDepth: 8,
		Service: mixedService, Locality: false, Faults: faults,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 1 || st.Requeued != 1 {
		t.Fatalf("fault machinery: faults=%d requeued=%d, want 1/1", st.Faults, st.Requeued)
	}
	if st.StagesCompleted != 2 || st.StagesStranded != 2 || st.StagesDropped != 0 {
		t.Fatalf("ledger split completed=%d stranded=%d dropped=%d, want 2/2/0",
			st.StagesCompleted, st.StagesStranded, st.StagesDropped)
	}
	if st.WorkflowsSucceeded != 0 || st.WorkflowsSettled != 1 {
		t.Fatalf("workflow settled=%d succeeded=%d, want settled partial", st.WorkflowsSettled, st.WorkflowsSucceeded)
	}
}

// TestWorkflowDriveLossRepeatable pins seeded replays through the loss of
// populated drives: each drive-down re-replicates what the drive held, and
// the third loss leaves a chunk with no healthy source, where the repair
// stops — so which chunks it repaired first (and every read, placement and
// write after it) depends on the order it walks the objects in. Two
// same-seed runs must agree on every statistic.
func TestWorkflowDriveLossRepeatable(t *testing.T) {
	wtr, err := trace.GenerateWorkflows(trace.WorkflowConfig{
		Duration: 2 * time.Minute, Rate: 3, ETLShare: 0.5, FanOut: 4,
	}, workload.Suite(), sim.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	faults, err := trace.ParseFaultScript("30s:drive-down:drive1;40s:drive-down:drive2;50s:drive-down:drive3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workflowGoldenConfig(true)
	cfg.Faults = faults
	run := func() *WorkflowStats {
		st, err := RunWorkflows(wtr, cfg, 33)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Faults != 3 || a.StagesCompleted == 0 {
		t.Fatalf("faults/completed = %d/%d, want three drive losses over a live run", a.Faults, a.StagesCompleted)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed replays diverged:\n%+v\n%+v", a, b)
	}
}

// TestRunWorkflowsRejectsBadInput pins the config and fault-script guard
// rails.
func TestRunWorkflowsRejectsBadInput(t *testing.T) {
	wtr := workflowTestTrace(t)
	if _, err := RunWorkflows(nil, workflowGoldenConfig(true), 1); err == nil {
		t.Fatal("accepted a nil trace")
	}
	if _, err := RunWorkflows(wtr, WorkflowSimConfig{}, 1); err == nil {
		t.Fatal("accepted an empty config")
	}
	cfg := workflowGoldenConfig(true)
	cfg.Faults, _ = trace.ParseFaultScript("1s:pool-down:nonesuch")
	if _, err := RunWorkflows(wtr, cfg, 1); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("unknown fault target accepted: %v", err)
	}
	bad := &trace.WorkflowTrace{Workflows: []trace.Workflow{{
		Spec: &trace.WorkflowSpec{Stages: []trace.WorkflowStage{{ID: "a", Benchmark: "nonesuch"}}},
	}}, Duration: time.Second}
	if _, err := RunWorkflows(bad, workflowGoldenConfig(true), 1); err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("unknown benchmark accepted: %v", err)
	}
}
