package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/workload"
)

// waitFor polls a condition with a hard deadline — used to stage the
// deterministic spillover scenarios.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dscsBusy reports the DSCS pool's occupied workers.
func dscsBusy(eng *Engine) int {
	p := eng.pools["DSCS-Serverless"]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Busy()
}

// spillPeer resolves the engine MultiCore's spill target — static
// (least-queued) or adaptive (least priced wait) — to its pool, nil when
// no healthy CPU-class pool exists.
func spillPeer(eng *Engine, byWait bool) *pool {
	if i, ok := eng.mc.spillPeer(byWait); ok {
		return eng.all[i]
	}
	return nil
}

func TestSpilloverValidation(t *testing.T) {
	if _, err := NewEngine(testRunners(t), Options{SpilloverThreshold: 4, SpilloverTo: "TPU"}); err == nil {
		t.Error("unknown spillover target must fail")
	}
	if _, err := NewEngine(testRunners(t), Options{SpilloverThreshold: 4, SpilloverTo: "DSCS-Serverless"}); err == nil {
		t.Error("DSCS-class spillover target must fail")
	}
}

func TestSpillTarget(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 1, SpilloverThreshold: 4, SpilloverTo: "Baseline (CPU)"})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := spillPeer(eng, false); got == nil || got.name != "Baseline (CPU)" {
		t.Fatalf("explicit spill target not honored: %+v", got)
	}

	eng2, err := NewEngine(testRunners(t), Options{Workers: 1, SpilloverThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	got := spillPeer(eng2, false)
	if got == nil || got.class != sched.ClassCPU {
		t.Fatalf("default spill target must be a CPU-class pool, got %+v", got)
	}
}

// TestEngineSpillover pins the reroute deterministically: the test holds
// both physical DSCS drives, so the single DSCS worker blocks in drive
// acquisition and the queue provably backs up past the threshold; the next
// submission must then be served by the CPU pool and counted in
// serve_spillover_total{from,to}.
func TestEngineSpillover(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 1,
		SpilloverThreshold: 1, SpilloverTo: "Baseline (CPU)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")

	// Hold every physical drive: the DSCS worker can dispatch but not
	// execute, so queued work stays queued.
	var held []int
	for range eng.drives.ids {
		idx, _ := eng.drives.acquire()
		if idx < 0 {
			t.Fatal("could not hold a drive")
		}
		held = append(held, idx)
	}

	// Stage the backlog one step at a time so no setup submission can
	// itself trip the threshold: first a request the worker dispatches
	// (and then stalls on the drives), then one that provably queues.
	var wg sync.WaitGroup
	submitDSCS := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	submitDSCS()
	waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })
	submitDSCS()
	waitFor(t, "second request queued", func() bool { return eng.QueueLen("DSCS-Serverless") == 1 })

	inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Platform != "Baseline (CPU)" {
		t.Errorf("over-threshold submission served on %q, want the CPU pool", inv.Platform)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_spillover_total{from=DSCS-Serverless,to=Baseline (CPU)}"); got != 1 {
		t.Errorf("labeled spill counter = %g, want 1", got)
	}
	if got := tel.Counter("serve_spillover_total"); got != 1 {
		t.Errorf("total spill counter = %g, want 1", got)
	}

	for _, idx := range held {
		eng.drives.release(idx)
	}
	wg.Wait()
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSpilloverFallsBackWhenTargetFull: a full spill target must not
// reject a request the DSCS queue could still admit — the submission
// bounces back to the original pool and no spill is counted.
func TestEngineSpilloverFallsBackWhenTargetFull(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 2, MaxBatch: 1,
		SpilloverThreshold: 1, SpilloverTo: "Baseline (CPU)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bench := workload.BySlug("asset-damage")

	// Hold every drive so the DSCS worker blocks after its first dispatch.
	var held []int
	for range eng.drives.ids {
		idx, _ := eng.drives.acquire()
		held = append(held, idx)
	}
	// Pin the CPU queue at its bound without signaling the workers: the
	// requests are real (they get served at Close), but with no signal a
	// parked worker never dispatches them. A worker still mid-startup may
	// drain an early fill, so retry until an unsignaled fill sticks.
	cpu := eng.pools["Baseline (CPU)"]
	waitFor(t, "CPU queue pinned at its bound", func() bool {
		cpu.mu.Lock()
		for cpu.core.QueueLen() < 2 {
			id := int(eng.nextID.Add(1))
			req := &request{bench: bench, opt: faas.Options{Quantile: 0.5},
				enq: time.Now(), done: make(chan outcome, 1)}
			if !cpu.core.Submit(sched.HybridTask{ID: id, Arrived: eng.now(),
				Payload: bench.Slug, Ref: req}) {
				break
			}
		}
		cpu.mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		cpu.mu.Lock()
		defer cpu.mu.Unlock()
		return cpu.core.QueueLen() == 2 && cpu.core.Busy() == 0
	})

	var wg sync.WaitGroup
	submitDSCS := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			if err != nil {
				t.Error(err)
			} else if inv.Platform != "DSCS-Serverless" {
				t.Errorf("pre-threshold request served on %q", inv.Platform)
			}
		}()
	}
	// Stage the backlog: one request dispatched (worker stalls on the
	// drives), one provably queued — depth exactly 1 of bound 2.
	submitDSCS()
	waitFor(t, "first request dispatched", func() bool { return dscsBusy(eng) == 1 })
	submitDSCS()
	waitFor(t, "second request queued", func() bool { return eng.QueueLen("DSCS-Serverless") == 1 })

	// Over threshold, spill target full: the submission must bounce back
	// to the DSCS pool, uncounted, and be served there once the drives
	// free up.
	done := make(chan Invocation, 1)
	go func() {
		inv, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
		if err != nil {
			t.Errorf("bounced submission failed: %v", err)
		}
		done <- inv
	}()
	waitFor(t, "bounced submission to land on the DSCS queue", func() bool {
		return eng.QueueLen("DSCS-Serverless") == 2
	})
	if spills := eng.Telemetry().Counter("serve_spillover_total"); spills != 0 {
		t.Errorf("spill counter = %g for a bounced spill, want 0", spills)
	}

	for _, idx := range held {
		eng.drives.release(idx)
	}
	wg.Wait()
	if inv := <-done; inv.Platform != "DSCS-Serverless" {
		t.Errorf("bounced submission served on %q, want the DSCS pool", inv.Platform)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLingerCoalesces drives deadline-aware batching on the wall
// clock: one worker, a generous linger, and a burst of identical requests
// must coalesce into fewer executions than requests.
func TestEngineLingerCoalesces(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 1, QueueDepth: 64, MaxBatch: 8,
		BatchLinger: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 8
	bench := workload.BySlug("chatbot")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_completed_total"); got != n {
		t.Fatalf("served %g of %d", got, n)
	}
	if batches := tel.Counter("serve_batches_total"); batches >= n {
		t.Errorf("linger coalesced nothing: %g executions for %d requests", batches, n)
	}
	if occ := tel.Gauge("serve_batch_occupancy{platform=DSCS-Serverless}"); occ < 2 {
		t.Errorf("per-platform batch occupancy = %g, want >= 2 after a lingered batch", occ)
	}
}

// TestEngineDriveOccupancy checks that DSCS executions acquire the
// physical drives: with more workers than drives and a burst of requests,
// the acquisition counters must account for every execution and contention
// must be visible.
func TestEngineDriveOccupancy(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{Workers: 4, QueueDepth: 64, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if len(eng.drives.ids) != 2 {
		t.Fatalf("test store should expose 2 DSCS drives, got %v", eng.drives.ids)
	}

	const n = 24
	bench := workload.BySlug("moderation")
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	tel := eng.Telemetry()
	var acquired float64
	for _, id := range eng.drives.ids {
		acquired += tel.Counter("serve_drive_acquired_total{drive=" + id + "}")
		if busy := tel.Gauge("serve_drive_busy{drive=" + id + "}"); busy != 0 {
			t.Errorf("drive %s still marked busy after drain", id)
		}
	}
	if int(acquired) != n {
		t.Errorf("drive acquisitions %g != %d executions", acquired, n)
	}
	// CPU-class pools must not touch the drives.
	if _, err := eng.Submit("Baseline (CPU)", bench, faas.Options{Quantile: 0.5}); err != nil {
		t.Fatal(err)
	}
	var after float64
	for _, id := range eng.drives.ids {
		after += tel.Counter("serve_drive_acquired_total{drive=" + id + "}")
	}
	if after != acquired {
		t.Errorf("CPU execution acquired a DSCS drive (%g -> %g)", acquired, after)
	}
}

// TestEngineSpilloverLingerConservation is the satellite stress test:
// spillover and lingering together, 64-way concurrent load, bookkeeping
// must stay conserved (run under -race in CI).
func TestEngineSpilloverLingerConservation(t *testing.T) {
	eng, err := NewEngine(testRunners(t), Options{
		Workers: 2, QueueDepth: 8, MaxBatch: 8,
		BatchLinger:        2 * time.Millisecond,
		SpilloverThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const n = 64
	bench := workload.BySlug("translation")
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, full := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Submit("DSCS-Serverless", bench, faas.Options{Quantile: 0.5})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served+full != n {
		t.Fatalf("lost requests: %d served + %d throttled != %d", served, full, n)
	}
	if err := eng.Conservation(); err != nil {
		t.Fatal(err)
	}
	tel := eng.Telemetry()
	if got := tel.Counter("serve_completed_total"); got != float64(served) {
		t.Errorf("serve_completed_total = %g, want %d", got, served)
	}
	// The per-platform occupancy gauges must carry their platform label
	// (the unlabeled gauge was a cross-pool last-write-wins bug).
	render := tel.Render()
	if strings.Contains(render, "serve_batch_occupancy ") {
		t.Error("unlabeled serve_batch_occupancy gauge resurfaced")
	}
}
