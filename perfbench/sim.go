package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dscs"
	"dscs/internal/cluster"
	"dscs/internal/faas"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/units"
)

// simWorkload replays traces through the simulators; each round runs every
// config once.
type simWorkload struct {
	name    string
	configs []string
}

var simWorkloads = map[string]simWorkload{
	"sim-fig13":    {name: "sim-fig13", configs: []string{"fig13_cpu", "fig13_dscs", "hybrid"}},
	"sim-workflow": {name: "sim-workflow", configs: []string{"workflow"}},
}

// allSimConfigs is every replay config, in report order.
var allSimConfigs = []string{"fig13_cpu", "fig13_dscs", "hybrid", "workflow"}

// fig13Trace is the paper's bursty profile (trace.PaperTrace) cut to its
// first 4-minute burst period of five: the same rates and burst shape,
// about 120k requests, so one replay takes a fraction of a second and a
// run holds several.
func fig13Trace() trace.BurstyConfig {
	cfg := trace.PaperTrace()
	cfg.Duration = cfg.BurstEvery
	return cfg
}

// workflowTrace is an ETL/ML mix arriving at 2 workflows/s, cut to its
// first workflowCount arrivals (about 2 minutes, about 1100 stages) so
// that every seed replays the same amount of work.
func workflowTrace() trace.WorkflowConfig {
	return trace.WorkflowConfig{Duration: 3 * time.Minute, Rate: 2, ETLShare: 0.5, FanOut: 4}
}

const workflowCount = 240

// firstWorkflows cuts a workflow trace to its first n arrivals.
func firstWorkflows(wtr *trace.WorkflowTrace, n int) (*trace.WorkflowTrace, error) {
	if len(wtr.Workflows) < n {
		return nil, fmt.Errorf("workflow trace has %d arrivals, want at least %d", len(wtr.Workflows), n)
	}
	kept := wtr.Workflows[:n]
	return &trace.WorkflowTrace{Workflows: kept, Duration: kept[n-1].At}, nil
}

// simRig holds the calibrated service models and the generated traces.
type simRig struct {
	seed      uint64
	cpu, dscs map[string]time.Duration
	accel     map[string]int
	fig13     *trace.Trace
	workflows *trace.WorkflowTrace
	generate  time.Duration
}

// newSimRig calibrates the per-app service medians from in-process
// Runner.Invoke at q=0.5 on both platforms and generates the traces the
// configs need from seed.
func newSimRig(seed uint64, configs []string) (*simRig, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	r := &simRig{
		seed: seed,
		cpu:  make(map[string]time.Duration), dscs: make(map[string]time.Duration),
		accel: make(map[string]int),
	}
	for _, b := range env.Suite {
		for _, p := range []struct {
			runner *faas.Runner
			into   map[string]time.Duration
		}{{env.Baseline(), r.cpu}, {env.DSCS(), r.dscs}} {
			res, err := p.runner.Invoke(b, faas.Options{Quantile: 0.5})
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", b.Slug, err)
			}
			p.into[b.Slug] = res.Total()
		}
		app, err := faas.AppFor(b)
		if err != nil {
			return nil, err
		}
		r.accel[b.Slug] = len(app.AcceleratedPrefix())
	}
	fig13RNG, workflowRNG := env.RNG.Split(), env.RNG.Split()
	start := time.Now()
	for _, c := range configs {
		switch {
		case c == "workflow" && r.workflows == nil:
			wtr, err := trace.GenerateWorkflows(workflowTrace(), env.Suite, workflowRNG)
			if err != nil {
				return nil, err
			}
			if r.workflows, err = firstWorkflows(wtr, workflowCount); err != nil {
				return nil, err
			}
		case c != "workflow" && r.fig13 == nil:
			if r.fig13, err = trace.Generate(fig13Trace(), env.Suite, fig13RNG); err != nil {
				return nil, err
			}
		}
	}
	r.generate = time.Since(start)
	return r, nil
}

// setupSim sets up setupReps times and returns the last rig with the
// median set-up time in seconds. Every set-up of one seed must generate
// the same traces.
func setupSim(seed uint64, configs []string) (*simRig, float64, error) {
	var rig *simRig
	times := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		c0 := readClock()
		r, err := newSimRig(seed, configs)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, c0.to(readClock()).available().Seconds())
		if rig != nil && (r.tasks("fig13_cpu") != rig.tasks("fig13_cpu") || r.tasks("workflow") != rig.tasks("workflow")) {
			return nil, 0, fmt.Errorf("set-ups of seed %d generated different traces", seed)
		}
		rig = r
	}
	return rig, median(times), nil
}

// tasks is the number of scheduler tasks one replay of config performs:
// trace requests, or workflow stages.
func (r *simRig) tasks(config string) int {
	if config == "workflow" {
		if r.workflows == nil {
			return 0
		}
		return r.workflows.Stages()
	}
	if r.fig13 == nil {
		return 0
	}
	return len(r.fig13.Requests)
}

// canary is a replay's outcome in simulated time. A change that only
// affects speed must leave it identical.
type canary struct {
	Completed, Dropped int
	PeakQueue          float64
	LatencyP99MS       float64
	LocalStages        int
	FabricMB           float64
	MakespanP50MS      float64
}

func (r *simRig) lognormal(medians map[string]time.Duration) cluster.ServiceModel {
	return func(slug string, rng *sim.RNG) time.Duration {
		return sim.LogNormal{Median: medians[slug], Sigma: 0.2}.Sample(rng)
	}
}

func (r *simRig) hybridService(slug string) (cpu, dscs time.Duration, accel int) {
	return r.cpu[slug], r.dscs[slug], r.accel[slug]
}

// replay runs one config and checks its conservation ledger: every arrival
// completes, drops or strands exactly once.
func (r *simRig) replay(config string) (canary, error) {
	switch config {
	case "fig13_cpu", "fig13_dscs":
		medians, seed := r.cpu, r.seed+101
		if config == "fig13_dscs" {
			medians, seed = r.dscs, r.seed+102
		}
		cfg := cluster.PaperConfig(r.lognormal(medians))
		cfg.Policy = sched.FCFSPolicy{}
		st, err := cluster.Run(r.fig13, cfg, seed)
		if err != nil {
			return canary{}, err
		}
		if n := len(r.fig13.Requests); st.Completed+st.Dropped+st.Stranded != n {
			return canary{}, fmt.Errorf("%s conservation: %d completed + %d dropped + %d stranded != %d arrivals",
				config, st.Completed, st.Dropped, st.Stranded, n)
		}
		return canary{Completed: st.Completed, Dropped: st.Dropped, PeakQueue: st.Queue.MaxValue(),
			LatencyP99MS: millis(st.LatencySample.Percentile(0.99))}, nil
	case "hybrid":
		st, err := cluster.RunHybrid(r.fig13, cluster.HybridConfig{
			CPUInstances: 160, DSCSInstances: 40, QueueDepth: 10000,
			Policy: sched.FCFSPolicy{}, Service: r.hybridService, Jitter: 0.2,
			SplitQueues: true, CPUPools: 2, AdaptiveBalance: true, SLO: time.Second,
		}, r.seed+103)
		if err != nil {
			return canary{}, err
		}
		if n := len(r.fig13.Requests); st.Completed+st.Dropped+st.Stranded != n {
			return canary{}, fmt.Errorf("hybrid conservation: %d completed + %d dropped + %d stranded != %d arrivals",
				st.Completed, st.Dropped, st.Stranded, n)
		}
		return canary{Completed: st.Completed, Dropped: st.Dropped, PeakQueue: st.Queue.MaxValue(),
			LatencyP99MS: millis(st.Latency.Percentile(0.99))}, nil
	case "workflow":
		st, err := cluster.RunWorkflows(r.workflows, cluster.WorkflowSimConfig{
			Drives: 4, WorkersPerDrive: 2, CPUInstances: 4, QueueDepth: 256,
			Service: r.hybridService, Jitter: 0.15, Locality: true,
			MaxBatch: 4, BatchLinger: 20 * time.Millisecond, MakespanSLO: 5 * time.Second,
		}, r.seed+104)
		if err != nil {
			return canary{}, err
		}
		if n := r.workflows.Stages(); st.Stages != n || st.StagesCompleted+st.StagesDropped+st.StagesStranded != n ||
			st.Workflows != len(r.workflows.Workflows) || st.WorkflowsSettled != st.Workflows {
			return canary{}, fmt.Errorf("workflow conservation: %d stages (%d completed + %d dropped + %d stranded) of %d; %d of %d workflows settled",
				st.Stages, st.StagesCompleted, st.StagesDropped, st.StagesStranded, n, st.WorkflowsSettled, st.Workflows)
		}
		return canary{Completed: st.StagesCompleted, Dropped: st.StagesDropped, PeakQueue: st.Queue.MaxValue(),
			LatencyP99MS: millis(st.MakespanSample.Percentile(0.99)),
			LocalStages:  st.LocalStages, FabricMB: float64(st.FabricBytes) / float64(units.MB),
			MakespanP50MS: millis(st.MakespanP50)}, nil
	}
	return canary{}, fmt.Errorf("unknown sim config %q", config)
}

// replayResult is a series of replay rounds.
type replayResult struct {
	calls, failed, wrong int64
	tasks                int64
	// perConfig holds the thread CPU seconds of every successful call.
	perConfig map[string][]float64
	wallS     float64           // wall seconds of every successful call, summed
	peakMB    []float64         // heap peak of every successful call
	canaries  map[string]canary // the first replay of each config
	mem       memDelta
}

// replayRounds runs rounds of configs until dur has passed and at least
// minRounds rounds are done. Every replay of a config must reproduce the
// first one's canary exactly: same seed, same trace, same simulated result.
//
// A replay is single-threaded, so its host time is taken as the CPU time
// of the thread that ran it: the time the hypervisor steals from the
// machine, and other tenants' load, stay out of it.
func (r *simRig) replayRounds(out io.Writer, configs []string, dur time.Duration, minRounds int) replayResult {
	res := replayResult{perConfig: make(map[string][]float64), canaries: make(map[string]canary)}
	runtime.GC()
	before := readMem()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < dur; round++ {
		for _, c := range configs {
			// Every call starts from a collected heap, so no call inherits
			// the previous one's garbage or GC debt.
			runtime.GC()
			smp := startSampler(0)
			runtime.LockOSThread()
			t0, w0 := threadCPU(), time.Now()
			can, err := r.replay(c)
			cpu, wall := threadCPU()-t0, time.Since(w0)
			runtime.UnlockOSThread()
			peak := peakMB(smp.finish())
			res.calls++
			if err != nil {
				res.failed++
				res.wrong++
				fmt.Fprintf(out, "# replay %s failed: %v\n", c, err)
				continue
			}
			if ref, ok := res.canaries[c]; !ok {
				res.canaries[c] = can
			} else if can != ref {
				res.failed++
				res.wrong++
				fmt.Fprintf(out, "# replay %s diverged across replays of one seed: %+v vs %+v\n", c, can, ref)
				continue
			}
			res.tasks += int64(r.tasks(c))
			res.perConfig[c] = append(res.perConfig[c], cpu.Seconds())
			res.wallS += wall.Seconds()
			res.peakMB = append(res.peakMB, peak)
		}
	}
	res.mem = deltaMem(before, readMem())
	return res
}

// roundSeconds is the host time of one round: the median call of each
// config, summed.
func (rr *replayResult) roundSeconds(configs []string) float64 {
	var s float64
	for _, c := range configs {
		s += median(append([]float64(nil), rr.perConfig[c]...))
	}
	return s
}

// runSim is the untraced measurement of a sim workload.
func runSim(out io.Writer, w simWorkload, opt options) (*outcome, error) {
	rig, setupS, err := setupSim(opt.seed, w.configs)
	if err != nil {
		return nil, err
	}
	rr := rig.replayRounds(out, w.configs, time.Duration(opt.seconds)*time.Second, 2)
	for _, c := range w.configs {
		if len(rr.perConfig[c]) == 0 {
			return nil, fmt.Errorf("%s: no replay of %s succeeded", w.name, c)
		}
	}
	reportReplays(out, w.name, rr)
	var roundTasks int
	for _, c := range w.configs {
		roundTasks += rig.tasks(c)
	}
	return &outcome{
		attempted: rr.calls, failed: rr.failed, wrong: rr.wrong,
		values: map[string]float64{
			"throughput_rps": float64(roundTasks) / rr.roundSeconds(w.configs),
			"success_ratio":  float64(rr.calls-rr.failed) / float64(rr.calls),
			"setup_s":        setupS,
			"peak_heap_mb":   median(rr.peakMB),
		},
	}, nil
}

func reportReplays(out io.Writer, name string, rr replayResult) {
	fmt.Fprintf(out, "# %s: %d replay calls (%d failed), %d scheduler tasks, error_rate %.6f, latency samples %d (replay calls); raw wall clock %.1f tasks/s\n",
		name, rr.calls, rr.failed, rr.tasks, float64(rr.failed)/float64(max(rr.calls, 1)),
		rr.calls-rr.failed, float64(rr.tasks)/rr.wallS)
	for _, c := range allSimConfigs {
		if can, ok := rr.canaries[c]; ok {
			fmt.Fprintf(out, "# canary %s: %+v\n", c, can)
		}
	}
}
