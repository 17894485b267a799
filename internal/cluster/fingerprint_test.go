package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dscs/internal/metrics"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// fingerprint collects one run's observable outcome as sorted key=value
// lines, so a drift anywhere in the driver shows as a one-line diff.
type fingerprint map[string]string

func (f fingerprint) int(key string, v int)           { f[key] = strconv.Itoa(v) }
func (f fingerprint) dur(key string, v time.Duration) { f[key] = strconv.FormatInt(int64(v), 10) }
func (f fingerprint) float(key string, v float64)     { f[key] = strconv.FormatFloat(v, 'g', -1, 64) }
func (f fingerprint) str(key string, v string)        { f[key] = v }
func (f fingerprint) series(key string, s metrics.Series) {
	f.float(key+".max", s.MaxValue())
	f.float(key+".mean", s.MeanValue())
}

func (f fingerprint) sample(key string, s *metrics.Sample) {
	f.int(key+".n", s.Len())
	f.dur(key+".mean", s.Mean())
	f.dur(key+".p99", s.Percentile(0.99))
	f.dur(key+".max", s.Max())
}

func (f fingerprint) String() string {
	lines := make([]string, 0, len(f))
	for k, v := range f {
		lines = append(lines, k+"="+v)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func statsFingerprint(st *Stats) fingerprint {
	f := fingerprint{}
	f.int("completed", st.Completed)
	f.int("dropped", st.Dropped)
	f.int("batches", st.Batches)
	f.int("formed", st.Formed)
	f.int("within_slo", st.WithinSLO)
	f.int("cold_starts", st.ColdStarts)
	f.int("suspends", st.Suspends)
	f.int("faults", st.Faults)
	f.int("requeued", st.Requeued)
	f.int("stranded", st.Stranded)
	f.sample("latency", st.LatencySample)
	f.series("queue", st.Queue)
	f.series("latency_series", st.Latency)
	f.dur("wait_p50", st.WaitP50)
	f.dur("wait_p95", st.WaitP95)
	f.dur("wait_p99", st.WaitP99)
	f.dur("idle_cost", st.IdleCost)
	return f
}

func hybridFingerprint(st *HybridStats) fingerprint {
	f := fingerprint{}
	f.str("policy", st.Policy)
	f.int("completed", st.Completed)
	f.int("dropped", st.Dropped)
	f.int("on_dscs", st.OnDSCS)
	f.int("stolen", st.Stolen)
	f.int("spilled", st.Spilled)
	f.int("within_slo", st.WithinSLO)
	f.int("cold_starts", st.ColdStarts)
	f.int("suspends", st.Suspends)
	f.int("faults", st.Faults)
	f.int("requeued", st.Requeued)
	f.int("hedges_fired", st.HedgesFired)
	f.int("hedges_won", st.HedgesWon)
	f.int("stranded", st.Stranded)
	f.sample("latency", st.Latency)
	f.series("queue", st.Queue)
	f.dur("idle_cost", st.IdleCost)
	for pool, n := range st.Served {
		f.int("served."+pool, n)
	}
	for pool, w := range st.WaitP95 {
		f.dur("wait_p95."+pool, w)
	}
	return f
}

func workflowFingerprint(st *WorkflowStats) fingerprint {
	f := fingerprint{}
	f.int("workflows", st.Workflows)
	f.int("workflows_settled", st.WorkflowsSettled)
	f.int("workflows_succeeded", st.WorkflowsSucceeded)
	f.int("stages", st.Stages)
	f.int("stages_completed", st.StagesCompleted)
	f.int("stages_dropped", st.StagesDropped)
	f.int("stages_stranded", st.StagesStranded)
	f.int("local_stages", st.LocalStages)
	f.int("remote_stages", st.RemoteStages)
	f.int("local_bytes", int(st.LocalBytes))
	f.int("fabric_bytes", int(st.FabricBytes))
	f.int("batches", st.Batches)
	f.int("formed", st.Formed)
	f.int("within_slo", st.WithinSLO)
	f.int("faults", st.Faults)
	f.int("requeued", st.Requeued)
	f.int("fetch_failures", st.FetchFailures)
	f.sample("makespan", st.MakespanSample)
	f.dur("makespan_p50", st.MakespanP50)
	f.dur("makespan_p95", st.MakespanP95)
	f.series("queue", st.Queue)
	return f
}

// jitterService is a slug-dependent service model that draws from the
// run's stream, so the fingerprints also pin the RNG draw order.
func jitterService(slug string, rng *sim.RNG) time.Duration {
	cpu, _, _ := mixedService(slug)
	return sim.LogNormal{Median: cpu / 4, Sigma: 0.3}.Sample(rng)
}

// TestSimDriverFingerprints pins every arm the virtual-clock driver serves
// — the Figure 13 rack, the split and shared hybrid layouts, and the
// workflow replay — to exact seeded outcomes: every count, the latency
// mean/p99/max, the queue series, per-pool served counts and wait p95s,
// idle cost, and the workflow byte split. The relational goldens elsewhere
// check that regimes order correctly; this one checks that a refactor of
// the event loop moved nothing at all (event-insertion order and RNG draw
// order included).
func TestSimDriverFingerprints(t *testing.T) {
	mustFaults := func(script string) []trace.FaultEvent {
		evs, err := trace.ParseFaultScript(script)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	rackTrace := smallTrace(t, 60)
	rack := func(mutate func(*Config)) func() (fingerprint, error) {
		return func() (fingerprint, error) {
			cfg := Config{
				Instances: 4, QueueDepth: 200,
				Service: jitterService, SampleEvery: time.Second,
			}
			mutate(&cfg)
			st, err := Run(rackTrace, cfg, 11)
			if err != nil {
				return nil, err
			}
			return statsFingerprint(st), nil
		}
	}
	linger := func(cfg *Config) { cfg.MaxBatch, cfg.BatchLinger = 8, 20*time.Millisecond }
	global := func(cfg *Config) {
		cfg.MaxBatch, cfg.BatchLinger = 8, 50*time.Millisecond
		cfg.GlobalBatch, cfg.BatchSLO = true, 400*time.Millisecond
		cfg.StaticEstimate = func(slug string) time.Duration {
			cpu, _, _ := mixedService(slug)
			return cpu / 8
		}
		cfg.AdaptiveEstimates = true
		cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
	}
	// The elastic arm needs lulls to suspend into and crests to warm for.
	diurnal, err := trace.GenerateDiurnal(trace.DiurnalConfig{
		Duration: 4 * time.Minute, MinRate: 2, MaxRate: 60, Period: 2 * time.Minute,
		BurstFactor: 3, BurstEvery: time.Minute, BurstLength: 10 * time.Second,
	}, workload.Suite(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	rackFaults := "20s:pool-down:sim;25s:pool-up:sim;60s:pool-down:sim;61s:pool-up:sim"

	onesided := onesidedTrace(t)
	bursty := hybridTrace(t)
	split := func(tr *trace.Trace, seed uint64, mutate func(*HybridConfig)) func() (fingerprint, error) {
		return func() (fingerprint, error) {
			cfg := balanceConfig()
			mutate(&cfg)
			st, err := RunHybrid(tr, cfg, seed)
			if err != nil {
				return nil, err
			}
			return hybridFingerprint(st), nil
		}
	}

	wtr := workflowTestTrace(t)
	flow := func(mutate func(*WorkflowSimConfig)) func() (fingerprint, error) {
		return func() (fingerprint, error) {
			cfg := workflowGoldenConfig(true)
			mutate(&cfg)
			st, err := RunWorkflows(wtr, cfg, 33)
			if err != nil {
				return nil, err
			}
			return workflowFingerprint(st), nil
		}
	}

	// The fault arm runs a denser trace so pool kills catch executions in
	// flight: each pool (drive0..3, and cpu every fifth kill) browns out for
	// 1.5s every 3s, while drive1 is lost for the first 90s so placement
	// routes around it. The drive dies before any object exists; losing
	// populated drives is TestWorkflowDriveLossRepeatable's case.
	denseFlows, err := trace.GenerateWorkflows(trace.WorkflowConfig{
		Duration: 2 * time.Minute, Rate: 3, ETLShare: 0.5, FanOut: 4,
	}, workload.Suite(), sim.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	var kills []string
	for i, at := 0, 5*time.Second; at < 110*time.Second; i, at = i+1, at+3*time.Second {
		pool := fmt.Sprintf("drive%d", i%4)
		if i%5 == 0 {
			pool = cpuPool
		}
		kills = append(kills, fmt.Sprintf("%dms:pool-down:%s;%dms:pool-up:%s",
			at.Milliseconds(), pool, (at+1500*time.Millisecond).Milliseconds(), pool))
	}
	flowFaults := "0s:drive-down:drive1;90s:drive-up:drive1;" + strings.Join(kills, ";")

	for _, arm := range []struct {
		name string
		run  func() (fingerprint, error)
		want string
	}{
		{"run/plain", rack(func(*Config) {}), fpRunPlain},
		{"run/linger", rack(linger), fpRunLinger},
		{"run/global-slo-adaptive", rack(global), fpRunGlobal},
		{"run/elastic-predictive", func() (fingerprint, error) {
			st, err := Run(diurnal, Config{
				QueueDepth: 2000, Service: jitterService, SampleEvery: time.Second,
				BatchSLO: time.Second,
				Elastic: &scale.Config{
					Mode: scale.ModePredictive, Min: 1, Max: 16,
					ColdStart: 500 * time.Millisecond, IdleLinger: 5 * time.Second, Window: 256,
				},
			}, 11)
			if err != nil {
				return nil, err
			}
			return statsFingerprint(st), nil
		}, fpRunElastic},
		{"run/faults", rack(func(cfg *Config) { cfg.Faults = mustFaults(rackFaults) }), fpRunFaults},
		{"run/faults-linger", rack(func(cfg *Config) {
			linger(cfg)
			cfg.Faults = mustFaults(rackFaults)
		}), fpRunFaultsLinger},
		{"run/faults-global", rack(func(cfg *Config) {
			global(cfg)
			cfg.Faults = mustFaults(rackFaults)
		}), fpRunFaultsGlobal},
		{"run/faults-stranded", rack(func(cfg *Config) {
			cfg.QueueDepth = 10000
			cfg.Faults = mustFaults("90s:pool-down:sim")
		}), fpRunStranded},

		{"split/static", split(onesided, 7, func(cfg *HybridConfig) {
			cfg.SpilloverThreshold, cfg.StealThreshold = 150, 150
		}), fpSplitStatic},
		{"split/adaptive-3cpu", split(onesided, 7, func(cfg *HybridConfig) {
			cfg.CPUPools = 3
			cfg.AdaptiveBalance = true
			cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
		}), fpSplitAdaptive},
		{"split/elastic", split(bursty, 5, func(cfg *HybridConfig) {
			cfg.CPUInstances, cfg.DSCSInstances, cfg.QueueDepth = 28, 6, 100000
			cfg.Policy = sched.CriticalityPolicy{}
			cfg.AdaptiveEstimates = true
			cfg.Elastic = &scale.Config{
				Mode: scale.ModeReactive, Min: 1, Max: 9999,
				ColdStart: 500 * time.Millisecond, IdleLinger: 10 * time.Second,
			}
		}), fpSplitElastic},
		{"split/faults-retry", split(onesided, 7, func(cfg *HybridConfig) {
			cfg.Jitter, cfg.QueueDepth = 0.6, 2000
			cfg.Faults = mustFaults("40s:pool-down:dscs;70s:pool-up:dscs")
		}), fpSplitRetry},
		{"split/faults-static-steal", split(onesided, 7, func(cfg *HybridConfig) {
			cfg.SpilloverThreshold, cfg.StealThreshold = 150, 150
			cfg.Faults = mustFaults("20s:pool-down:dscs;25s:pool-up:dscs")
		}), fpSplitStaticSteal},
		{"split/faults-hedge", split(onesided, 7, func(cfg *HybridConfig) {
			cfg.Jitter, cfg.QueueDepth = 0.6, 2000
			cfg.Faults = mustFaults("40s:pool-down:dscs;50s:pool-down:cpu;55s:pool-up:cpu;70s:pool-up:dscs")
			cfg.AdaptiveBalance = true
			cfg.EstimateWarmup, cfg.EstimateWindow = 16, 128
			cfg.HedgeFactor = 3
		}), fpSplitHedge},
		{"shared/criticality", func() (fingerprint, error) {
			return hybridFingerprint(runPolicy(t, bursty, sched.CriticalityPolicy{})), nil
		}, fpSharedCriticality},

		{"workflow/locality-batched", flow(func(*WorkflowSimConfig) {}), fpFlowLocality},
		{"workflow/blind", flow(func(cfg *WorkflowSimConfig) { cfg.Locality = false }), fpFlowBlind},
		{"workflow/faults", func() (fingerprint, error) {
			cfg := workflowGoldenConfig(true)
			cfg.Jitter = 0.2
			cfg.Faults = mustFaults(flowFaults)
			st, err := RunWorkflows(denseFlows, cfg, 33)
			if err != nil {
				return nil, err
			}
			return workflowFingerprint(st), nil
		}, fpFlowFaults},
	} {
		t.Run(arm.name, func(t *testing.T) {
			f, err := arm.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := f.String(); got != strings.TrimSpace(arm.want) {
				t.Errorf("fingerprint drifted:\n%s", diffLines(strings.TrimSpace(arm.want), got))
			}
		})
	}
}

// diffLines reports the lines that differ between two sorted fingerprints.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	inWant := make(map[string]bool, len(w))
	for _, l := range w {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(g))
	for _, l := range g {
		inGot[l] = true
	}
	var b strings.Builder
	for _, l := range w {
		if !inGot[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range g {
		if !inWant[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
