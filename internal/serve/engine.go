// engine.go is the goroutine half of the serving core: the concurrent
// invocation engine behind the gateway. Per-platform worker pools over the
// shared scheduling state machines, admission control on a bounded queue
// with the pluggable policies of internal/sched, request batching
// (per-dispatch lingering or the queue-level SLO-aware former), two-way
// queue rebalancing (submit-time spillover, drain-time stealing — static
// depth counts or the wait-keyed AdaptiveBalance latch, decided by the
// engine's MultiCore), per-drive occupancy for DSCS executions, and the
// latency/wait observatories behind the serve_latency_* and
// serve_queue_delay_* gauges. The discrete-event at-scale simulation
// (internal/cluster) drives the same cores, windows, former and balance
// policy from its virtual clock, so the simulated rack and the live HTTP
// path share one scheduler implementation.

//dscslint:allow clockcheck this file is the wall-clock half of the core: worker sleeps, quiesce deadlines, and lifecycle timers run on real time (the clock-free state machines live in core.go and lifecycle.go)

package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dscs/internal/csd"
	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/objstore"
	"dscs/internal/platform"
	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/trace"
	"dscs/internal/workload"
)

// Engine errors surfaced to callers (the gateway maps them to HTTP codes).
var (
	// ErrQueueFull is the admission-control rejection: the platform's
	// queue is at its bound.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("serve: engine closed")
)

// DefaultMaxBatch caps request coalescing. Figure 14 shows DSA throughput
// still improving at batch 8 while batch-1 latency stays the common case;
// beyond that the latency cost of waiting outweighs occupancy gains for
// interactive serving.
const DefaultMaxBatch = 8

// Options tune the engine.
type Options struct {
	// Workers is the pool size per platform (default 4). With the elastic
	// lifecycle armed (MaxWorkers > 0) it is ignored: capacity floats
	// between MinWorkers and MaxWorkers instead.
	Workers int
	// MaxWorkers arms the elastic worker lifecycle when positive: each
	// pool's warm capacity floats between MinWorkers and MaxWorkers,
	// driven by a per-pool autoscaler (reactive by default, predictive
	// with Prewarm). The pool spawns MaxWorkers goroutines; how many may
	// dispatch at once is the lifecycle's warm count. Zero keeps the
	// classic fixed pool bit-identical.
	MaxWorkers int
	// MinWorkers is the elastic floor (0 allows scale-to-zero: an idle
	// pool suspends entirely and the next burst pays a cold start).
	MinWorkers int
	// ColdStart is the warming penalty a suspended slot pays before it
	// can dispatch — the container pull plus the program compile.
	ColdStart time.Duration
	// IdleLinger is how long a warm worker stays idle before it may
	// suspend (only while capacity exceeds the autoscaler's target).
	IdleLinger time.Duration
	// Prewarm upgrades the autoscaler from reactive (size to the live
	// backlog) to predictive: a Little's-law floor from per-benchmark
	// arrival-rate and service digests plus a wait-p95 surge latch warms
	// capacity before the backlog exists.
	Prewarm bool
	// QueueDepth bounds each platform's admission queue (default 256).
	QueueDepth int
	// Policy selects queued work for free workers (default FCFS, the
	// paper's deployed policy).
	Policy sched.Policy
	// PolicyName resolves a policy by name ("fcfs", "criticality",
	// "dag-aware") when Policy is nil — the CLI/API-friendly spelling.
	PolicyName string
	// MaxBatch caps same-benchmark request coalescing per execution
	// (default DefaultMaxBatch; 1 disables batching).
	MaxBatch int
	// BatchLinger lets a dispatching worker wait up to this long for a
	// same-benchmark batch to fill toward MaxBatch instead of coalescing
	// only what already queued (0, the default, disables lingering).
	BatchLinger time.Duration
	// GlobalBatch replaces the per-dispatch linger window with the
	// queue-level BatchFormer: same-benchmark arrivals group across the
	// whole queue before dispatch, and a batch is released once it reaches
	// MaxBatch, its oldest member has waited BatchLinger, or that member's
	// BatchSLO slack is exhausted. Needs MaxBatch > 1 and BatchLinger > 0
	// to hold anything.
	GlobalBatch bool
	// BatchSLO is each request's deadline budget for the global former: a
	// forming batch dispatches no later than its oldest member's arrival +
	// BatchSLO - expected service, so occupancy never costs an SLO (0
	// bounds holds by BatchLinger alone).
	BatchSLO time.Duration
	// StealThreshold arms pull-based queue rebalancing: a worker whose own
	// dispatch comes up empty pulls queued work from the deepest pool of
	// the other class once that backlog exceeds this depth, counted as
	// serve_steal_total{from,to} (0, the default, disables stealing).
	// Ignored when AdaptiveBalance keys the decision on wait delay instead.
	StealThreshold int
	// AdaptiveBalance replaces the static SpilloverThreshold/StealThreshold
	// queue-depth counts with the wait-keyed decision: every dispatch
	// records the served request's queue delay (arrival to dispatch) into
	// per-{platform, class} digests, and work rebalances — DSCS submissions
	// spill to a CPU pool at submit time, an idle worker steals any peer
	// pool's backlog (same class included) at drain time — once the donor's
	// adopted wait-p95 has diverged above the target's past the hysteresis
	// latch (the metrics.Digest.Adopt bands — enter at 1.5x, release
	// within 1.2x, after EstimateWarmup dispatches — over one latch per
	// pool pair). Queue delay is what the SLO actually spends while work
	// sits behind a hot pool; depth counts are only a proxy for it.
	AdaptiveBalance bool
	// SpilloverThreshold routes a submission aimed at a DSCS-class pool
	// to a CPU-class pool once the DSCS queue has reached this depth —
	// the scarce accelerated capacity stays for work already committed to
	// it (0, the default, keeps the pools isolated).
	SpilloverThreshold int
	// SpilloverTo names the CPU-class pool spilled work lands on. Empty
	// picks the least-queued CPU-class pool per submission.
	SpilloverTo string
	// AdaptiveEstimates prices scheduling decisions with live latency
	// digests (metrics.Observatory, per {benchmark, platform}) instead of
	// the static graph-derived estimate once a benchmark has enough
	// observations on a pool: the former's BatchSLO slack uses the
	// observed p95 (with warmup and hysteresis, Digest.Adopt) and the
	// policies' service estimates blend toward the observed p50. The
	// static estimate stays as the cold-start prior.
	AdaptiveEstimates bool
	// EstimateWarmup is the per-{benchmark, platform} completion count
	// below which live digests defer to the static prior (default
	// metrics.DefaultWarmup).
	EstimateWarmup int
	// EstimateWindow is each latency digest's sliding window, in
	// observations (default metrics.DefaultWindow).
	EstimateWindow int
	// Telemetry receives the engine's metrics; pass the gateway's
	// registry to surface them on /metrics (default: a fresh registry).
	Telemetry *sched.Telemetry
	// IngressShards sizes each pool's sharded submit ingress: submissions
	// stage on a per-P shard and drain into the pool core in batches, so
	// submitters contend only on their shard (0 defaults to GOMAXPROCS;
	// any negative value disables the ingress and admits directly under
	// the pool lock — the pre-shard path, kept for A/B benchmarking).
	IngressShards int
	// Execute overrides how a worker runs one coalesced batch. The bench
	// harness injects a no-op here to measure the scheduling hot path
	// without the simulated execution cost. Nil runs Runner.Invoke.
	Execute func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error)
	// HedgeFactor arms hedged dispatch when >= 1: an execution that has run
	// longer than HedgeFactor x the adopted service-p95 for its benchmark on
	// its pool gets a second dispatch on a healthy peer. The first completion
	// wins; the loser's result is discarded (counted under
	// serve_hedges_fired_total / serve_hedges_won_total). 0 disables.
	HedgeFactor float64
	// Faults schedules fault injection on the engine's live clock: each
	// event fires At after NewEngine returns, killing or recovering the
	// named pool or drive (trace.ParseFaultScript builds the slice from the
	// -fault-script CLI spelling). Targets are validated at construction.
	Faults []trace.FaultEvent
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.Policy == nil {
		o.Policy = sched.FCFSPolicy{}
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.EstimateWarmup <= 0 {
		o.EstimateWarmup = metrics.DefaultWarmup
	}
	if o.EstimateWindow <= 0 {
		o.EstimateWindow = metrics.DefaultWindow
	}
	if o.Telemetry == nil {
		o.Telemetry = sched.NewTelemetry()
	}
	return o
}

// PolicyByName maps a CLI/API policy name to its implementation.
func PolicyByName(name string) (sched.Policy, error) {
	switch name {
	case "", "fcfs":
		return sched.FCFSPolicy{}, nil
	case "criticality":
		return sched.CriticalityPolicy{}, nil
	case "dag-aware", "dag":
		return sched.DAGAwarePolicy{}, nil
	}
	return nil, fmt.Errorf("serve: unknown policy %q (try fcfs, criticality, dag-aware)", name)
}

// PolicyNames lists the accepted PolicyByName inputs.
func PolicyNames() []string { return []string{"fcfs", "criticality", "dag-aware"} }

// Invocation is one served request with its engine-side telemetry.
type Invocation struct {
	Result   faas.Result
	Platform string
	// Queued is the time the request waited for a worker.
	Queued time.Duration
	// BatchRequests counts the requests coalesced into this execution
	// (1 = no batching); BatchSize is the combined model batch executed.
	BatchRequests int
	BatchSize     int
}

// outcome is what a worker delivers back to a blocked submitter. platform
// names the pool that actually executed the request — with stealing a
// request can be served by a different pool than the one that admitted it.
type outcome struct {
	res           faas.Result
	err           error
	platform      string
	queued        time.Duration
	batchRequests int
	batchSize     int
}

// request is one pending submission. fire marks a fire-and-forget
// SubmitAsync request: no submitter blocks on done, so the worker recycles
// the request instead of delivering an outcome.
type request struct {
	bench *workload.Benchmark
	opt   faas.Options
	enq   time.Time
	fire  bool
	done  chan outcome
}

// requestPool recycles request structs (and their reply channels — cap-1,
// drained by exactly one receiver) across submissions, so the steady-state
// submit path allocates nothing per call.
var requestPool = sync.Pool{New: func() any {
	return &request{done: make(chan outcome, 1)}
}}

func getRequest() *request { return requestPool.Get().(*request) }

func putRequest(r *request) {
	r.bench, r.opt, r.enq, r.fire = nil, faas.Options{}, time.Time{}, false
	requestPool.Put(r)
}

// pool is one platform's worker pool: its PoolCore (the engine
// MultiCore's pool idx) plus the goroutine machinery the simulator doesn't
// need. It is the MultiCore's reader of that pool (Healthy, QueueLen,
// Idle).
type pool struct {
	name   string
	idx    int
	runner *faas.Runner
	class  sched.InstanceClass

	mu     sync.Mutex
	cond   *sync.Cond
	core   *PoolCore
	closed bool

	// ingress is the sharded staging front of the submit path (nil when
	// Options.IngressShards is negative); scratch is the drain buffer,
	// reused under p.mu.
	ingress *ingress
	scratch []ingressEntry
	// parked counts workers blocked in cond.Wait. Submitters that fail the
	// opportunistic drain read it to decide whether a wakeup fence is
	// needed: the parked increment and the staged check are both
	// sequentially consistent atomics, so either the parking worker sees
	// the staged entry or the submitter sees the parked worker — an entry
	// can never strand against a sleeping pool.
	parked atomic.Int32

	// deadBit mirrors core.dead for lock-free readers: the submit path's
	// rescue wakeup and the spill/steal scans check health without taking
	// p.mu. Written only under p.mu (FailPool/RecoverPool/Close), so it is
	// always coherent with the core's transitions.
	deadBit atomic.Bool

	// autoscaler produces the pool's desired warm capacity (nil for a
	// classic fixed pool); lifeTimer wakes the pool at the lifecycle's
	// next self-transition (a warming slot coming ready, a linger
	// expiring). timerAt is the armed instant (engine-clock basis,
	// -1 when nothing is armed); scaleAt stamps the last autoscale
	// decision for its rate limit. All three are guarded by p.mu.
	autoscaler *scale.Autoscaler
	lifeTimer  *time.Timer
	timerAt    time.Duration
	scaleAt    time.Duration
	// coldStartsPub tracks how many lifecycle cold starts have been
	// published to the counters (guarded by p.mu).
	coldStartsPub int

	// Pre-resolved telemetry handles: completions and queue mutations touch
	// one atomic store each instead of re-walking the registry map.
	gDepth    sched.GaugeHandle
	gBatchOcc sched.GaugeHandle
	gDelayP50 sched.GaugeHandle
	gDelayP95 sched.GaugeHandle
	gDelayP99 sched.GaugeHandle
	gWorkers  sched.GaugeHandle
	gWarm     sched.GaugeHandle
	gCold     sched.GaugeHandle
	gWarming  sched.GaugeHandle
	cDropped  sched.CounterHandle
	cFormed   sched.CounterHandle
	cColdSt   sched.CounterHandle
	// cSpillTo and cStealFrom hold the directed per-pair flow counters,
	// resolved for every possible peer at construction so the submit and
	// steal paths never build a label string per event (the PR 6 handle
	// discipline; a map read allocates nothing). cSpillTo is keyed by
	// spill target, cStealFrom by donor. A missing key yields the zero
	// handle, whose Inc is a no-op.
	cSpillTo   map[string]sched.CounterHandle
	cStealFrom map[string]sched.CounterHandle
	// delayRefresh is the wall-clock nanos of the last serve_queue_delay_*
	// gauge refresh — the publish rate limit (gaugeRefreshInterval). The
	// digests themselves stay exact; only how often their window quantiles
	// are re-read onto /metrics is bounded.
	delayRefresh atomic.Int64
}

// gaugeRefreshInterval bounds how often a dispatch (or completion)
// re-derives the published quantile gauges from its digest. Every
// observation still lands in the digest, and every decision path (the
// balance latch, adaptive pricing) reads the digest directly — folding
// staged entries on demand — so rate-limiting the gauges changes no
// scheduling behavior, only the /metrics publish cadence. At sub-ms batch
// rates the refresh would otherwise sort-maintain the window once per
// batch just to overwrite the same gauge cells.
const gaugeRefreshInterval = time.Millisecond

// driveSet serializes DSCS-class executions over the physical DSCS-Drives:
// the engine's DSCS pool sizes workers, but the rack has a fixed number of
// drives, each run-to-completion (csd.Drive.Acquire). Holding a drive marks
// it busy, so concurrent conventional storage I/O against it pays the
// ArbitrationPenalty in live latencies — the drive-level contention the
// analytic model charges now shows up in served traffic too.
type driveSet struct {
	mu      sync.Mutex
	cond    *sync.Cond
	drives  []*csd.Drive
	ids     []string
	byDrive map[*csd.Drive]int
	closed  bool
}

// newDriveSet harvests the DSCS-Drives behind the given stores (deduped —
// pools usually share one object store).
func newDriveSet(stores []*objstore.Store) *driveSet {
	ds := &driveSet{byDrive: make(map[*csd.Drive]int)}
	ds.cond = sync.NewCond(&ds.mu)
	for _, store := range stores {
		for _, n := range store.Nodes() {
			if n.CSD == nil {
				continue
			}
			if _, seen := ds.byDrive[n.CSD]; seen {
				continue
			}
			ds.byDrive[n.CSD] = len(ds.drives)
			ds.drives = append(ds.drives, n.CSD)
			ds.ids = append(ds.ids, n.ID)
		}
	}
	return ds
}

// acquireDrive blocks until the given drive's DSA is free and returns its
// index, plus whether the caller had to wait (contention). This targets
// the specific drive the execution will run on — the one holding the input
// replica — so exclusivity and the arbitration penalty attach to the right
// device. It returns -1 for an unknown drive or when the set is closing;
// execution then proceeds unarbitrated.
func (ds *driveSet) acquireDrive(d *csd.Drive) (idx int, waited bool) {
	i, ok := ds.byDrive[d]
	if !ok {
		return -1, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for !ds.closed {
		if d.Acquire() {
			return i, waited
		}
		waited = true
		ds.cond.Wait()
	}
	return -1, waited
}

// acquire blocks until any drive's DSA is free (tests use it to stage
// occupancy); same contract as acquireDrive.
func (ds *driveSet) acquire() (idx int, waited bool) {
	if len(ds.drives) == 0 {
		return -1, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for !ds.closed {
		for i, d := range ds.drives {
			if d.Acquire() {
				return i, waited
			}
		}
		waited = true
		ds.cond.Wait()
	}
	return -1, waited
}

// release frees a drive and wakes every waiter: waiters target specific
// drives, so a single Signal could wake one waiting on a still-busy device
// and strand the one this release unblocks.
func (ds *driveSet) release(idx int) {
	ds.drives[idx].Release()
	ds.mu.Lock()
	ds.cond.Broadcast()
	ds.mu.Unlock()
}

// close unblocks every waiter; subsequent acquires return -1.
func (ds *driveSet) close() {
	ds.mu.Lock()
	ds.closed = true
	ds.cond.Broadcast()
	ds.mu.Unlock()
}

// Engine is the concurrent serving core. Safe for concurrent use.
type Engine struct {
	opt   Options
	tel   *sched.Telemetry
	pools map[string]*pool
	// mc holds every pool's core, in name order (all[i].core is
	// mc.Pool(i)), and makes the engine's spill, steal and wait-pricing
	// decisions; its wait observatory backs the serve_queue_delay_* gauges.
	mc  *MultiCore
	all []*pool
	// spillCPU lists the CPU-class pools eligible as spillover targets,
	// sorted by name for deterministic tie-breaks; dscsPools is the same
	// cached view of the DSCS class (the pool set is immutable after
	// construction, so the submit path never rebuilds these).
	spillCPU  []*pool
	dscsPools []*pool
	// drives arbitrates DSCS-class executions over the physical drives.
	drives *driveSet
	// estimates memoizes service estimates per benchmark slug. It lives
	// on the engine — a package-level cache would leak one run's pricing
	// into another engine's policies (or a test's redefined slug).
	estimates sync.Map // slug -> serviceEstimate
	// obs is the latency observatory: per-{benchmark, platform} digests
	// recorded on every completion. Always recording (it backs the
	// serve_latency_* gauges); consumed by pricing only with
	// Options.AdaptiveEstimates.
	obs    *metrics.Observatory
	start  time.Time
	nextID atomic.Int64
	wg     sync.WaitGroup
	once   sync.Once
	// exec runs one coalesced batch (Options.Execute, or Runner.Invoke).
	exec func(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error)
	// inflight counts admitted-but-undelivered requests; Quiesce polls it
	// so fire-and-forget callers can drain the engine.
	inflight atomic.Int64
	// latGauges caches the per-{benchmark, platform} latency gauge handles
	// resolved by observe (invalidated by ForgetEstimate, which Unsets the
	// underlying series).
	latGauges sync.Map // latKey -> *latHandles
	// Pre-resolved engine-wide handles for the per-completion counters.
	cSubmitted   sched.CounterHandle
	cCompleted   sched.CounterHandle
	cBatches     sched.CounterHandle
	cBatchedReqs sched.CounterHandle
	cWaitMS      sched.CounterHandle
	cDroppedAll  sched.CounterHandle
	cFormedAll   sched.CounterHandle
	cStealAll    sched.CounterHandle
	cSpillAll    sched.CounterHandle
	cDriveWait   sched.CounterHandle
	cColdAll     sched.CounterHandle
	// Failure-path counters: injected faults, batches returned to their
	// queue by a mid-execution pool death, hedged dispatches fired and won.
	cFaults      sched.CounterHandle
	cRequeues    sched.CounterHandle
	cHedgesFired sched.CounterHandle
	cHedgesWon   sched.CounterHandle
	// faultTimers are the armed Options.Faults injections; Close stops them
	// so a scripted fault never fires into a drained engine.
	faultTimers []*time.Timer
	// Per-drive occupancy handles, indexed like drives.ids.
	driveBusy []sched.GaugeHandle
	driveAcq  []sched.CounterHandle
	// Workflow driver state (workflow.go): the admitted-workflow counter
	// behind object-key namespacing, the stages-in-flight gauge backing,
	// and the end-to-end makespan digest behind serve_workflow_makespan_*.
	wfID        atomic.Int64
	wfInflight  atomic.Int64
	wfMakespans *metrics.Digest
}

// latKey keys the latency-gauge handle cache without allocating a joined
// string per completion.
type latKey struct{ slug, platform string }

// latHandles carries one {benchmark, platform} series' three quantile
// gauges plus its publish-rate-limit stamp (see gaugeRefreshInterval).
type latHandles struct {
	p50, p95, p99 sched.GaugeHandle
	refresh       atomic.Int64
}

// NewEngine builds one worker pool per runner (the platform.All lineup in
// the default environment) and starts its workers.
func NewEngine(runners map[string]*faas.Runner, opt Options) (*Engine, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("serve: no runners")
	}
	if opt.Policy == nil && opt.PolicyName != "" {
		p, err := PolicyByName(opt.PolicyName)
		if err != nil {
			return nil, err
		}
		opt.Policy = p
	}
	opt = opt.withDefaults()
	elastic := opt.MaxWorkers > 0
	if elastic {
		if opt.MinWorkers < 0 || opt.MinWorkers > opt.MaxWorkers {
			return nil, fmt.Errorf("serve: MinWorkers %d outside [0, MaxWorkers=%d]",
				opt.MinWorkers, opt.MaxWorkers)
		}
		if opt.ColdStart < 0 || opt.IdleLinger < 0 {
			return nil, fmt.Errorf("serve: negative ColdStart/IdleLinger")
		}
	} else if opt.MaxWorkers < 0 {
		return nil, fmt.Errorf("serve: negative MaxWorkers %d", opt.MaxWorkers)
	} else if opt.Prewarm || opt.MinWorkers != 0 || opt.ColdStart != 0 || opt.IdleLinger != 0 {
		return nil, fmt.Errorf("serve: elastic options need MaxWorkers > 0")
	}
	if opt.HedgeFactor != 0 && opt.HedgeFactor < 1 {
		// A sub-1 factor would hedge before the expected service time has
		// even elapsed — every request would fork.
		return nil, fmt.Errorf("serve: HedgeFactor %g must be 0 (disabled) or >= 1", opt.HedgeFactor)
	}
	e := &Engine{
		opt:   opt,
		tel:   opt.Telemetry,
		pools: make(map[string]*pool, len(runners)),
		obs:   metrics.NewObservatory(opt.EstimateWindow, opt.EstimateWarmup),
		start: time.Now(),
	}
	e.wfMakespans = metrics.NewDigest(opt.EstimateWindow)
	poolWorkers := opt.Workers
	if elastic {
		poolWorkers = opt.MaxWorkers
	}
	names := make([]string, 0, len(runners))
	for name := range runners {
		names = append(names, name)
	}
	sort.Strings(names)
	specs := make([]PoolSpec, len(names))
	for i, name := range names {
		specs[i] = PoolSpec{Name: name, Class: classFor(runners[name].Platform),
			Workers: poolWorkers, QueueDepth: opt.QueueDepth, Policy: opt.Policy}
	}
	mc, err := NewMultiCore(specs)
	if err != nil {
		return nil, err
	}
	mc.SetWaitTuning(opt.EstimateWindow, opt.EstimateWarmup)
	if err := mc.SetBalance(Balance{Adaptive: opt.AdaptiveBalance, Spill: opt.SpilloverThreshold,
		Steal: opt.StealThreshold, SpillTo: opt.SpilloverTo}); err != nil {
		return nil, err
	}
	e.mc = mc
	readers := make([]poolReader, len(names))
	var dscsStores []*objstore.Store
	for i, name := range names {
		r, class, core := runners[name], specs[i].Class, mc.Pool(i)
		p := &pool{name: name, idx: i, runner: r, class: class, core: core, timerAt: -1}
		e.all = append(e.all, p)
		readers[i] = p
		p.cond = sync.NewCond(&p.mu)
		if elastic {
			lc, err := NewLifecycle(LifecycleConfig{
				Min: opt.MinWorkers, Max: opt.MaxWorkers,
				ColdStart: opt.ColdStart, IdleLinger: opt.IdleLinger,
			}, opt.MinWorkers, e.now())
			if err != nil {
				return nil, err
			}
			if err := core.AttachLifecycle(lc, e.now()); err != nil {
				return nil, err
			}
			mode := scale.ModeReactive
			if opt.Prewarm {
				mode = scale.ModePredictive
			}
			p.autoscaler, err = scale.New(scale.Config{
				Mode: mode, Min: opt.MinWorkers, Max: opt.MaxWorkers,
				ColdStart: opt.ColdStart, IdleLinger: opt.IdleLinger,
				Window: opt.EstimateWindow,
			}, name)
			if err != nil {
				return nil, err
			}
		}
		if shards := ingressShards(opt.IngressShards); shards > 0 {
			p.ingress = newIngress(shards, opt.QueueDepth)
		}
		p.gDepth = e.tel.GaugeHandle("serve_queue_depth{platform=" + name + "}")
		p.gBatchOcc = e.tel.GaugeHandle("serve_batch_occupancy{platform=" + name + "}")
		delay := "{platform=" + name + ",class=" + class.String() + "}"
		p.gDelayP50 = e.tel.GaugeHandle("serve_queue_delay_p50" + delay)
		p.gDelayP95 = e.tel.GaugeHandle("serve_queue_delay_p95" + delay)
		p.gDelayP99 = e.tel.GaugeHandle("serve_queue_delay_p99" + delay)
		p.cDropped = e.tel.CounterHandle("serve_dropped_total{platform=" + name + "}")
		p.cFormed = e.tel.CounterHandle("serve_batch_formed_total{platform=" + name + "}")
		e.pools[name] = p
		if class == sched.ClassDSCS && r.Store != nil {
			dscsStores = append(dscsStores, r.Store)
		}
		// serve_workers tracks live warm capacity through a handle — it
		// refreshes on every lifecycle transition instead of being set
		// once at construction (on a fixed pool it is simply constant).
		p.gWorkers = e.tel.GaugeHandle("serve_workers{platform=" + name + "}")
		p.gWorkers.Set(float64(core.Workers()))
		if lc := core.Lifecycle(); lc != nil {
			p.gWarm = e.tel.GaugeHandle("serve_workers_warm{platform=" + name + "}")
			p.gCold = e.tel.GaugeHandle("serve_workers_cold{platform=" + name + "}")
			p.gWarming = e.tel.GaugeHandle("serve_workers_warming{platform=" + name + "}")
			p.cColdSt = e.tel.CounterHandle("serve_cold_starts_total{platform=" + name + "}")
			p.gWarm.Set(float64(lc.Warm()))
			p.gCold.Set(float64(lc.Cold()))
			p.gWarming.Set(float64(lc.Warming()))
			e.tel.Inc("serve_cold_starts_total", 0)
		}
		// Queue-delay gauges are registered up front so /metrics shows the
		// wait observatory live before the first dispatch.
		for _, q := range []string{"p50", "p95", "p99"} {
			e.tel.Set("serve_queue_delay_"+q+"{platform="+name+",class="+class.String()+"}", 0)
		}
	}
	mc.readThrough(readers)
	for _, p := range e.all {
		if p.class == sched.ClassCPU {
			e.spillCPU = append(e.spillCPU, p)
		} else {
			e.dscsPools = append(e.dscsPools, p)
		}
	}
	if opt.SpilloverThreshold > 0 || opt.AdaptiveBalance {
		// Register the counters up front so /metrics shows the feature is
		// armed even before the first spill, and pre-resolve a handle for
		// every directed (DSCS pool → CPU pool) pair the spill path can
		// take, so enqueue never builds a label per spilled request.
		e.tel.Inc("serve_spillover_total", 0)
		for _, p := range e.dscsPools {
			p.cSpillTo = make(map[string]sched.CounterHandle, len(e.spillCPU))
			for _, q := range e.spillCPU {
				p.cSpillTo[q.name] = e.tel.CounterHandle("serve_spillover_total{from=" + p.name + ",to=" + q.name + "}")
			}
		}
	}
	if opt.GlobalBatch && opt.MaxBatch > 1 {
		for _, p := range e.pools {
			f := NewBatchFormer(opt.MaxBatch, opt.BatchLinger, opt.BatchSLO, p.class)
			if opt.AdaptiveEstimates {
				// The former prices SLO slack with this pool's observed
				// p95 once the digest warms up; the task's static
				// estimate stays the cold-start prior.
				poolName := p.name
				f.SetEstimator(func(payload string, static time.Duration) time.Duration {
					return e.obs.ServiceQuantile(payload, poolName, static, 0.95)
				})
			}
			p.core.AttachFormer(f)
		}
		e.tel.Inc("serve_batch_formed_total", 0)
	}
	if opt.StealThreshold > 0 || opt.AdaptiveBalance {
		// Any pool can steal from any other (dead-pool rescue crosses
		// classes), so every directed pair gets a handle up front.
		e.tel.Inc("serve_steal_total", 0)
		for _, p := range e.pools {
			p.cStealFrom = make(map[string]sched.CounterHandle, len(e.pools)-1)
			for _, d := range e.pools {
				if d == p {
					continue
				}
				p.cStealFrom[d.name] = e.tel.CounterHandle("serve_steal_total{from=" + d.name + ",to=" + p.name + "}")
			}
		}
	}
	e.drives = newDriveSet(dscsStores)
	for _, id := range e.drives.ids {
		e.driveBusy = append(e.driveBusy, e.tel.GaugeHandle("serve_drive_busy{drive="+id+"}"))
		e.driveAcq = append(e.driveAcq, e.tel.CounterHandle("serve_drive_acquired_total{drive="+id+"}"))
		e.tel.Set("serve_drive_busy{drive="+id+"}", 0)
	}
	e.cSubmitted = e.tel.CounterHandle("serve_submitted_total")
	e.cCompleted = e.tel.CounterHandle("serve_completed_total")
	e.cBatches = e.tel.CounterHandle("serve_batches_total")
	e.cBatchedReqs = e.tel.CounterHandle("serve_batched_requests_total")
	e.cWaitMS = e.tel.CounterHandle("serve_wait_ms_total")
	e.cDroppedAll = e.tel.CounterHandle("serve_dropped_total")
	e.cFormedAll = e.tel.CounterHandle("serve_batch_formed_total")
	e.cStealAll = e.tel.CounterHandle("serve_steal_total")
	e.cSpillAll = e.tel.CounterHandle("serve_spillover_total")
	e.cDriveWait = e.tel.CounterHandle("serve_drive_contention_total")
	e.cColdAll = e.tel.CounterHandle("serve_cold_starts_total")
	e.cFaults = e.tel.CounterHandle("serve_faults_total")
	e.cRequeues = e.tel.CounterHandle("serve_requeues_total")
	e.cHedgesFired = e.tel.CounterHandle("serve_hedges_fired_total")
	e.cHedgesWon = e.tel.CounterHandle("serve_hedges_won_total")
	if len(opt.Faults) > 0 || opt.HedgeFactor >= 1 {
		// Register up front so /metrics shows the failure machinery is
		// armed before the first fault fires or hedge forks.
		e.tel.Inc("serve_faults_total", 0)
		e.tel.Inc("serve_requeues_total", 0)
		e.tel.Inc("serve_hedges_fired_total", 0)
		e.tel.Inc("serve_hedges_won_total", 0)
	}
	e.exec = opt.Execute
	if e.exec == nil {
		e.exec = func(r *faas.Runner, b *workload.Benchmark, o faas.Options) (faas.Result, error) {
			return r.Invoke(b, o)
		}
	}
	if err := e.validateFaults(opt.Faults); err != nil {
		return nil, err
	}
	for _, p := range e.pools {
		// With the elastic lifecycle every slot gets a goroutine up front;
		// how many may dispatch at once is the lifecycle's warm count, so
		// suspended capacity is a parked goroutine, not a missing one.
		n := opt.Workers
		if elastic {
			n = opt.MaxWorkers
		}
		for i := 0; i < n; i++ {
			e.wg.Add(1)
			go e.worker(p)
		}
	}
	// Arm the fault script last: an injection must never observe a
	// half-constructed engine.
	for _, ev := range opt.Faults {
		ev := ev
		e.faultTimers = append(e.faultTimers,
			time.AfterFunc(ev.At, func() { e.applyFault(ev) }))
	}
	return e, nil
}

// ingressShards resolves the Options.IngressShards spelling: 0 defaults to
// GOMAXPROCS, negative disables the sharded ingress.
func ingressShards(n int) int {
	if n < 0 {
		return 0
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// classFor maps a platform to its scheduling class: the in-storage DSA pool
// is the scarce accelerated capacity the policies steer work toward.
func classFor(c platform.Compute) sched.InstanceClass {
	if c.Class() == platform.InStorageDSA {
		return sched.ClassDSCS
	}
	return sched.ClassCPU
}

// Telemetry returns the engine's metric registry.
func (e *Engine) Telemetry() *sched.Telemetry { return e.tel }

// now is the engine's clock on the same basis as HybridTask.Arrived; the
// scheduling core and batch windows are clock-free and take it as input.
func (e *Engine) now() time.Duration { return time.Since(e.start) }

// Platforms lists the pools, sorted.
func (e *Engine) Platforms() []string {
	names := make([]string, 0, len(e.all))
	for _, p := range e.all {
		names = append(names, p.name)
	}
	return names
}

// Has reports whether a platform pool exists.
func (e *Engine) Has(platformName string) bool {
	_, ok := e.pools[platformName]
	return ok
}

// QueueLen reports one platform's queue occupancy (0 for unknown names).
// Staged ingress entries drain first, so the reader sees the same depth a
// single-queue engine would.
func (e *Engine) QueueLen(platformName string) int {
	p, ok := e.pools[platformName]
	if !ok {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e.drainLocked(p)
	return p.core.QueueLen()
}

// Dropped totals admission rejections across pools: the cores' own counts
// plus offers bounced at the ingress bound.
func (e *Engine) Dropped() int {
	total := 0
	for _, p := range e.pools {
		p.mu.Lock()
		total += p.core.Dropped()
		p.mu.Unlock()
		if p.ingress != nil {
			total += p.ingress.droppedCount()
		}
	}
	return total
}

// Conservation checks every pool's bookkeeping invariant (staged work
// drains first — it is not yet the core's to account).
func (e *Engine) Conservation() error {
	for _, p := range e.pools {
		p.mu.Lock()
		e.drainLocked(p)
		err := p.core.Conservation()
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%s pool: %w", p.name, err)
		}
	}
	return nil
}

// reqBatch is the model batch one request asks for.
func reqBatch(o faas.Options) int {
	if o.Batch < 1 {
		return 1
	}
	return o.Batch
}

// coalescable reports whether two requests may share one execution: same
// cold-start behavior, same network quantile, same chain shape. The
// benchmark match is checked against the queue task's payload.
func coalescable(a, b faas.Options) bool {
	return a.Cold == b.Cold && a.Quantile == b.Quantile &&
		a.ExtraAccelFuncs == b.ExtraAccelFuncs
}

// syncDepth refreshes a pool's queue-depth gauge and, with the sharded
// ingress, the queued mirror its admission bound reads. Callers hold p.mu;
// every core mutation routes through here so the two views cannot drift.
func (e *Engine) syncDepth(p *pool) {
	n := p.core.QueueLen()
	if p.ingress != nil {
		p.ingress.syncQueued(n)
	}
	p.gDepth.Set(float64(n))
}

// scaleDecideInterval rate-limits autoscale decisions per pool: the
// digest quantile reads behind Desired are not per-dispatch work. A
// starved pool (backlog with zero free capacity) bypasses the limit —
// that is the one state where waiting a millisecond to scale costs
// latency for certain.
const scaleDecideInterval = time.Millisecond

// advanceElasticLocked drives a pool's lifecycle to the present: warming
// slots come ready, expired lingers suspend, and (rate-limited) the
// autoscaler's desired capacity is recomputed and applied. It refreshes
// the worker gauges and re-arms the lifecycle timer, and reports whether
// warm capacity changed — the caller broadcasts then, so parked workers
// re-try dispatch against the new capacity. Callers hold p.mu; a fixed
// pool is a no-op.
func (e *Engine) advanceElasticLocked(p *pool) bool {
	lc := p.core.Lifecycle()
	if lc == nil {
		return false
	}
	now := e.now()
	changed := p.core.AdvanceLifecycle(now)
	if a := p.autoscaler; a != nil && !p.closed && p.core.Healthy() {
		starved := p.core.QueueLen() > 0 && p.core.Busy() >= p.core.Workers()
		if starved || now-p.scaleAt >= scaleDecideInterval {
			p.scaleAt = now
			desired := a.Desired(now, p.core.Busy(), p.core.QueueLen(), e.mc.WarmedWait(p.idx))
			if desired != lc.Desired() && p.core.ScaleTo(desired, now) {
				changed = true
			}
		}
	}
	e.syncWorkersLocked(p)
	return changed
}

// syncWorkersLocked publishes a pool's live capacity — serve_workers is
// the warm count, never the construction-time constant — plus the
// warm/cold/warming breakdown and any newly paid cold starts, then
// re-arms the lifecycle timer. Callers hold p.mu; fixed pools are a
// no-op (their construction-time gauge stays exact).
func (e *Engine) syncWorkersLocked(p *pool) {
	lc := p.core.Lifecycle()
	if lc == nil {
		return
	}
	p.gWorkers.Set(float64(lc.Warm()))
	p.gWarm.Set(float64(lc.Warm()))
	p.gCold.Set(float64(lc.Cold()))
	p.gWarming.Set(float64(lc.Warming()))
	if cs := lc.ColdStarts(); cs > p.coldStartsPub {
		d := float64(cs - p.coldStartsPub)
		p.coldStartsPub = cs
		p.cColdSt.Inc(d)
		e.cColdAll.Inc(d)
	}
	e.armLifecycleLocked(p)
}

// armLifecycleLocked points the pool's timer at the lifecycle's next
// self-transition. The state machine is clock-free; this timer is the
// live engine's half of the bargain — the sims schedule virtual events
// at the same instants. Callers hold p.mu.
func (e *Engine) armLifecycleLocked(p *pool) {
	evt, ok := p.core.Lifecycle().NextEvent()
	if !ok || p.closed {
		if p.lifeTimer != nil {
			p.lifeTimer.Stop()
		}
		p.timerAt = -1
		return
	}
	if evt == p.timerAt {
		return
	}
	p.timerAt = evt
	d := evt - e.now()
	if d < 0 {
		d = 0
	}
	if p.lifeTimer == nil {
		p.lifeTimer = time.AfterFunc(d, func() { e.lifecycleTick(p) })
	} else {
		p.lifeTimer.Reset(d)
	}
}

// lifecycleTick is the timer callback behind armLifecycleLocked: a
// warming slot just came ready or a linger just expired. Capacity
// changes wake every parked worker — freshly warmed slots have a
// backlog to drain.
func (e *Engine) lifecycleTick(p *pool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.timerAt = -1
	e.drainLocked(p)
	changed := e.advanceElasticLocked(p)
	p.mu.Unlock()
	if changed {
		p.cond.Broadcast()
	}
}

// Healthy reads the pool's health bit from its lock-free mirror: the
// MultiCore's spill, steal and hedge scans must not serialize on the pool
// mutexes they are routing around (paths holding p.mu read the core).
func (p *pool) Healthy() bool { return !p.deadBit.Load() }

// QueueLen reads the pool's total backlog — staged plus queued with the
// sharded ingress (two atomic loads, no lock), or the locked core length
// on the direct path.
func (p *pool) QueueLen() int {
	if p.ingress != nil {
		return p.ingress.pending()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.QueueLen()
}

// Idle reports whether the pool would serve new work immediately: the
// core is idle and nothing is staged ahead of it on the ingress.
func (p *pool) Idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Idle() && (p.ingress == nil || p.ingress.staged.Load() == 0)
}

// deliver resolves one admitted request: hands the outcome to the blocked
// submitter, or — fire-and-forget — recycles the request directly. The
// inflight count drops here and only here, so Quiesce sees every admitted
// request exactly once.
func (e *Engine) deliver(r *request, out outcome) {
	fire := r.fire
	e.inflight.Add(-1)
	if fire {
		putRequest(r)
		return
	}
	r.done <- out
}

// drainLocked moves every staged ingress entry into the pool core, in
// admission order. Callers hold p.mu. A core that fills mid-drain (stolen-in
// work can race the staging queue) rejects the overflow late, with the same
// ErrQueueFull the bound would have given at offer time.
//
//dscslint:hotpath
func (e *Engine) drainLocked(p *pool) {
	if p.ingress == nil || p.ingress.staged.Load() == 0 {
		return
	}
	entries := p.ingress.drainInto(p.scratch)
	for i := range entries {
		en := &entries[i]
		if !p.core.Submit(en.task) {
			p.ingress.dropped.Add(1)
			e.cDroppedAll.Inc(1)
			p.cDropped.Inc(1)
			e.deliver(en.req, outcome{err: ErrQueueFull})
			continue
		}
		if f := p.core.Former(); f != nil {
			f.Observe(en.task, reqBatch(en.req.opt))
		}
	}
	clear(entries)
	p.scratch = entries[:0]
	e.syncDepth(p)
}

// admit submits the task (carrying its request in Ref) to one pool's
// queue: ErrClosed after shutdown, ErrQueueFull at the admission bound.
// bounceIfFull marks a spill attempt: a full target then reports
// ErrQueueFull without counting a drop against its queue — the request is
// not lost, it falls back to the original pool.
//
// With the sharded ingress the task stages on the caller's shard and the
// pool lock is only tried, never waited on: an uncontended admit drains
// synchronously (sequential callers observe exactly the direct path's
// behavior), a contended one leaves the entry for whoever holds the lock —
// the submit path's whole win is that waiting submitters queue on their
// shard, not on the pool mutex.
func (e *Engine) admit(p *pool, task sched.HybridTask, req *request, bounceIfFull bool) error {
	if p.ingress == nil || bounceIfFull {
		// Spill attempts take the locked path: the bounce contract needs a
		// synchronous answer from the real queue (a late ingress reject
		// would lose the fallback to the original pool), and spills are off
		// the common path by construction.
		return e.admitDirect(p, task, req, bounceIfFull)
	}
	if err := p.ingress.offer(metrics.ShardIndex(len(p.ingress.shards)),
		ingressEntry{task: task, req: req}, bounceIfFull); err != nil {
		return err
	}
	// Only reach for the pool lock when a worker is parked and needs the
	// backlog handed over. Active workers drain the shards at the top of
	// their loop, so the common case — workers busy, submitters streaming —
	// is a shard append plus two atomics, no pool-lock traffic at all.
	// The parked/staged handshake is store-buffer safe: offer bumped
	// staged before this load, the parking worker bumps parked before
	// re-checking staged, and Go atomics are sequentially consistent, so
	// at least one side sees the other.
	if p.parked.Load() > 0 {
		if p.mu.TryLock() {
			e.drainLocked(p)
			p.mu.Unlock()
		} else {
			// The lock holder may already be past its pre-park backlog
			// check. An empty lock/unlock fences against that window: it
			// returns only once the parking worker has released the mutex
			// inside cond.Wait, where the Signal is guaranteed to land.
			p.mu.Lock()
			//lint:ignore SA2001 empty critical section is the wakeup fence
			p.mu.Unlock()
		}
		p.cond.Signal()
	}
	e.wakePeers(p, p.ingress.pending())
	return nil
}

// admitDirect is the pre-shard admit: everything under the pool lock.
// Earlier-staged ingress entries drain first so admission order holds.
func (e *Engine) admitDirect(p *pool, task sched.HybridTask, req *request, bounceIfFull bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	e.drainLocked(p)
	if bounceIfFull && p.core.QueueFull() {
		return ErrQueueFull
	}
	if !p.core.Submit(task) {
		e.syncDepth(p)
		return ErrQueueFull
	}
	if f := p.core.Former(); f != nil {
		f.Observe(task, reqBatch(req.opt))
	}
	e.syncDepth(p)
	p.cond.Signal()
	e.wakePeers(p, p.core.QueueLen())
	return nil
}

// wakePeers is the cross-pool half of the admit-time wakeups. Pull-based
// rebalancing is driven by the thief, so a worker parked on its own empty
// queue must hear the peer backlog deepen. (Signaling a Cond without its
// lock is explicitly allowed.) The static threshold wakes the other class
// past the depth count; adaptive balance wakes every peer via the shared
// latch-precondition gate.
func (e *Engine) wakePeers(p *pool, depth int) {
	if depth > 0 && p.deadBit.Load() {
		// Work admitted to a dead pool drains only by rescue: neither the
		// static depth gate nor the warmed-digest gate below can fire for
		// it (its digest was invalidated at death), so wake every peer
		// directly — a parked worker elsewhere is this backlog's only exit.
		e.signalPeers(p)
		return
	}
	if e.opt.AdaptiveBalance {
		e.signalPeersForBalance(p, depth > 0)
	} else if e.opt.StealThreshold > 0 && depth > e.opt.StealThreshold {
		for _, d := range e.pools {
			if d.class != p.class {
				d.cond.Signal()
			}
		}
	}
}

// signalPeersForBalance wakes every parked peer worker to re-check the
// wait-gap latch against p — the adaptive analogue of the static
// threshold's cross-class signal, shared by the submit-time (admit) and
// dispatch-time (recordWaits) call sites so the two wakeup policies
// cannot drift apart. The gate is exactly the latch's own arming
// precondition: p has a backlog and a warmed, positive windowed wait-p95
// — a zero p95 can never arm the latch, so waking workers to scan every
// pool then would be pure overhead on the request path.
func (e *Engine) signalPeersForBalance(p *pool, backlog bool) {
	if backlog && e.mc.WarmedWait(p.idx) > 0 {
		e.signalPeers(p)
	}
}

// signalPeers wakes one parked worker of every pool but p.
func (e *Engine) signalPeers(p *pool) {
	for _, d := range e.all {
		if d != p {
			d.cond.Signal()
		}
	}
}

// Submit enqueues one invocation and blocks until a worker serves it (or
// admission control rejects it with ErrQueueFull). Safe for concurrent use
// from any number of goroutines — the request path has no global lock.
//
// With SpilloverThreshold set, a submission aimed at a DSCS-class pool
// whose queue has reached the threshold is rerouted to a CPU-class pool
// (recorded as serve_spillover_total{from,to}); the returned
// Invocation.Platform names the pool that actually served it. A full spill
// target falls back to the original pool, which may still have room — the
// threshold sits well below the admission bound.
//
//dscslint:hotpath
func (e *Engine) Submit(platformName string, b *workload.Benchmark, opt faas.Options) (Invocation, error) {
	req, target, err := e.enqueue(platformName, b, opt, false)
	if err != nil {
		return Invocation{}, err
	}
	out := <-req.done
	putRequest(req)
	if out.err != nil {
		return Invocation{}, out.err
	}
	served := target
	if out.platform != "" {
		// A steal can move the request after admission; report the pool
		// that actually served it.
		served = out.platform
	}
	return Invocation{
		Result:        out.res,
		Platform:      served,
		Queued:        out.queued,
		BatchRequests: out.batchRequests,
		BatchSize:     out.batchSize,
	}, nil
}

// SubmitAsync enqueues one invocation fire-and-forget: it returns as soon
// as admission control accepts (ErrQueueFull / ErrClosed reject
// synchronously, exactly like Submit) and the execution's outcome is
// dropped on completion. Quiesce waits for the in-flight count to drain.
// This is the throughput spelling of the submit path — callers measuring
// or driving sustained load pay the admission cost only, not a reply
// channel round-trip per request.
//
//dscslint:hotpath
func (e *Engine) SubmitAsync(platformName string, b *workload.Benchmark, opt faas.Options) error {
	_, _, err := e.enqueue(platformName, b, opt, true)
	return err
}

// InFlight counts admitted requests whose outcome has not yet been
// delivered.
func (e *Engine) InFlight() int { return int(e.inflight.Load()) }

// Quiesce blocks until every admitted invocation has been delivered or the
// timeout elapses, reporting whether the engine drained. Fire-and-forget
// callers use it as their completion barrier.
func (e *Engine) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for e.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// enqueue is the shared admission path behind Submit and SubmitAsync:
// spill decision, policy pricing, task construction, admit with spill
// fallback, submit-side telemetry. It returns the admitted request and the
// pool that accepted it.
func (e *Engine) enqueue(platformName string, b *workload.Benchmark, opt faas.Options, fire bool) (*request, string, error) {
	p, ok := e.pools[platformName]
	if !ok {
		//dscslint:allow hotpathcheck cold branch: caller error, never taken by well-formed traffic
		return nil, "", fmt.Errorf("serve: unknown platform %q", platformName)
	}
	if b == nil {
		//dscslint:allow hotpathcheck cold branch: caller error, never taken by well-formed traffic
		return nil, "", fmt.Errorf("serve: nil benchmark")
	}
	// The MultiCore decides every spill: the dead-home reroute, the
	// wait-gap latch under AdaptiveBalance, or the static depth threshold.
	// (Without rebalancing a submission to a dead pool queues there, the
	// degraded mode an operator chose by running isolated pools.)
	target, spilled := p, false
	if i, ok := e.mc.BalanceTarget(p.idx); ok {
		target, spilled = e.all[i], true
	}
	cpuSvc, dscsSvc, accel := e.estimate(b)
	if e.opt.AdaptiveEstimates {
		// Policy pricing blends the static prior toward the observed p50
		// of each class's best-observed pool, so SJF/criticality/DAG picks
		// order work by real service times instead of the offline model.
		cpuSvc = e.observedService(b.Slug, sched.ClassCPU, cpuSvc)
		dscsSvc = e.observedService(b.Slug, sched.ClassDSCS, dscsSvc)
	}
	now := time.Now() // one clock read serves both stamps below
	req := getRequest()
	req.bench, req.opt, req.enq, req.fire = b, opt, now, fire
	task := sched.HybridTask{
		ID:          int(e.nextID.Add(1)),
		Arrived:     now.Sub(e.start),
		Payload:     b.Slug,
		CPUService:  cpuSvc,
		DSCSService: dscsSvc,
		AccelFuncs:  accel,
		Ref:         req,
	}

	e.inflight.Add(1)
	err := e.admit(target, task, req, spilled)
	if spilled && errors.Is(err, ErrQueueFull) {
		// The spill target is full; the original DSCS queue may still
		// have room (its bound is deeper than the spill threshold).
		target, spilled = p, false
		err = e.admit(target, task, req, false)
	}
	if err != nil {
		e.inflight.Add(-1)
		putRequest(req)
		if errors.Is(err, ErrQueueFull) {
			e.cDroppedAll.Inc(1)
			target.cDropped.Inc(1)
		}
		return nil, "", err
	}
	if spilled {
		e.cSpillAll.Inc(1)
		p.cSpillTo[target.name].Inc(1)
	}
	if target.autoscaler != nil {
		// Arrival-rate digests feed the predictive pre-warm floor; the
		// autoscaler serializes internally, off the pool lock.
		target.autoscaler.ObserveArrival(b.Slug, task.Arrived)
	}
	e.cSubmitted.Inc(1)
	return req, target.name, nil
}

// batchState is one execution's gathered requests: the dispatched lead
// plus every compatible same-benchmark request coalesced so far, with the
// remaining MaxBatch budget for further gathering during a linger window.
type batchState struct {
	lead    *request
	reqs    []*request
	payload string
	batch   int // combined model batch
	budget  int // remaining model-batch budget toward MaxBatch
	// tasks mirrors reqs with the dispatched queue tasks themselves: the
	// requeue path needs the original HybridTasks (arrival stamps, pricing)
	// to return in-flight work to the queue when the pool dies mid-batch.
	tasks []sched.HybridTask
	// waits holds the batch's clamped queue delays, computed once at
	// dispatch (recordWaits) and reused by the delivery loop — the digest
	// staging and the per-request outcomes read the same values.
	waits []time.Duration
}

// batchPool recycles batchState structs and their request slices across
// executions; putBatch clears the request pointers so a recycled batch
// never pins served requests for the GC.
var batchPool = sync.Pool{New: func() any {
	return &batchState{reqs: make([]*request, 0, DefaultMaxBatch)}
}}

func putBatch(bs *batchState) {
	clear(bs.reqs)
	bs.reqs = bs.reqs[:0]
	clear(bs.tasks)
	bs.tasks = bs.tasks[:0]
	bs.waits = bs.waits[:0]
	bs.lead, bs.payload, bs.batch, bs.budget = nil, "", 0, 0
	batchPool.Put(bs)
}

// newBatch resolves a dispatched task to its request (carried in the
// task's Ref — no side-table lookup) and does the initial coalescing pass
// over what already queued. Callers hold p.mu.
//
//dscslint:hotpath
func (e *Engine) newBatch(p *pool, task sched.HybridTask) *batchState {
	lead := task.Ref.(*request)
	bs := batchPool.Get().(*batchState)
	bs.lead, bs.payload = lead, task.Payload
	bs.reqs = append(bs.reqs[:0], lead)
	bs.tasks = append(bs.tasks[:0], task)
	bs.batch = reqBatch(lead.opt)
	bs.budget = e.opt.MaxBatch - bs.batch
	e.gather(p, bs)
	return bs
}

// gather coalesces compatible same-benchmark queued requests into the
// batch, up to the remaining budget, and refreshes the queue-depth gauge
// (Coalesce removes queued tasks just like Dispatch does). It returns how
// many requests were taken. Callers hold p.mu.
//
//dscslint:hotpath
func (e *Engine) gather(p *pool, bs *batchState) int {
	if bs.budget <= 0 {
		return 0
	}
	budget := bs.budget
	taken := p.core.Coalesce(budget, func(t sched.HybridTask) bool {
		if t.Payload != bs.payload {
			return false
		}
		r := t.Ref.(*request)
		if !coalescable(r.opt, bs.lead.opt) {
			return false
		}
		if reqBatch(r.opt) > budget {
			return false
		}
		budget -= reqBatch(r.opt)
		return true
	})
	for _, t := range taken {
		r := t.Ref.(*request)
		bs.reqs = append(bs.reqs, r)
		bs.tasks = append(bs.tasks, t)
		bs.batch += reqBatch(r.opt)
	}
	bs.budget = budget
	if len(taken) > 0 {
		e.syncDepth(p)
	}
	return len(taken)
}

// collectBatch is newBatch flattened to (requests, combined batch) — kept
// as the deterministic entry point the batching tests drive.
func (e *Engine) collectBatch(p *pool, task sched.HybridTask) ([]*request, int) {
	bs := e.newBatch(p, task)
	return bs.reqs, bs.batch
}

// lingerSlice is the wall-clock granularity of the engine's linger loop:
// the worker re-checks the queue for late same-benchmark arrivals at this
// period until the BatchWindow closes.
func lingerSlice(linger time.Duration) time.Duration {
	slice := linger / 8
	if slice < 100*time.Microsecond {
		slice = 100 * time.Microsecond
	}
	if slice > 2*time.Millisecond {
		slice = 2 * time.Millisecond
	}
	return slice
}

// stealInto pulls queued work from a donor pool into p — the drain-time
// half of rebalancing, complementing submit-time spillover. The MultiCore
// picks the donor (StealDonor: the static threshold's deepest other-class
// backlog, or under AdaptiveBalance the deepest pool of any class whose
// wait gap over p has latched). The caller holds p.mu; stealInto releases
// it for the scan and retakes both pool locks in name order (the
// engine-wide lock order), so two pools stealing from each other cannot
// deadlock. It returns how many requests moved; p.mu is held again on
// return.
//
//dscslint:hotpath
func (e *Engine) stealInto(p *pool) int {
	if !p.core.Healthy() {
		// A dead thief cannot dispatch what it steals; rescued work would
		// just be buried in a second dead queue.
		return 0
	}
	p.mu.Unlock()
	i, _, ok := e.mc.StealDonor(p.idx)
	if !ok {
		p.mu.Lock()
		return 0
	}
	donor := e.all[i]
	first, second := p, donor
	if second.name < first.name {
		first, second = second, first
	}
	first.mu.Lock()
	second.mu.Lock()
	moved := 0
	// The donor's staged backlog is stealable too — it just hasn't crossed
	// into the core yet. Drain it (under both locks, safely ordered) so the
	// steal sees the donor's full depth.
	e.drainLocked(donor)
	// Re-check under both locks: the backlog may have drained past the
	// donor's floor, or the engine may be closing, since the unlocked scan.
	// (The adaptive latch itself is not re-checked — it just tripped, and
	// hysteresis means a single completion cannot have released it.)
	if !p.closed && !donor.closed && p.core.Healthy() && donor.core.QueueLen() > e.mc.stealFloor(i) {
		tasks := p.core.StealFrom(donor.core, e.opt.MaxBatch)
		for _, t := range tasks {
			// The request rides the task's Ref across the move; only the
			// donor's forming group needs fixing up.
			r := t.Ref.(*request)
			if f := donor.core.Former(); f != nil && reqBatch(r.opt) > 1 {
				// StealFrom shed one unit per task; shed the rest of
				// this request's model batch from the forming group.
				f.Shed(t.Payload, reqBatch(r.opt)-1)
			}
		}
		moved = len(tasks)
		if moved > 0 {
			// Sibling workers of the thief pool may be parked; the stolen
			// backlog is work for them too.
			p.cond.Broadcast()
			e.cStealAll.Inc(float64(moved))
			p.cStealFrom[donor.name].Inc(float64(moved))
			// A steal extracts queued tasks just like Coalesce does: both
			// pools' depth gauges (and ingress mirrors) must follow.
			e.syncDepth(donor)
			e.syncDepth(p)
		}
	}
	donor.mu.Unlock()
	return moved
}

// dispatch selects p's next task at now, honoring an attached batch
// former. Callers hold p.mu. When nothing dispatches, wait (valid when
// waitOK) is how long the worker should sleep before re-driving the core —
// a forming batch is filling and will come due. formed reports whether
// this dispatch released a formed group (as opposed to group-less work:
// post-close leftovers, stolen-in tasks, or the shutdown drain), so the
// serve_batch_formed_total counter matches BatchFormer.Formed and the
// simulation's Stats.Formed.
//
//dscslint:hotpath
func (e *Engine) dispatch(p *pool, now time.Duration) (task sched.HybridTask, ok bool, wait time.Duration, waitOK, formed bool) {
	f := p.core.Former()
	if f == nil || p.closed {
		// No former, or draining at shutdown: serve immediately, holding
		// nothing back.
		task, ok = p.core.Dispatch(now)
		return task, ok, 0, false, false
	}
	before := f.Formed()
	task, ok, wake, wakeOK := p.core.DispatchFormed(now)
	if ok || !wakeOK {
		return task, ok, 0, false, ok && f.Formed() > before
	}
	return sched.HybridTask{}, false, wake - now, true, false
}

// worker is one pool goroutine: dispatch via the shared core, coalesce a
// batch (lingering up to BatchLinger for it to fill toward MaxBatch, or
// waiting on the global former's queue-level batch), stealing from the
// other class's backlog when its own queue is empty, execute
// run-to-completion, deliver outcomes.
func (e *Engine) worker(p *pool) {
	defer e.wg.Done()
	p.mu.Lock()
	for {
		e.drainLocked(p)
		e.advanceElasticLocked(p)
		now := e.now()
		task, ok, wait, waitOK, formed := e.dispatch(p, now)
		if !ok {
			if waitOK {
				// A batch is forming; wake when it fills or comes due.
				p.mu.Unlock()
				if slice := lingerSlice(e.opt.BatchLinger); wait > slice {
					wait = slice
				}
				if wait < 50*time.Microsecond {
					wait = 50 * time.Microsecond
				}
				time.Sleep(wait)
				p.mu.Lock()
				continue
			}
			if p.closed {
				p.mu.Unlock()
				return
			}
			// A dead pool's worker parks straight away: its dispatch can
			// never succeed, stealing into it would bury rescued work, and
			// re-checking its (undrainable) backlog would spin this loop
			// without ever releasing p.mu — starving the very peers trying
			// to lock the pool and rescue that backlog. FailPool/RecoverPool
			// broadcast, so the park always wakes on a health transition.
			if p.core.Healthy() && (e.opt.StealThreshold > 0 || e.opt.AdaptiveBalance) {
				stole := e.stealInto(p)
				// Re-check before parking: stealInto dropped p.mu, so a
				// submission may have signaled into the gap and its wakeup
				// would otherwise be lost.
				if stole > 0 || p.core.QueueLen() > 0 || p.closed {
					continue
				}
			}
			// Park. The parked count is incremented before the staged
			// re-check: a submitter that just staged an entry either sees
			// parked > 0 (and fences a Signal through the mutex) or this
			// load sees its entry — the Dekker pairing that makes the
			// lock-free offer path wakeup-safe.
			p.parked.Add(1)
			if p.ingress != nil && p.ingress.staged.Load() > 0 {
				p.parked.Add(-1)
				continue
			}
			p.cond.Wait()
			p.parked.Add(-1)
			continue
		}
		bs := e.newBatch(p, task)
		// Queue delay ends at this dispatch: the linger window below holds
		// an already-assigned batch open (worker-side batching, not
		// queueing), and waiting for a physical drive further down is
		// execution contention. Recording either as wait would let a lone
		// lingered request read as linger-length queue delay — on a quiet
		// pool the gauges would converge on BatchLinger and the balance
		// latch would see congestion that is not there. (The simulation
		// records at core dispatch the same way.)
		dispatched := time.Now()
		if e.opt.BatchLinger > 0 && e.opt.MaxBatch > 1 && p.core.Former() == nil {
			// Deadline-aware batching: the same BatchWindow decision the
			// discrete-event simulation drives from its virtual clock,
			// here fed wall time and slept in slices.
			w := NewBatchWindow(now, e.opt.BatchLinger, e.opt.MaxBatch, bs.batch)
			for w.Open(e.now()) && !p.closed {
				p.mu.Unlock()
				time.Sleep(lingerSlice(e.opt.BatchLinger))
				p.mu.Lock()
				e.drainLocked(p)
				e.gather(p, bs)
				w.Size = bs.batch
			}
		}
		e.syncDepth(p)
		p.mu.Unlock()

		e.recordWaits(p, bs, dispatched)
		if e.opt.AdaptiveBalance {
			// This dispatch just updated the pool's wait digest — the
			// signal the balance latch reads. If a backlog remains, parked
			// peers must re-check it: with no further arrivals to signal
			// them, a freshly tripped latch would otherwise go unheard.
			p.mu.Lock()
			backlog := p.core.QueueLen() > 0
			p.mu.Unlock()
			e.signalPeersForBalance(p, backlog)
		}

		// DSCS-class executions occupy the physical drive holding their
		// input replica for the duration (run-to-completion, Section 5.3);
		// conventional I/O against a held drive pays the arbitration
		// penalty, and waiting here is drive contention. A request whose
		// input has no healthy DSCS replica falls back to conventional
		// execution inside the runner and occupies no drive.
		lead := bs.lead
		drive := -1
		if p.class == sched.ClassDSCS {
			if d, ok := p.runner.DriveFor(lead.bench, bs.batch); ok {
				var waited bool
				drive, waited = e.drives.acquireDrive(d)
				if waited {
					e.cDriveWait.Inc(1)
				}
				if drive >= 0 {
					e.driveBusy[drive].Set(1)
					e.driveAcq[drive].Inc(1)
				}
			}
		}

		opt := lead.opt
		opt.Batch = bs.batch
		res, err := e.execHedged(p, lead.bench, opt, bs.payload)

		if drive >= 0 {
			e.driveBusy[drive].Set(0)
			e.drives.release(drive)
		}

		p.mu.Lock()
		if !p.core.Healthy() && !p.closed {
			// The pool died while this batch was executing. The execution's
			// result is void — a killed worker delivers nothing — but the
			// requests are still owed exactly one delivery each, so the
			// batch's tasks return to the queue (in arrival order, ahead of
			// younger work) and stay in-flight until a surviving pool steals
			// them or this one recovers. Requeue frees the one worker slot
			// this batch held; the submission ledger never moves, so
			// Conservation still accounts each request exactly once.
			p.core.Requeue(bs.tasks)
			if f := p.core.Former(); f != nil {
				for i, t := range bs.tasks {
					f.Observe(t, reqBatch(bs.reqs[i].opt))
				}
			}
			e.syncDepth(p)
			p.mu.Unlock()
			e.cRequeues.Inc(float64(len(bs.tasks)))
			// The requeued backlog is rescue work: wake peers to steal it.
			e.signalPeers(p)
			putBatch(bs)
			p.mu.Lock()
			continue
		}
		p.core.Complete(len(bs.reqs))
		p.mu.Unlock()
		if err == nil {
			e.observe(bs.payload, p.name, res.Total(), dispatched)
			if p.autoscaler != nil {
				// The predictive floor prices demand with observed
				// service times; completions are where they exist.
				p.autoscaler.ObserveService(bs.payload, res.Total())
			}
		}
		e.cBatches.Inc(1)
		e.cBatchedReqs.Inc(float64(len(bs.reqs)))
		p.gBatchOcc.Set(float64(bs.batch))
		e.cCompleted.Inc(float64(len(bs.reqs)))
		if formed {
			e.cFormedAll.Inc(1)
			p.cFormed.Inc(1)
		}
		// The waits were computed (and negative linger-window waits
		// clamped) at dispatch time in recordWaits; charge the counter
		// once for the whole batch and hand each request its own value.
		var waitMS float64
		for i, r := range bs.reqs {
			wait := bs.waits[i]
			waitMS += float64(wait) / float64(time.Millisecond)
			e.deliver(r, outcome{res: res, err: err, platform: p.name, queued: wait,
				batchRequests: len(bs.reqs), batchSize: bs.batch})
		}
		e.cWaitMS.Inc(waitMS)
		putBatch(bs)
		p.mu.Lock()
	}
}

// Close drains every queue, stops the workers, and fails any submission
// racing the shutdown. Idempotent.
func (e *Engine) Close() {
	e.once.Do(func() {
		// Disarm the fault script first: a scripted kill must not race the
		// drain below (a timer mid-fire holds no pool lock yet, so the
		// closed checks in the fault path make any straggler a no-op).
		for _, t := range e.faultTimers {
			t.Stop()
		}
		for _, p := range e.pools {
			p.mu.Lock()
			p.closed = true
			if !p.core.Healthy() {
				// A drain outranks a fault: a dead pool's queue must still be
				// served (its tasks carry blocked submitters), so revive the
				// core — like Freeze below, shutdown wins every race.
				p.core.Recover(e.now())
				p.deadBit.Store(false)
			}
			if lc := p.core.Lifecycle(); lc != nil {
				// Drain semantics: queued work must still be served, so
				// suspension stops and warming finishes instantly — a
				// scaled-to-zero pool gets one slot back to empty its
				// queue rather than stranding requests behind cold
				// capacity.
				if p.lifeTimer != nil {
					p.lifeTimer.Stop()
				}
				p.timerAt = -1
				lc.Freeze(e.now())
				p.core.AdvanceLifecycle(e.now())
			}
			var flushed []ingressEntry
			if p.ingress != nil {
				// Closing the shards (under p.mu, which every drain also
				// holds) leaves no window for a staged entry to strand:
				// offers racing this section either landed in the flush or
				// fail with ErrClosed at their shard.
				flushed = p.ingress.close(p.scratch)
				p.scratch = flushed[:0:0]
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			for i := range flushed {
				e.deliver(flushed[i].req, outcome{err: ErrClosed})
			}
		}
		// Unblock workers waiting for a physical drive; their in-flight
		// executions finish unarbitrated.
		e.drives.close()
		e.wg.Wait()
		// Workers exit only with empty queues, and every queued task carries
		// its request in Ref — once the queues are drained, no request can
		// be left behind, so there is no side table to sweep.
	})
}

// serviceEstimate is a benchmark's fixed pricing for the scheduling
// policies. bench records which Benchmark object it was derived from: a
// redeploy under the same slug hands the engine a different object, and a
// cache hit must not price the new chain with the old chain's estimate
// (nor let a racing in-flight request of the old chain re-memoize stale
// pricing after the redeploy's ForgetEstimate ran).
type serviceEstimate struct {
	bench      *workload.Benchmark
	cpu, dscs  time.Duration
	accelFuncs int
}

// estimate prices a benchmark for the scheduling policies: expected service
// time on the CPU baseline and on the in-storage DSA (effective-throughput
// rooflines; only the relative order matters to the policies), plus the
// acceleratable-function count of its chain for DAG-aware scheduling.
// Deriving an estimate walks the model graphs and rebuilds the application
// chain — pure per-benchmark work memoized in the engine's cache (per
// engine, not per process: another engine, or a test redefining a slug,
// must not read this run's pricing).
func (e *Engine) estimate(b *workload.Benchmark) (cpu, dscs time.Duration, accelFuncs int) {
	if v, ok := e.estimates.Load(b.Slug); ok {
		// A hit only counts for the same Benchmark object: a different
		// object under the same slug is a changed chain (redeploy), and
		// its pricing must be re-derived, not inherited.
		if est := v.(serviceEstimate); est.bench == b {
			return est.cpu, est.dscs, est.accelFuncs
		}
	}
	const (
		cpuFLOPS  = 200e9 // Baseline (CPU) effective throughput
		dscsFLOPS = 26e12 // 128x128 DSA at 1 GHz, utilization-derated
	)
	flops := float64(b.Preproc.FLOPs() + b.Model.FLOPs())
	est := serviceEstimate{
		bench: b,
		cpu:   time.Duration(flops / cpuFLOPS * float64(time.Second)),
		dscs:  time.Duration(flops / dscsFLOPS * float64(time.Second)),
	}
	if app, err := faas.AppFor(b); err == nil {
		est.accelFuncs = len(app.AcceleratedPrefix())
	}
	e.estimates.Store(b.Slug, est)
	return est.cpu, est.dscs, est.accelFuncs
}

// ServiceEstimate exposes the engine's (memoized) static pricing for a
// benchmark — diagnostics and the redeploy regression tests.
func (e *Engine) ServiceEstimate(b *workload.Benchmark) (cpu, dscs time.Duration, accelFuncs int) {
	return e.estimate(b)
}

// ForgetEstimate drops the memoized static pricing, the live latency
// digests, and the published latency gauges for a slug. The gateway calls
// it on redeploy: a changed chain must not keep the old chain's pricing
// (the memoized estimate would otherwise survive forever), its stale
// latency history, or old quantiles on /metrics.
func (e *Engine) ForgetEstimate(slug string) {
	e.estimates.Delete(slug)
	e.obs.Forget(slug)
	for name := range e.pools {
		// Drop the cached handles first: a completion racing this sees
		// either the old series (about to be unset) or re-resolves fresh
		// cells — never a handle writing to an unset series forever.
		e.latGauges.Delete(latKey{slug: slug, platform: name})
		labels := "{benchmark=" + slug + ",platform=" + name + "}"
		e.tel.Unset("serve_latency_p50" + labels)
		e.tel.Unset("serve_latency_p95" + labels)
		e.tel.Unset("serve_latency_p99" + labels)
	}
}

// Observatory exposes the engine's latency digests (diagnostics, tests).
func (e *Engine) Observatory() *metrics.Observatory { return e.obs }

// observe folds one execution's service time into the latency observatory
// and refreshes the per-{benchmark, platform} quantile gauges (rate-
// limited; the digest itself ingests every observation). The gauges read
// the O(1) P² stream estimates, so the completion path never sorts.
func (e *Engine) observe(slug, platformName string, service time.Duration, at time.Time) {
	dg := e.obs.Record(slug, platformName, service)
	k := latKey{slug: slug, platform: platformName}
	v, ok := e.latGauges.Load(k)
	if !ok {
		labels := "{benchmark=" + slug + ",platform=" + platformName + "}"
		v, _ = e.latGauges.LoadOrStore(k, &latHandles{
			p50: e.tel.GaugeHandle("serve_latency_p50" + labels),
			p95: e.tel.GaugeHandle("serve_latency_p95" + labels),
			p99: e.tel.GaugeHandle("serve_latency_p99" + labels),
		})
	}
	h := v.(*latHandles)
	nowNS := at.UnixNano()
	last := h.refresh.Load()
	if nowNS-last < int64(gaugeRefreshInterval) || !h.refresh.CompareAndSwap(last, nowNS) {
		return
	}
	ps := [3]float64{0.50, 0.95, 0.99}
	var qs [3]time.Duration
	dg.StreamQuantilesInto(ps[:], qs[:])
	h.p50.SetDuration(qs[0])
	h.p95.SetDuration(qs[1])
	h.p99.SetDuration(qs[2])
}

// recordWaits folds one dispatched batch's queue delays — each request's
// arrival→dispatch wait — into the wait observatory under the serving
// pool's {platform, class} key and refreshes the serve_queue_delay_*
// gauges. A stolen request charges its wait to the pool that served it,
// while its enqueue instant survives the move — so a hot pool's digest
// reflects what its own backlog cost, not what it exported. (A request
// gathered during the linger window can postdate the dispatch instant;
// the negative wait clamps to zero here, and the delivery loop hands the
// same clamped values to the per-request outcomes.)
//
//dscslint:hotpath
func (e *Engine) recordWaits(p *pool, bs *batchState, dispatched time.Time) {
	bs.waits = bs.waits[:0]
	for _, r := range bs.reqs {
		w := dispatched.Sub(r.enq)
		if w < 0 {
			w = 0
		}
		bs.waits = append(bs.waits, w)
	}
	dg := e.mc.waits.RecordBatch(p.name, p.class.String(), bs.waits)
	if dg == nil {
		return
	}
	// Publish rate limit: the first dispatch refreshes immediately (the
	// stamp starts at zero), later ones at most once per interval. The CAS
	// keeps concurrent workers from folding the window twice for one slot.
	nowNS := dispatched.UnixNano()
	last := p.delayRefresh.Load()
	if nowNS-last < int64(gaugeRefreshInterval) || !p.delayRefresh.CompareAndSwap(last, nowNS) {
		return
	}
	// Unlike the cumulative serve_latency_* gauges, these publish the
	// sliding-window quantiles — the very values the balance latch reads —
	// so an operator alerting on serve_queue_delay_p95 watches the same
	// signal that trips rebalancing, and the gauge falls back once a
	// congested window drains instead of staying inflated by history.
	// Windowed reads are O(1) off the sorted ring, all three under one
	// staged-merge fold.
	ps := [3]float64{0.50, WaitQuantile, 0.99}
	var qs [3]time.Duration
	dg.QuantilesInto(ps[:], qs[:])
	p.gDelayP50.SetDuration(qs[0])
	p.gDelayP95.SetDuration(qs[1])
	p.gDelayP99.SetDuration(qs[2])
}

// WaitObservatory exposes the engine's queue-delay digests (diagnostics,
// tests).
func (e *Engine) WaitObservatory() *metrics.Observatory { return e.mc.waits }

// observedService blends one class's static service prior toward the
// observed p50 of that class's best-observed pool (the cached class lists
// are name-sorted, so ties break deterministically). Un-observed
// benchmarks keep the prior untouched.
func (e *Engine) observedService(slug string, class sched.InstanceClass, static time.Duration) time.Duration {
	pools := e.spillCPU
	if class == sched.ClassDSCS {
		pools = e.dscsPools
	}
	var best *metrics.Digest
	for _, p := range pools {
		if dg := e.obs.Digest(slug, p.name); dg != nil && (best == nil || dg.Count() > best.Count()) {
			best = dg
		}
	}
	if best == nil {
		return static
	}
	return best.Blend(static, e.obs.Warmup())
}
