// driver.go is the package's one virtual-clock event loop (see the package
// documentation for the configurations it serves).

package cluster

import (
	"fmt"
	"time"

	"dscs/internal/scale"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
)

// scaleInterval rate-limits autoscaler decisions like the live engine's;
// a starved pool bypasses it.
const scaleInterval = 100 * time.Millisecond

// simExec is one in-flight execution, tracked only when faults or hedging
// are armed so the classic replays stay bit-identical. pool is the serving
// pool; of links a hedged duplicate to its primary, whose dispatch pool
// stays the accounting owner. done marks a completion already credited (by
// the primary or a winning hedge); cancelled marks the serving pool dying
// under it — its completion event still fires but retires nothing; hedged
// makes the duplicate dispatch one-shot.
type simExec struct {
	tasks                   []sched.HybridTask
	pool                    int
	of                      *simExec
	done, cancelled, hedged bool
}

// driver runs one simulation over a MultiCore from the virtual clock.
// Configurations set the hooks before scheduling their arrivals; only
// service and retire are required.
type driver struct {
	eng *sim.Engine
	mc  *serve.MultiCore
	rng *sim.RNG

	// order is the pool dispatch order of every pump; maxBatch > 1
	// coalesces same-benchmark queued tasks onto each dispatch.
	order    []int
	maxBatch int
	// lastWake dedups former wake events per pool: scheduled events are
	// never cancelled, so any instant already armed will fire and re-pump.
	lastWake []time.Duration
	// executions counts executions started per pool (hedges excluded).
	executions []int

	// service samples one execution's duration on pool i from the run's
	// stream; retire credits an execution served by pool i after the core
	// has retired it.
	service func(pool int, tasks []sched.HybridTask) time.Duration
	retire  func(pool int, tasks []sched.HybridTask, elapsed time.Duration)
	// launch, when set, takes a dispatched batch instead of executing it at
	// once (the rack's linger windows hold it open first).
	launch func(pool int, batch []sched.HybridTask)
	// steal rebalances backlogs once no pool can dispatch and reports the
	// tasks moved (nil: no rebalancing).
	steal func() int
	// patience arms hedging: an execution outliving it on its class races
	// a duplicate on a healthy peer (nil: no hedging).
	patience func(t sched.HybridTask, class sched.InstanceClass) time.Duration
	// poolDown cancels config-owned holds on a dying pool (open linger
	// windows) before its in-flight executions requeue.
	poolDown func(pool int)
	// driveFault applies storage-node events (nil: the sim rejects them).
	driveFault func(ev trace.FaultEvent)
	// repumpOnFail re-drives dispatch right after a pool-down so peers
	// rescue its orphans at once (otherwise the next event resumes it).
	repumpOnFail bool

	faults                 []trace.FaultEvent
	applied                int
	inflight               []*simExec
	hedgesFired, hedgesWon int

	// ascs holds each elastic pool's autoscaler (nil entries for pools
	// built without workers; nil slice when capacity is fixed).
	ascs                     []*scale.Autoscaler
	lastLifeWake, lastDecide time.Duration
}

// newDriver builds the pool set and the run's clock and stream. window and
// warmup tune the queue-delay digests and gate the autoscalers' wait
// signal (0 takes the metrics defaults); a non-nil elastic arms the worker
// lifecycle (attachElastic).
func newDriver(specs []serve.PoolSpec, seed uint64, window, warmup int, elastic *scale.Config) (*driver, error) {
	mc, err := serve.NewMultiCore(specs)
	if err != nil {
		return nil, err
	}
	mc.SetWaitTuning(window, warmup)
	d := &driver{
		eng: sim.NewEngine(), mc: mc, rng: sim.NewRNG(seed),
		lastWake:     make([]time.Duration, len(specs)),
		executions:   make([]int, len(specs)),
		lastLifeWake: -1, lastDecide: -1,
	}
	for i := range specs {
		d.order = append(d.order, i)
		d.lastWake[i] = -1
	}
	if elastic != nil {
		if err := d.attachElastic(elastic); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// attachElastic arms the worker lifecycle on every pool with workers: each
// runs the live engine's serve.Lifecycle with its own autoscaler. A pool's
// instance count is its lifecycle Max (cfg.Max is ignored) and cfg.Min is
// clamped to it.
func (d *driver) attachElastic(cfg *scale.Config) error {
	d.ascs = make([]*scale.Autoscaler, d.mc.Pools())
	for i := range d.ascs {
		pool := d.mc.Pool(i)
		if pool.Workers() == 0 {
			continue
		}
		ec := *cfg
		ec.Max = pool.Workers()
		ec.Min = min(ec.Min, ec.Max)
		if err := ec.Validate(); err != nil {
			return err
		}
		initial := ec.Min
		if ec.Mode == scale.ModeFixed {
			initial = ec.Max
		}
		lc, err := serve.NewLifecycle(serve.LifecycleConfig{
			Min: ec.Min, Max: ec.Max,
			ColdStart: ec.ColdStart, IdleLinger: ec.IdleLinger,
		}, initial, 0)
		if err != nil {
			return err
		}
		if err := pool.AttachLifecycle(lc, 0); err != nil {
			return err
		}
		if d.ascs[i], err = scale.New(ec, d.mc.Spec(i).Name); err != nil {
			return err
		}
	}
	return nil
}

// armFaults validates the scripted schedule against the pool set and
// schedules it. It must run after the hooks are set and before arrivals
// are scheduled: fault events then win same-instant ties. Pool events name
// a pool; drive events name a DSCS pool's drive and need driveFault.
func (d *driver) armFaults(evs []trace.FaultEvent) error {
	for _, ev := range evs {
		i := d.mc.Index(ev.Target)
		switch {
		case !ev.Kind.Pool() && d.driveFault == nil:
			return fmt.Errorf("cluster: this sim models pool faults only, got %q", ev)
		case !ev.Kind.Pool() && (i < 0 || d.mc.Spec(i).Class != sched.ClassDSCS):
			return fmt.Errorf("cluster: fault script targets unknown drive %q", ev.Target)
		case i < 0:
			return fmt.Errorf("cluster: fault script targets unknown pool %q", ev.Target)
		}
	}
	d.faults = evs
	for _, ev := range evs {
		ev := ev
		d.eng.At(ev.At, func() { d.applyFault(ev) })
	}
	return nil
}

// submit admits a task onto pool i (false: dropped at its bound) and
// observes it on the pool's batch former, if one is attached. The pool's
// autoscaler sees the arrival either way: the pre-warm floor prices
// offered demand, not admitted throughput.
func (d *driver) submit(i int, t sched.HybridTask) bool {
	if d.ascs != nil && d.ascs[i] != nil {
		d.ascs[i].ObserveArrival(t.Payload, d.eng.Now())
	}
	if !d.mc.SubmitTo(i, t) {
		return false
	}
	if f := d.mc.Pool(i).Former(); f != nil {
		f.Observe(t, 1)
	}
	return true
}

// pump drives the elastic lifecycles, then dispatches every pool in order
// to a fixpoint, rebalancing whenever nothing else can move.
func (d *driver) pump() {
	d.advanceScale()
	for {
		for _, i := range d.order {
			d.drain(i)
		}
		if d.steal == nil || d.steal() == 0 {
			return
		}
	}
}

// drain dispatches pool i until it runs out of work or workers. A formed
// pool dispatches only released batches; otherwise it arms an event at the
// earliest due instant — the virtual-clock analogue of the live engine's
// timed worker wait. (Without a former DispatchFormed is Dispatch.)
func (d *driver) drain(i int) {
	for {
		now := d.eng.Now()
		task, ok, wake, wakeOK := d.mc.DispatchFormed(i, now)
		if !ok {
			if wakeOK && wake != d.lastWake[i] {
				d.lastWake[i] = wake
				d.eng.At(wake, d.pump)
			}
			return
		}
		batch := []sched.HybridTask{task}
		if d.maxBatch > 1 {
			batch = append(batch, d.mc.Coalesce(i, now, d.maxBatch-1,
				func(t sched.HybridTask) bool { return t.Payload == task.Payload })...)
		}
		if d.launch != nil {
			d.launch(i, batch)
		} else {
			d.execute(i, batch)
		}
	}
}

// execute runs one dispatched batch on pool i for one sampled service
// time: the lead's sample prices the whole coalesced execution, as on the
// live engine.
func (d *driver) execute(pool int, tasks []sched.HybridTask) {
	d.executions[pool]++
	elapsed := d.service(pool, tasks)
	var ex *simExec
	if len(d.faults) > 0 || d.patience != nil {
		ex = &simExec{tasks: tasks, pool: pool}
		d.inflight = append(d.inflight, ex)
	}
	if d.patience != nil {
		// The sim knows the true service time up front, so the hedge timer
		// only arms when the primary will actually outlive its patience —
		// the live engine's timer fires blind and finds the primary already
		// done, same outcome.
		if p := d.patience(tasks[0], d.mc.Spec(pool).Class); p > 0 && p < elapsed {
			d.eng.After(p, func() { d.hedge(ex) })
		}
	}
	d.eng.After(elapsed, func() {
		if ex != nil {
			if ex.done || ex.cancelled {
				return
			}
			ex.done = true
		}
		d.mc.Complete(pool, len(tasks))
		if d.ascs != nil && d.ascs[pool] != nil {
			d.ascs[pool].ObserveService(tasks[0].Payload, elapsed)
		}
		d.retire(pool, tasks, elapsed)
		d.pump()
	})
}

// hedge launches the duplicate dispatch for one straggling execution: the
// first healthy peer pool (ascending index) with a free worker lends it
// outside the submission ledger (serve.PoolCore.Hedge) and races the
// primary. The dispatch pool stays the accounting owner — a winning hedge
// completes the primary's ledger and frees the primary's worker; the
// loser's event only returns the borrowed one. One hedge per execution.
func (d *driver) hedge(ex *simExec) {
	if ex.done || ex.cancelled || ex.hedged {
		return
	}
	ex.hedged = true
	for j := 0; j < d.mc.Pools(); j++ {
		if j == ex.pool || !d.mc.Healthy(j) || !d.mc.Pool(j).Hedge() {
			continue
		}
		d.hedgesFired++
		hr := &simExec{tasks: ex.tasks, pool: j, of: ex}
		d.inflight = append(d.inflight, hr)
		elapsed := d.service(j, ex.tasks)
		d.eng.After(elapsed, func() {
			// The borrow returns on schedule even when the lender died
			// mid-hedge; only the result is discarded.
			hr.done = true
			d.mc.Pool(j).HedgeDone()
			if hr.cancelled || ex.done || ex.cancelled {
				d.pump()
				return
			}
			ex.done = true
			d.hedgesWon++
			d.mc.Complete(ex.pool, len(ex.tasks))
			d.retire(j, ex.tasks, elapsed)
			d.pump()
		})
		return
	}
}

// applyFault drives one scripted event. A pool-down cancels the pool's
// config-owned holds and in-flight executions — each Requeue frees the one
// worker its dispatch occupied and returns its tasks by arrival order (the
// at-most-once path: the submission ledger never moves), and a formed pool
// re-observes them so their groups re-form — and cancels hedges the dead
// pool was hosting. A pool-up resumes dispatch at the pre-fault capacity
// over the preserved backlog.
func (d *driver) applyFault(ev trace.FaultEvent) {
	d.applied++
	if !ev.Kind.Pool() {
		d.driveFault(ev)
		return
	}
	now := d.eng.Now()
	i := d.mc.Index(ev.Target)
	if ev.Kind == trace.FaultPoolUp {
		d.mc.RecoverPool(i, now)
		d.pump()
		return
	}
	if !d.mc.Healthy(i) {
		return
	}
	d.mc.FailPool(i, now)
	if d.poolDown != nil {
		d.poolDown(i)
	}
	kept := d.inflight[:0]
	for _, ex := range d.inflight {
		if ex.done || ex.cancelled {
			continue
		}
		if ex.pool != i {
			kept = append(kept, ex)
			continue
		}
		ex.cancelled = true
		if ex.of != nil {
			continue // a hedge: its primary still owns the tasks
		}
		d.mc.Requeue(i, ex.tasks)
		if f := d.mc.Pool(i).Former(); f != nil {
			for _, t := range ex.tasks {
				f.Observe(t, 1)
			}
		}
	}
	d.inflight = kept
	if d.repumpOnFail {
		d.pump()
	}
}

// advanceScale folds virtual time into every lifecycle (warming slots come
// ready, expired lingers suspend), re-decides each autoscaler's target,
// and arms a wake at the earliest lifecycle self-transition — the
// virtual-clock analogue of the live engine's lifecycle timer.
func (d *driver) advanceScale() {
	if d.ascs == nil {
		return
	}
	now := d.eng.Now()
	d.mc.AdvanceLifecycles(now)
	starved := false
	for i, a := range d.ascs {
		p := d.mc.Pool(i)
		if a != nil && p.QueueLen() > 0 && p.Busy() >= p.Workers() {
			starved = true
			break
		}
	}
	if starved || d.lastDecide < 0 || now-d.lastDecide >= scaleInterval {
		d.lastDecide = now
		for i, a := range d.ascs {
			if a == nil {
				continue
			}
			p := d.mc.Pool(i)
			if desired := a.Desired(now, p.Busy(), p.QueueLen(), d.mc.WarmedWait(i)); desired != p.Lifecycle().Desired() {
				p.ScaleTo(desired, now)
			}
		}
	}
	if evt, ok := d.mc.NextLifecycleEvent(); ok && evt != d.lastLifeWake {
		d.lastLifeWake = evt
		d.eng.At(evt, func() {
			if d.lastLifeWake == evt {
				d.lastLifeWake = -1
			}
			d.pump()
		})
	}
}

// formed totals the batches the pools' formers released.
func (d *driver) formed() int {
	n := 0
	for i := 0; i < d.mc.Pools(); i++ {
		if f := d.mc.Pool(i).Former(); f != nil {
			n += f.Formed()
		}
	}
	return n
}

// lifecycleTotals closes every pool's idle-cost integral at the common
// horizon, so the tallies compare across configurations, and sums the
// lifecycle counters (all zero with fixed capacity).
func (d *driver) lifecycleTotals(horizon time.Duration) (coldStarts, suspends int, idle time.Duration) {
	if d.ascs == nil {
		return 0, 0, 0
	}
	d.mc.AdvanceLifecycles(horizon)
	for i := 0; i < d.mc.Pools(); i++ {
		if lc := d.mc.Pool(i).Lifecycle(); lc != nil {
			coldStarts += lc.ColdStarts()
			suspends += lc.Suspends()
			idle += lc.IdleCost()
		}
	}
	return coldStarts, suspends, idle
}

// sampleQueue arms a sampler every period (default 5s) across [0, horizon]
// — the trace plus its drain tail.
func sampleQueue(eng *sim.Engine, horizon, every time.Duration, sample func(at time.Duration)) {
	if every <= 0 {
		every = 5 * time.Second
	}
	for t := time.Duration(0); t <= horizon; t += every {
		at := t
		eng.At(at, func() { sample(at) })
	}
}

// ledger asserts a run lost nothing: every admitted unit completed, was
// dropped at a queue bound, or — only when a fault script left a pool dead
// at the horizon — is stranded.
func ledger(what string, completed, dropped, stranded, admitted int) error {
	if completed+dropped+stranded != admitted {
		return fmt.Errorf("cluster: %s ledger leaks: %d completed + %d dropped + %d stranded != %d admitted",
			what, completed, dropped, stranded, admitted)
	}
	return nil
}
