package main

import (
	"fmt"
	"time"

	"dscs"
	"dscs/internal/faas"
	"dscs/internal/metrics"
	"dscs/internal/platform"
	"dscs/internal/sched"
	"dscs/internal/serve"
	"dscs/internal/sim"
	"dscs/internal/trace"
	"dscs/internal/units"
	"dscs/internal/workflow"
	"dscs/internal/workload"
)

// probeBudget is how long each isolated probe repeats its call.
const probeBudget = 200 * time.Millisecond

// layerProbes times each layer's exported functions directly, one
// goroutine at a time, on a fresh environment of seed: the faas runner
// and DSA model, the object store, the suite lookup, the workflow graph
// state, the latency digest and the scheduler core.
func layerProbes(seed uint64, workflows *trace.WorkflowTrace, vals map[string]float64) error {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return err
	}
	suite := env.Suite
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	for _, p := range []struct{ key, name string }{
		{"dscs", platform.DSCS().Name()}, {"cpu", platform.BaselineCPU().Name()},
	} {
		runner := env.Runners[p.name]
		for _, b := range suite { // warm: inputs placed, programs compiled
			_, err := runner.Invoke(b, faas.Options{Quantile: 0.5})
			keep(err)
		}
		rng := sim.NewRNG(seed)
		per := repeatFor(probeBudget, 8, func() {
			_, err := runner.Invoke(suite[rng.Intn(len(suite))], faas.Options{Quantile: 0.5})
			keep(err)
		})
		vals["faas.invoke_us."+p.key] = micros(per)
		i := 0
		per = repeatFor(probeBudget, len(suite), func() {
			_, _, err := runner.Platform.Infer(suite[i%len(suite)].Model, 1)
			keep(err)
			i++
		})
		vals["platform.infer_us."+p.key] = micros(per)
	}

	i := 0
	per := repeatFor(probeBudget, len(suite), func() {
		_, err := faas.AppFor(suite[i%len(suite)])
		keep(err)
		i++
	})
	vals["faas.appfor_us"] = micros(per)

	// Object store: reads of input-sized objects, in-place overwrites of
	// intermediate-sized ones (the traditional path's remote I/O).
	store := env.Store
	inKeys := make([]string, len(suite))
	midKeys := make([]string, len(suite))
	midSizes := make([]units.Bytes, len(suite))
	for j, b := range suite {
		inKeys[j], midKeys[j], midSizes[j] = "perfbench/"+b.Slug+"/input", "perfbench/"+b.Slug+"/intermediate", b.IntermediateBytes
		_, _, err := store.PutAt(inKeys[j], b.InputBytes, true, 0.5)
		keep(err)
		_, _, err = store.PutAt(midKeys[j], midSizes[j], true, 0.5)
		keep(err)
	}
	i = 0
	per = repeatFor(probeBudget, len(suite), func() {
		_, _, err := store.GetAt(inKeys[i%len(suite)], 0.5)
		keep(err)
		i++
	})
	vals["objstore.get_us"] = micros(per)
	i = 0
	per = repeatFor(probeBudget, len(suite), func() {
		j := i % len(suite)
		_, _, err := store.PutAt(midKeys[j], midSizes[j], true, 0.5)
		keep(err)
		i++
	})
	vals["objstore.put_us"] = micros(per)

	i = 0
	per = repeatFor(probeBudget, len(suite), func() {
		if workload.BySlug(suite[i%len(suite)].Slug) == nil {
			keep(fmt.Errorf("workload.BySlug(%q) = nil", suite[i%len(suite)].Slug))
		}
		i++
	})
	vals["workload.byslug_us"] = micros(per)

	i = 0
	per = repeatFor(probeBudget, len(workflows.Workflows), func() {
		w := workflows.Workflows[i%len(workflows.Workflows)]
		keep(runWorkflowGraph(w))
		i++
	})
	vals["workflow.run_us"] = micros(per)

	dg := metrics.NewDigest(0)
	i = 0
	per = repeatFor(probeBudget, 1024, func() {
		dg.Record(time.Duration(i%997) * time.Microsecond)
		i++
	})
	vals["metrics.digest_record_ns"] = float64(per)

	keep(coreProbes(vals))
	return firstErr
}

// runWorkflowGraph drives one generated workflow's graph state from
// arrival to the last completion, in unlock order.
func runWorkflowGraph(w trace.Workflow) error {
	run, err := workflow.NewRun(w.ID, w.At, w.Spec)
	if err != nil {
		return err
	}
	ready := append([]int(nil), run.Start(w.At)...)
	for len(ready) > 0 {
		i := ready[0]
		ready = append(ready[1:], run.Complete(i, w.At)...)
	}
	if !run.Succeeded() {
		return fmt.Errorf("workflow %d did not complete every stage", w.ID)
	}
	return run.Conservation()
}

// coreProbes times the scheduler core's exported operations on a
// two-pool MultiCore, in rounds: fill pool 0, steal it all into pool 1 in
// batches of 8 (the steal path and its allocations), then dispatch and
// complete every task on pool 1.
func coreProbes(vals map[string]float64) error {
	const n = 4096
	mc, err := serve.NewMultiCore([]serve.PoolSpec{
		{Name: "cpu", Class: sched.ClassCPU, Workers: 8, QueueDepth: n},
		{Name: "dscs", Class: sched.ClassDSCS, Workers: 8, QueueDepth: n},
	})
	if err != nil {
		return err
	}
	suite := workload.Suite()
	tasks := make([]sched.HybridTask, n)
	for i := range tasks {
		tasks[i] = sched.HybridTask{ID: i, Arrived: time.Duration(i) * time.Microsecond,
			Payload: suite[i%len(suite)].Slug}
	}
	var submit, steal, dispatch time.Duration
	var moved int
	var stealMallocs uint64
	now := time.Duration(n) * time.Microsecond
	for start := time.Now(); time.Since(start) < probeBudget; {
		t0 := time.Now()
		for _, t := range tasks {
			if !mc.SubmitTo(0, t) {
				return fmt.Errorf("core probe: submit refused below the queue bound")
			}
		}
		submit += time.Since(t0)

		m0 := readMem()
		t0 = time.Now()
		for mc.Pool(0).QueueLen() > 0 {
			moved += len(mc.Steal(0, 1, 8))
		}
		steal += time.Since(t0)
		stealMallocs += readMem().Mallocs - m0.Mallocs

		t0 = time.Now()
		for range n {
			if _, ok := mc.Dispatch(1, now); !ok {
				return fmt.Errorf("core probe: dispatch found no task")
			}
			mc.Complete(1, 1)
		}
		dispatch += time.Since(t0)
	}
	if err := mc.Conservation(); err != nil {
		return err
	}
	ops := float64(moved) // every round moves all n tasks through each op
	vals["serve.core_submit_ns"] = float64(submit) / ops
	vals["serve.core_steal_ns"] = float64(steal) / ops
	vals["serve.core_steal_allocs"] = float64(stealMallocs) / ops
	vals["serve.core_dispatch_ns"] = float64(dispatch) / ops
	return nil
}
