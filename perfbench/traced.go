package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// gatewayFillSeconds is the gateway phase a traced sim run adds, so every
// traced run reports every layer (see traced).
const gatewayFillSeconds = 2

// traced is the per-layer run. It measures every layer on every workload:
// the workload's own path for --seconds, and the other paths briefly —
// a traced sim run adds a short gw-dscs phase, a traced gateway run one
// round of every sim config, and a sim run one round of the other sim's
// configs — followed by the isolated layer probes. The runtime.gc_*
// metrics describe the workload's own phase.
func traced(out io.Writer, opt options) (*outcome, error) {
	vals := make(map[string]float64)
	oc := &outcome{values: vals}
	log := &spanLog{}

	gw, gwSeconds := gatewayWorkloads["gw-dscs"], gatewayFillSeconds
	own, isGateway := gatewayWorkloads[opt.workload]
	if isGateway {
		gw, gwSeconds = own, opt.seconds
	}
	gwMem, err := traceGateway(out, gw, opt.seed, gwSeconds, log, vals, oc)
	if err != nil {
		return nil, err
	}

	rig, err := newSimRig(opt.seed, allSimConfigs)
	if err != nil {
		return nil, err
	}
	vals["trace.generate_s"] = rig.generate.Seconds()
	simMem, err := traceSims(out, rig, opt.workload, opt.seconds, vals, oc)
	if err != nil {
		return nil, err
	}

	if err := layerProbes(opt.seed, rig.workflows, vals); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# context under faas exec (%s, isolated probes, not in the sum): faas.appfor_us %.2f, platform.infer_us.%s %.2f, objstore.get_us %.2f, objstore.put_us %.2f\n",
		gw.name, vals["faas.appfor_us"], platformKey(gw), vals["platform.infer_us."+platformKey(gw)],
		vals["objstore.get_us"], vals["objstore.put_us"])

	mem := simMem
	if isGateway {
		mem = gwMem
	}
	vals["runtime.gc_cycles"] = float64(mem.gcCycles)
	vals["runtime.gc_pause_ms"] = millis(mem.gcPause)

	path, err := writeSpans(opt, log.snapshot())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans written to %s\n", path)
	return oc, nil
}

func platformKey(w gatewayWorkload) string {
	if w.name == "gw-cpu" {
		return "cpu"
	}
	return "dscs"
}

// traceSims replays every sim config: the workload's own for seconds (at
// least two rounds), every other config for one round. It fills the
// cluster.*, sim.* and workflow.* metrics and returns the allocation and
// GC activity of the workload's own replays.
func traceSims(out io.Writer, rig *simRig, workload string, seconds int, vals map[string]float64, oc *outcome) (memDelta, error) {
	own := simWorkloads[workload].configs
	isOwn := make(map[string]bool)
	for _, c := range own {
		isOwn[c] = true
	}
	var others []string
	for _, c := range allSimConfigs {
		if !isOwn[c] {
			others = append(others, c)
		}
	}
	runs := []replayResult{}
	var ownMem memDelta
	if len(own) > 0 {
		rr := rig.replayRounds(out, own, time.Duration(seconds)*time.Second, 2)
		reportReplays(out, workload, rr)
		runs = append(runs, rr)
		ownMem = rr.mem
	}
	rr := rig.replayRounds(out, others, 0, 1)
	reportReplays(out, "other sim configs", rr)
	runs = append(runs, rr)

	for _, rr := range runs {
		oc.attempted += rr.calls
		oc.failed += rr.failed
		oc.wrong += rr.wrong
		for c, secs := range rr.perConfig {
			vals["cluster.run_s."+c] = median(append([]float64(nil), secs...))
		}
		for c, can := range rr.canaries {
			vals["sim.completed."+c] = float64(can.Completed)
			vals["sim.dropped."+c] = float64(can.Dropped)
			vals["sim.peak_queue."+c] = can.PeakQueue
			vals["sim.latency_p99_ms."+c] = can.LatencyP99MS
			if c == "workflow" {
				vals["workflow.local_stages"] = float64(can.LocalStages)
				vals["workflow.fabric_mb"] = can.FabricMB
				vals["workflow.makespan_p50_ms"] = can.MakespanP50MS
			}
		}
	}
	for _, c := range allSimConfigs {
		if _, ok := vals["cluster.run_s."+c]; !ok {
			return memDelta{}, fmt.Errorf("no successful replay of %s", c)
		}
	}
	return ownMem, nil
}

// writeSpans writes the run's spans as JSON lines once the run is over.
func writeSpans(opt options, spans []span) (string, error) {
	if err := os.MkdirAll(opt.spans, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(opt.spans, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
