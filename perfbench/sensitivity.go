package main

import (
	"fmt"
	"io"
	"time"
)

// sensitivityReps is how many seeds each arm of the check runs.
const sensitivityReps = 3

// sensitivity is the check mode, never part of a measured run. It plants a
// busy-wait in the benchmark's own Execute wrapper, sized to 25% of
// gw-cpu's mean request time, and passes when gw-cpu's throughput_rps
// worsens past its bound while every end-to-end metric of sim-fig13 and
// sim-workflow stays within its bound: the workloads separate the layers,
// and the bounds catch a 25% slowdown of one. Arms alternate per seed.
func sensitivity(out io.Writer, spec *benchSpec, opt options) (bool, error) {
	gwCPU := gatewayWorkloads["gw-cpu"]
	var baseLatency []float64
	for i := range sensitivityReps {
		o := opt
		o.seed = opt.seed + uint64(i)
		oc, err := runGateway(io.Discard, gwCPU, o, 0)
		if err != nil {
			return false, err
		}
		baseLatency = append(baseLatency, float64(oc.meanLatency))
	}
	plant := time.Duration(0.25 * median(baseLatency))
	fmt.Fprintf(out, "# sensitivity: planted %v busy-wait per execution (25%% of gw-cpu's mean request time), %d seeds per arm\n",
		plant, sensitivityReps)

	ok := true
	for _, name := range []string{"gw-cpu", "sim-fig13", "sim-workflow"} {
		arms := [2]map[string][]float64{{}, {}}
		for i := range sensitivityReps {
			o := opt
			o.seed = opt.seed + uint64(i)
			for arm, p := range []time.Duration{0, plant} {
				var oc *outcome
				var err error
				if w, isGateway := gatewayWorkloads[name]; isGateway {
					oc, err = runGateway(io.Discard, w, o, p)
				} else {
					// The plant lives in the gateway's Execute wrapper,
					// which no simulator calls: both arms run the same code.
					oc, err = runSim(io.Discard, simWorkloads[name], o)
				}
				if err != nil {
					return false, err
				}
				if oc.wrong > 0 {
					return false, fmt.Errorf("%s: %d output checks failed", name, oc.wrong)
				}
				for k, v := range oc.values {
					arms[arm][k] = append(arms[arm][k], v)
				}
			}
		}
		for _, m := range spec.EndToEnd {
			if name == "gw-cpu" && m.Name != "throughput_rps" {
				continue
			}
			base, planted := median(arms[0][m.Name]), median(arms[1][m.Name])
			worse := (planted - base) / base
			if m.Better == "higher" {
				worse = (base - planted) / base
			}
			want, pass := "within bound", worse <= m.Bound
			if name == "gw-cpu" {
				want, pass = "past bound", worse > m.Bound
			}
			ok = ok && pass
			fmt.Fprintf(out, "# sensitivity %-12s %-15s base %12.5g planted %12.5g worse by %+7.2f%% (bound %4.1f%%, want %s): %s\n",
				name, m.Name, base, planted, 100*worse, 100*m.Bound, want, verdict(pass))
		}
	}
	fmt.Fprintf(out, "# sensitivity check: %s\n", verdict(ok))
	return ok, nil
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}
