// Command perfbench is the repository's layered benchmark. It runs one named
// workload against the real code paths — the HTTP gateway over a loopback
// listener, the serving engine, the faas runner and the object store, or
// the Figure 13 and workflow simulators — checks every output, and prints
// the end-to-end metrics declared in BENCHMARK.json. With --trace 1 it
// instead times each layer from outside (an HTTP middleware, the
// serve.Options.Execute hook, and direct calls into exported functions)
// and prints the per-layer metrics and an attribution table.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	python3 perfbench/run.py --workload gw-cpu --seed 7 --seconds 10 --trace 0
//	python3 perfbench/run.py --check sensitivity --seconds 4
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md beside this file
// for the workloads, the metric definitions and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// specFile is the benchmark declaration, read from the working directory
// (the repository root).
const specFile = "BENCHMARK.json"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	check    string
	commit   string
	spans    string
}

// outcome is what a workload run measured.
type outcome struct {
	// attempted counts operations (invocations or replay calls); failed
	// counts those that erred, were refused or failed an output check.
	attempted, failed int64
	// wrong counts failed output checks; any makes the run incorrect.
	wrong int64
	// values holds every metric by its BENCHMARK.json name.
	values map[string]float64
	// meanLatency is the mean client time of a gateway run.
	meanLatency time.Duration
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"gw-dscs", "gw-cpu", "sim-fig13", "sim-workflow"}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	opt, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printStamp(out, opt)
	if opt.check != "" {
		ok, err := sensitivity(out, spec, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	oc, err := runWorkload(out, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	declared := spec.EndToEnd
	if opt.trace {
		declared = spec.PerLayer
	}
	if err := conform(oc.values, declared); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMetrics(out, declared, oc.values)
	res := result{
		Correct:   oc.wrong == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]metric, len(declared)),
	}
	for _, m := range declared {
		res.Metrics[m.Name] = metric{Value: oc.values[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d output checks failed\n", oc.wrong)
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	var opt options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed for the environment, the request draw and the traces")
	fs.IntVar(&opt.seconds, "seconds", 10, "length of the measured phase, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer metrics of a traced run instead")
	fs.StringVar(&opt.check, "check", "", `"sensitivity" runs the planted-delay check instead of a workload`)
	fs.StringVar(&opt.commit, "commit", "unknown", "commit recorded in the run stamp")
	fs.StringVar(&opt.spans, "spans", ".bench_build/perfbench/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opt.trace = traceFlag == 1
	if opt.seconds < 1 {
		return opt, fmt.Errorf("--seconds must be at least 1, got %d", opt.seconds)
	}
	switch {
	case opt.check != "" && opt.check != "sensitivity":
		return opt, fmt.Errorf("unknown --check %q (want sensitivity)", opt.check)
	case opt.check == "" && !knownWorkload(opt.workload):
		return opt, fmt.Errorf("unknown --workload %q (want one of %s)", opt.workload, strings.Join(workloadNames, ", "))
	}
	return opt, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// runWorkload dispatches one workload run in the requested mode.
func runWorkload(out io.Writer, opt options) (*outcome, error) {
	if opt.trace {
		return traced(out, opt)
	}
	switch opt.workload {
	case "gw-dscs", "gw-cpu":
		return runGateway(out, gatewayWorkloads[opt.workload], opt, 0)
	default:
		return runSim(out, simWorkloads[opt.workload], opt)
	}
}

// printStamp records the machine and build a result came from. GOMAXPROCS
// is whatever the runtime chose; the benchmark never overrides it.
func printStamp(w io.Writer, opt options) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%t check=%q\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, opt.check)
	fmt.Fprintf(w, "# stamp go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(),
		opt.commit, runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: metric
// names and units come from there, so the declaration and the output
// cannot drift apart.
type benchSpec struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark declaration: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &spec, nil
}

// conform checks that a run produced exactly the declared metrics.
func conform(values map[string]float64, declared []declaredMetric) error {
	want := make(map[string]bool, len(declared))
	var missing, extra []string
	for _, m := range declared {
		want[m.Name] = true
		if _, ok := values[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range values {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("metrics differ from %s: missing %q, undeclared %q", specFile, missing, extra)
	}
	return nil
}

func printMetrics(w io.Writer, declared []declaredMetric, values map[string]float64) {
	for _, m := range declared {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
}

// micros and millis convert a duration to the unit a metric reports.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
