package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dscs"
	"dscs/internal/faas"
	"dscs/internal/platform"
	"dscs/internal/sim"
	"dscs/internal/workload"
)

// gatewayWorkload is one closed-loop HTTP traffic mix: a seeded uniform
// draw over the Table 1 apps, every request landing on one pool.
type gatewayWorkload struct {
	name     string
	platform string // the pool every request is routed to
	query    string // appended to /function/<app>
}

var gatewayWorkloads = map[string]gatewayWorkload{
	// Default routing: every Table 1 app carries acceleration hints.
	"gw-dscs": {name: "gw-dscs", platform: platform.DSCS().Name()},
	// The traditional path, with remote object-store reads and writes.
	"gw-cpu": {name: "gw-cpu", platform: platform.BaselineCPU().Name(),
		query: "?platform=" + url.PathEscape(platform.BaselineCPU().Name())},
}

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 9
	// totalTolerance bounds the relative gap between a response's modeled
	// total_ms and the in-process Runner.Invoke value for the same app,
	// platform and executed batch. Drive arbitration under concurrency
	// moves it by well under this.
	totalTolerance = 0.005
	// reqHeader carries the request ID shared by client and handler spans.
	reqHeader = "X-Perfbench-Req"
)

// invokeBody is the body of every invocation.
var invokeBody = []byte(`{"quantile":0.5}`)

// invokeReply is the part of the gateway's invocation response the
// benchmark checks and attributes.
type invokeReply struct {
	Application   string  `json:"application"`
	Platform      string  `json:"platform"`
	TotalMS       float64 `json:"total_ms"`
	QueuedMS      float64 `json:"queued_ms"`
	BatchRequests int     `json:"batch_requests"`
	BatchSize     int     `json:"batch_size"`
}

// expectKey indexes the in-process reference totals.
type expectKey struct {
	slug  string
	batch int
}

// execHook is the benchmark's serve.Options.Execute: it runs
// Runner.Invoke and, when asked, times each executed batch or adds a
// planted busy-wait (the sensitivity check only).
type execHook struct {
	plant time.Duration
	spans atomic.Pointer[spanLog]
	// last is the duration of the most recent execution while spans is
	// set; single-goroutine probes read it after their Submit returns.
	last atomic.Int64
}

func (h *execHook) execute(r *faas.Runner, b *workload.Benchmark, opt faas.Options) (faas.Result, error) {
	log := h.spans.Load()
	if log == nil && h.plant == 0 {
		return r.Invoke(b, opt)
	}
	start := time.Now()
	res, err := r.Invoke(b, opt)
	if h.plant > 0 {
		for until := time.Now().Add(h.plant); time.Now().Before(until); {
		}
	}
	end := time.Now()
	if log != nil {
		h.last.Store(int64(end.Sub(start)))
		log.add(span{Name: "exec", Start: stamp(start), End: stamp(end), Batch: opt.Batch})
	}
	return res, err
}

// gatewayRig is one set-up gateway: environment, engine, deployed apps
// and an in-process HTTP listener on loopback.
type gatewayRig struct {
	w       gatewayWorkload
	env     *dscs.Environment
	gw      *dscs.Gateway
	hook    *execHook
	handler http.Handler // the gateway's own handler, unwrapped
	// handlerSpans is set while the middleware records handler spans.
	handlerSpans atomic.Pointer[spanLog]
	srv          *http.Server
	served       chan struct{} // closed when Serve returns
	client       *http.Client
	suite        []*workload.Benchmark
	urls, paths  []string // per suite index
	expect       map[expectKey]float64
	nextReq      atomic.Uint64
}

// newGatewayRig sets up a gateway for w: environment, engine, listener,
// one YAML deploy per app, the in-process reference totals for every
// batch size `clients` concurrent requests can coalesce into (compiling
// the DSA programs), and one checked HTTP invocation per app.
func newGatewayRig(w gatewayWorkload, seed uint64, clients int, plant time.Duration) (*gatewayRig, error) {
	env, err := dscs.NewEnvironment(seed)
	if err != nil {
		return nil, err
	}
	hook := &execHook{plant: plant}
	gw, err := dscs.NewGateway(env, dscs.ServeOptions{Execute: hook.execute})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return nil, err
	}
	r := &gatewayRig{
		w: w, env: env, gw: gw, hook: hook, handler: gw.Handler(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		suite:  env.Suite,
		expect: make(map[expectKey]float64),
	}
	r.srv = &http.Server{Handler: http.HandlerFunc(r.serve)}
	go func() {
		defer close(r.served)
		_ = r.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	base := "http://" + ln.Addr().String()
	for _, b := range r.suite {
		r.paths = append(r.paths, "/function/"+b.Slug+w.query)
		r.urls = append(r.urls, base+r.paths[len(r.paths)-1])
	}
	if err := r.prepare(base, clients); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *gatewayRig) prepare(base string, clients int) error {
	for _, b := range r.suite {
		resp, err := r.client.Post(base+"/system/functions", "application/yaml",
			strings.NewReader(dscs.DeploymentYAML(b)))
		if err != nil {
			return fmt.Errorf("deploy %s: %w", b.Slug, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("deploy %s: HTTP %d: %s", b.Slug, resp.StatusCode, msg)
		}
	}
	runner := r.env.Runners[r.w.platform]
	for batch := 1; batch <= clients; batch++ {
		for _, b := range r.suite {
			res, err := runner.Invoke(b, faas.Options{Batch: batch, Quantile: 0.5})
			if err != nil {
				return fmt.Errorf("reference invoke %s batch %d: %w", b.Slug, batch, err)
			}
			r.expect[expectKey{b.Slug, batch}] = millis(res.Total())
		}
	}
	for i := range r.suite {
		if _, ok, err := r.invoke(i, 0); err != nil || !ok {
			return fmt.Errorf("warm-up invocation of %s failed: %v", r.suite[i].Slug, err)
		}
	}
	return nil
}

// serve is the listener's handler: the gateway's, wrapped by the span
// middleware while tracing.
func (r *gatewayRig) serve(w http.ResponseWriter, req *http.Request) {
	log := r.handlerSpans.Load()
	if log == nil {
		r.handler.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	r.handler.ServeHTTP(w, req)
	end := time.Now()
	id, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64)
	log.add(span{Name: "handler", Req: id, Parent: "client", Start: stamp(start), End: stamp(end)})
}

func (r *gatewayRig) close() {
	_ = r.srv.Close() // the error is the listener's close error; nothing to do
	<-r.served
	r.client.CloseIdleConnections()
	r.gw.Close()
}

// call is one client-observed invocation.
type call struct {
	start, end time.Time
	reply      invokeReply
}

// invoke sends one invocation of suite app i over HTTP and checks the
// reply. ok is false for a failed check; err reports a transport error or
// a non-200 status.
func (r *gatewayRig) invoke(i int, req uint64) (c call, ok bool, err error) {
	hreq, err := http.NewRequest(http.MethodPost, r.urls[i], bytes.NewReader(invokeBody))
	if err != nil {
		return c, false, err
	}
	if req != 0 {
		hreq.Header.Set(reqHeader, strconv.FormatUint(req, 10))
	}
	c.start = time.Now()
	resp, err := r.client.Do(hreq)
	if err != nil {
		return c, false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.end = time.Now()
	if err != nil {
		return c, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return c, false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &c.reply); err != nil {
		return c, false, nil
	}
	return c, r.check(i, c.reply), nil
}

// check compares a reply with the in-process reference for the same app,
// platform and executed batch size.
func (r *gatewayRig) check(i int, rep invokeReply) bool {
	want, ok := r.expect[expectKey{r.suite[i].Slug, rep.BatchSize}]
	return ok && rep.Application == r.suite[i].Slug && rep.Platform == r.w.platform &&
		relGap(rep.TotalMS, want) <= totalTolerance
}

func relGap(got, want float64) float64 { return math.Abs(got-want) / want }

// loadResult is one closed-loop phase.
type loadResult struct {
	elapsed           time.Duration
	ok, failed, wrong int64
	latUS             []float64   // client time of each successful request
	ends              []time.Time // when each successful request completed
	windows           []window
	queuedUS          []float64 // queued_ms of each successful request
	batchRequests     []float64
	clientSpans       []span
	mem               memDelta
	firstErr          error
}

func (l *loadResult) attempted() int64 { return l.ok + l.failed }

// closedLoop runs `clients` keep-alive clients for dur: each sends its
// next request only after the previous reply is fully read. The app
// sequence of client c is drawn from the c-th split of seed's stream.
func (r *gatewayRig) closedLoop(dur time.Duration, seed uint64, clients int, traced bool) loadResult {
	root := sim.NewRNG(seed)
	rngs := make([]*sim.RNG, clients)
	for c := range rngs {
		rngs[c] = root.Split()
	}
	parts := make([]loadResult, clients)
	runtime.GC()
	before := readMem()
	smp := startSampler(loadWindow)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			rng := rngs[c]
			for time.Now().Before(deadline) {
				i := rng.Intn(len(r.suite))
				var id uint64
				if traced {
					id = r.nextReq.Add(1)
				}
				cl, ok, err := r.invoke(i, id)
				switch {
				case err != nil:
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				case !ok:
					p.failed++
					p.wrong++
					continue
				}
				p.ok++
				p.latUS = append(p.latUS, micros(cl.end.Sub(cl.start)))
				p.ends = append(p.ends, cl.end)
				if traced {
					p.queuedUS = append(p.queuedUS, cl.reply.QueuedMS*1e3)
					p.batchRequests = append(p.batchRequests, float64(cl.reply.BatchRequests))
					p.clientSpans = append(p.clientSpans, span{
						Name: "client", Req: id, Start: stamp(cl.start), End: stamp(cl.end),
					})
				}
			}
		}()
	}
	wg.Wait()
	lr := loadResult{elapsed: time.Since(start)}
	lr.windows = smp.finish()
	lr.mem = deltaMem(before, readMem())
	for _, p := range parts {
		lr.ok += p.ok
		lr.failed += p.failed
		lr.wrong += p.wrong
		lr.latUS = append(lr.latUS, p.latUS...)
		lr.ends = append(lr.ends, p.ends...)
		lr.queuedUS = append(lr.queuedUS, p.queuedUS...)
		lr.batchRequests = append(lr.batchRequests, p.batchRequests...)
		lr.clientSpans = append(lr.clientSpans, p.clientSpans...)
		if lr.firstErr == nil {
			lr.firstErr = p.firstErr
		}
	}
	return lr
}

// throughput is successful invocations per second of the phase.
func (l *loadResult) throughput() float64 { return float64(l.ok) / l.elapsed.Seconds() }

// setupGateway sets up setupReps times, keeps the last rig, and returns
// the median set-up time in seconds.
func setupGateway(w gatewayWorkload, seed uint64, clients int, plant time.Duration) (*gatewayRig, float64, error) {
	var rig *gatewayRig
	times := make([]float64, 0, setupReps)
	for range setupReps {
		if rig != nil {
			rig.close()
			rig = nil
		}
		runtime.GC()
		c0 := readClock()
		r, err := newGatewayRig(w, seed, clients, plant)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, c0.to(readClock()).available().Seconds())
		rig = r
	}
	return rig, median(times), nil
}

// runGateway is the untraced measurement of a gateway workload.
func runGateway(out io.Writer, w gatewayWorkload, opt options, plant time.Duration) (*outcome, error) {
	clients := runtime.NumCPU()
	rig, setupS, err := setupGateway(w, opt.seed, clients, plant)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	lr := rig.closedLoop(time.Duration(opt.seconds)*time.Second, opt.seed, clients, false)
	if lr.ok == 0 {
		return nil, fmt.Errorf("%s: no successful invocation (first error: %v)", w.name, lr.firstErr)
	}
	reportLoad(out, w.name, clients, lr)
	st := steadyLoad(lr)
	return &outcome{
		attempted: lr.attempted(), failed: lr.failed, wrong: lr.wrong,
		meanLatency: time.Duration(mean(lr.latUS) * float64(time.Microsecond)),
		values: map[string]float64{
			"throughput_rps": st.rps,
			"success_ratio":  float64(lr.ok) / float64(lr.attempted()),
			"setup_s":        setupS,
			"peak_heap_mb":   st.heapMB,
		},
	}, nil
}

func reportLoad(out io.Writer, name string, clients int, lr loadResult) {
	all := lr.windows[0].end.to(lr.windows[len(lr.windows)-1].end)
	fmt.Fprintf(out, "# %s: closed loop, %d keep-alive clients, %.2fs (%.1f%% stolen): %d ok, %d failed (%d wrong outputs), error_rate %.6f, latency samples %d\n",
		name, clients, lr.elapsed.Seconds(), 100*(1-all.available().Seconds()/all.wall.Seconds()),
		lr.ok, lr.failed, lr.wrong, float64(lr.failed)/float64(max(lr.attempted(), 1)), len(lr.latUS))
	fmt.Fprintf(out, "# %s: raw wall clock over the phase: %.1f req/s, latency mean %.4f ms, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, heap peak %.2f MB\n",
		name, lr.throughput(), mean(lr.latUS)/1e3, quantile(lr.latUS, 0.50)/1e3, quantile(lr.latUS, 0.90)/1e3,
		quantile(lr.latUS, 0.99)/1e3, peakMB(lr.windows))
	if lr.firstErr != nil {
		fmt.Fprintf(out, "# %s: first error: %v\n", name, lr.firstErr)
	}
}

// probeInproc times the gateway handler with no socket: ServeHTTP into a
// recorder, one goroutine, the workload's draw. It returns the mean in µs.
func (r *gatewayRig) probeInproc(budget time.Duration, seed uint64) (float64, int64) {
	rng := sim.NewRNG(seed)
	var wrong int64
	per := repeatFor(budget, 16, func() {
		i := rng.Intn(len(r.suite))
		req := httptest.NewRequest(http.MethodPost, r.paths[i], bytes.NewReader(invokeBody))
		rec := httptest.NewRecorder()
		r.handler.ServeHTTP(rec, req)
		var rep invokeReply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil || !r.check(i, rep) {
			wrong++
		}
	})
	return micros(per), wrong
}

// probeSubmit calls Engine.Submit directly, one goroutine, the workload's
// draw and platform. Per request, serve self time is submit minus queued
// minus the execution the Execute hook timed (one goroutine, so each
// batch is exactly that request). It returns mean submit and self in µs.
func (r *gatewayRig) probeSubmit(budget time.Duration, seed uint64) (submitUS, selfUS float64, wrong int64) {
	rng := sim.NewRNG(seed)
	r.hook.spans.Store(&spanLog{})
	defer r.hook.spans.Store(nil)
	eng := r.gw.Engine()
	var subs, selfs []float64
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < budget; n++ {
		i := rng.Intn(len(r.suite))
		t0 := time.Now()
		inv, err := eng.Submit(r.w.platform, r.suite[i], faas.Options{Quantile: 0.5})
		sub := time.Since(t0)
		want := r.expect[expectKey{r.suite[i].Slug, inv.BatchSize}]
		if err != nil || want == 0 || relGap(millis(inv.Result.Total()), want) > totalTolerance {
			wrong++
			continue
		}
		subs = append(subs, micros(sub))
		selfs = append(selfs, micros(sub-inv.Queued-time.Duration(r.hook.last.Load())))
	}
	return mean(subs), mean(selfs), wrong
}

// traceGateway is the traced half of a gateway run: an untraced reference
// phase (tracing overhead, allocation and GC), a traced phase (client,
// handler and exec spans), then the in-process handler and direct-submit
// probes. It fills the gateway.* and serve.* layer metrics, prints the
// attribution table, and returns the reference phase's allocation and GC
// activity.
func traceGateway(out io.Writer, w gatewayWorkload, seed uint64, seconds int, log *spanLog, vals map[string]float64, oc *outcome) (memDelta, error) {
	clients := runtime.NumCPU()
	rig, _, err := setupGateway(w, seed, clients, 0)
	if err != nil {
		return memDelta{}, err
	}
	defer rig.close()
	dur := time.Duration(seconds) * time.Second
	ref := rig.closedLoop(dur, seed, clients, false)
	reportLoad(out, w.name+" untraced", clients, ref)

	handlerLog, execLog := &spanLog{}, &spanLog{}
	rig.handlerSpans.Store(handlerLog)
	rig.hook.spans.Store(execLog)
	tr := rig.closedLoop(dur, seed, clients, true)
	rig.handlerSpans.Store(nil)
	rig.hook.spans.Store(nil)
	reportLoad(out, w.name+" traced", clients, tr)
	for _, lr := range []loadResult{ref, tr} {
		oc.attempted += lr.attempted()
		oc.failed += lr.failed
		oc.wrong += lr.wrong
	}
	if ref.ok == 0 || tr.ok == 0 {
		return memDelta{}, fmt.Errorf("%s: no successful invocation (first errors: %v, %v)", w.name, ref.firstErr, tr.firstErr)
	}

	inprocUS, wrongIn := rig.probeInproc(probeBudget, seed)
	submitUS, selfUS, wrongSub := rig.probeSubmit(probeBudget, seed)
	oc.wrong += wrongIn + wrongSub
	oc.failed += wrongIn + wrongSub

	handlers := handlerLog.snapshot()
	execs := execLog.snapshot()
	handlerByReq := make(map[uint64]span, len(handlers))
	var handlerUS []float64
	for _, s := range handlers {
		handlerByReq[s.Req] = s
		handlerUS = append(handlerUS, float64(s.End-s.Start)/1e3)
	}
	var clientUS, transportUS []float64
	for _, c := range tr.clientSpans {
		h, ok := handlerByReq[c.Req]
		if !ok {
			return memDelta{}, fmt.Errorf("%s: client span %d has no handler span", w.name, c.Req)
		}
		clientUS = append(clientUS, float64(c.End-c.Start)/1e3)
		transportUS = append(transportUS, float64((c.End-c.Start)-(h.End-h.Start))/1e3)
	}
	// Exec spans carry no request: a batch of k requests blocks each of
	// them for its whole execution, so per request it counts k times.
	var execUS []float64
	var execWeighted, execRequests float64
	for _, s := range execs {
		d := float64(s.End-s.Start) / 1e3
		execUS = append(execUS, d)
		execWeighted += d * float64(s.Batch)
		execRequests += float64(s.Batch)
	}
	execPerReq := execWeighted / max(execRequests, 1)

	vals["gateway.client_us_mean"] = mean(clientUS)
	vals["gateway.client_us_p50"] = quantile(append([]float64(nil), clientUS...), 0.50)
	vals["gateway.client_us_p99"] = quantile(append([]float64(nil), clientUS...), 0.99)
	vals["gateway.handler_us_mean"] = mean(handlerUS)
	vals["gateway.transport_us_mean"] = mean(transportUS)
	vals["gateway.inproc_us_mean"] = inprocUS
	vals["gateway.alloc_kb_per_req"] = float64(ref.mem.allocBytes) / 1024 / float64(ref.ok)
	refRPS, trRPS := steadyLoad(ref).rps, steadyLoad(tr).rps
	vals["gateway.trace_overhead_pct"] = 100 * (1 - trRPS/refRPS)
	vals["serve.submit_us_mean"] = submitUS
	vals["serve.self_us_mean"] = selfUS
	vals["serve.queued_us_p50"] = quantile(append([]float64(nil), tr.queuedUS...), 0.50)
	vals["serve.queued_us_p99"] = quantile(append([]float64(nil), tr.queuedUS...), 0.99)
	vals["serve.exec_us_mean"] = mean(execUS)
	vals["serve.batch_requests_mean"] = mean(tr.batchRequests)

	gatewaySelf := inprocUS - submitUS
	parts := []struct {
		name string
		us   float64
	}{
		{"transport (client - handler)", mean(transportUS)},
		{"gateway self (in-process handler - submit)", gatewaySelf},
		{"serve self (submit - queued - exec)", selfUS},
		{"queued (queued_ms in replies)", mean(tr.queuedUS)},
		{"faas exec (Execute hook, per request)", execPerReq},
	}
	client := mean(clientUS)
	residue := client
	fmt.Fprintf(out, "# attribution %s: mean per request over %d traced requests, %d executed batches\n",
		w.name, len(clientUS), len(execs))
	fmt.Fprintf(out, "#   %-46s %10.2f us  100.0%%\n", "client", client)
	for _, p := range parts {
		residue -= p.us
		fmt.Fprintf(out, "#   %-46s %10.2f us %6.1f%%\n", p.name, p.us, 100*p.us/client)
	}
	fmt.Fprintf(out, "#   %-46s %10.2f us %6.1f%%\n", "unexplained residue", residue, 100*residue/client)
	vals["attribution.residue_us"] = residue
	fmt.Fprintf(out, "# tracing overhead %s: throughput_rps %.1f traced vs %.1f untraced (%.2f%% lower)\n",
		w.name, trRPS, refRPS, vals["gateway.trace_overhead_pct"])

	log.addAll(tr.clientSpans)
	log.addAll(handlers)
	log.addAll(execs)
	return ref.mem, nil
}

// loadWindow is the length of the windows the steady figures are taken
// over.
const loadWindow = 500 * time.Millisecond

// steady is a phase's end-to-end figures with the time the hypervisor stole
// from this machine kept out. Each 0.5 s window gives its throughput per
// available second (wall minus the process's share of the steal) and its
// heap peak; the median over the windows is reported. A burst of steal or
// a one-off stall in a few windows then moves neither.
type steady struct{ rps, heapMB float64 }

func steadyLoad(lr loadResult) steady {
	ends := append([]time.Time(nil), lr.ends...)
	sort.Slice(ends, func(a, b int) bool { return ends[a].Before(ends[b]) })
	var rps, heap []float64
	j := 0
	for k := 1; k < len(lr.windows); k++ {
		d := lr.windows[k-1].end.to(lr.windows[k].end)
		n := 0
		for ; j < len(ends) && ends[j].Before(lr.windows[k].end.at); j++ {
			n++
		}
		if d.wall < loadWindow/2 || n == 0 {
			continue // the short tail window after the deadline
		}
		rps = append(rps, float64(n)/d.available().Seconds())
		heap = append(heap, lr.windows[k].peakMB)
	}
	return steady{median(rps), median(heap)}
}
