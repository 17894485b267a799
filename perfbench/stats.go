package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sampler runs beside a measured phase. It polls the in-use heap
// (MemStats.HeapInuse, read through runtime/metrics, which does not stop
// the world) and, at every window boundary, reads the host clock and
// closes the window's heap peak.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	windows []window
}

// window is one sampling window: its closing clock reading and the
// largest in-use heap seen in it.
type window struct {
	end    hostClock
	peakMB float64
}

const heapSampleEvery = 5 * time.Millisecond

// startSampler starts sampling; windowLen is the clock-read period (0:
// the whole phase is one window).
func startSampler(windowLen time.Duration) *sampler {
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := window{end: readClock()}
	go func() {
		defer close(h.done)
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		h.windows = append(h.windows, start)
		var peak uint64
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			last := h.windows[len(h.windows)-1].end.at
			select {
			case <-h.stop:
				h.windows = append(h.windows, window{end: readClock(), peakMB: float64(peak) / (1 << 20)})
				return
			case <-tick.C:
			}
			if windowLen > 0 && time.Since(last) >= windowLen {
				h.windows = append(h.windows, window{end: readClock(), peakMB: float64(peak) / (1 << 20)})
				peak = 0
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the windows; the
// first entry only marks the start.
func (h *sampler) finish() []window {
	close(h.stop)
	<-h.done
	return h.windows
}

// peakMB is the largest heap of any window.
func peakMB(ws []window) float64 {
	var p float64
	for _, w := range ws {
		p = max(p, w.peakMB)
	}
	return p
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaMem(before, after runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// repeatFor calls op in chunks of n until budget has elapsed (at least one
// chunk) and returns the mean time per call.
func repeatFor(budget time.Duration, n int, op func()) time.Duration {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		for range n {
			op()
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls)
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// span is one timed interval at a layer boundary. Client and handler spans
// of one request share Req; the handler span's parent is the client span.
// Exec spans come from the Execute hook, which sees batches, not requests,
// so they carry no request.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Batch is the executed model batch (exec spans only).
	Batch int `json:"batch,omitempty"`
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) addAll(ss []span) {
	l.mu.Lock()
	l.spans = append(l.spans, ss...)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func stamp(t time.Time) int64 { return int64(t.Sub(epoch)) }

// hostClock is a reading of wall time and of the time the hypervisor has
// stolen from this machine's CPUs.
type hostClock struct {
	at    time.Time
	steal time.Duration
}

func readClock() hostClock { return hostClock{at: time.Now(), steal: stolen()} }

// clkTck is the kernel's USER_HZ, the unit of /proc/stat.
const clkTck = 100

// stolen is the machine-wide steal time of /proc/stat's cpu line (0 where
// the kernel does not report it).
func stolen() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clkTck
}

// clockDelta is the interval between two clock readings.
type clockDelta struct{ wall, steal time.Duration }

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTime = 3

// threadCPU is the calling OS thread's CPU time, read from the scheduler's
// exact runtime accounting (getrusage samples it at the tick). Callers
// lock the goroutine to its thread around the interval they measure.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func (a hostClock) to(b hostClock) clockDelta {
	return clockDelta{wall: b.at.Sub(a.at), steal: b.steal - a.steal}
}

// available is the wall time minus this process's share of the stolen
// time: the stolen time is spread over the machine's CPUs.
func (d clockDelta) available() time.Duration {
	return d.wall - d.steal/time.Duration(runtime.NumCPU())
}
