package sched

import (
	"strings"
	"testing"
)

func TestTelemetry(t *testing.T) {
	tel := NewTelemetry()
	tel.Inc("requests_total", 1)
	tel.Inc("requests_total", 2)
	tel.Set("queue_depth", 7)
	if tel.Counter("requests_total") != 3 {
		t.Errorf("counter = %v", tel.Counter("requests_total"))
	}
	if tel.Gauge("queue_depth") != 7 {
		t.Errorf("gauge = %v", tel.Gauge("queue_depth"))
	}
	out := tel.Render()
	if !strings.Contains(out, "requests_total 3") || !strings.Contains(out, "queue_depth 7") {
		t.Errorf("render missing metrics:\n%s", out)
	}

	// Exact rendering: counters and gauges interleave in one sorted list,
	// values print with %g, and every line ends in a newline.
	tel = NewTelemetry()
	tel.Inc("b_total", 1e6)
	tel.Set("c{x=y}", 1.0/3)
	tel.Inc("a_total", 3)
	tel.Set("a_gauge", 0.25)
	tel.Set("d_tiny", 1.5e-7)
	want := "a_gauge 0.25\na_total 3\nb_total 1e+06\nc{x=y} 0.3333333333333333\nd_tiny 1.5e-07\n"
	if got := tel.Render(); got != want {
		t.Errorf("render =\n%q\nwant\n%q", got, want)
	}
}
