package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "total requests", "code", "200").Add(3)
	r.Counter("test_requests_total", "total requests", "code", "404").Inc()
	r.Gauge("test_in_flight", "in-flight requests").Set(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_requests_total total requests",
		"# TYPE test_requests_total counter",
		`test_requests_total{code="200"} 3`,
		`test_requests_total{code="404"} 1`,
		"# TYPE test_in_flight gauge",
		"test_in_flight 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterGetOrCreateReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "k", "v")
	b := r.Counter("x_total", "", "k", "v")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("x_total", "", "k", "w")
	if a == c {
		t.Fatal("different labels must return a different counter")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // le=0.001
	h.Observe(0.005)  // le=0.01
	h.Observe(0.05)   // le=0.1
	h.Observe(5)      // +Inf
	h.Observe(0.01)   // boundary lands in le=0.01

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.001"} 1`,
		`test_seconds_bucket{le="0.01"} 3`,
		`test_seconds_bucket{le="0.1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if s := h.Sum(); s < 5.05 || s > 5.07 {
		t.Errorf("sum = %v", s)
	}
}

func TestHistogramLabelsGetLeAppended(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_exec_seconds", "", []float64{1}, "section", "Q1").Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `test_exec_seconds_bucket{section="Q1",le="1"} 1`) {
		t.Errorf("labelled histogram bucket malformed:\n%s", sb.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", "path", "a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", sb.String())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("snap_total", "")
	h := r.Histogram("snap_seconds", "", []float64{1})
	c.Add(2)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(0.25)
	after := r.Snapshot()
	if d := after["snap_total"] - before["snap_total"]; d != 3 {
		t.Errorf("counter delta = %v", d)
	}
	if d := after["snap_seconds_count"] - before["snap_seconds_count"]; d != 1 {
		t.Errorf("count delta = %v", d)
	}
	if d := after["snap_seconds_sum"] - before["snap_seconds_sum"]; d < 0.24 || d > 0.26 {
		t.Errorf("sum delta = %v", d)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("conc_total", "", "w", "x").Inc()
				r.Histogram("conc_seconds", "", nil, "w", "x").Observe(0.001)
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "", "w", "x").Value(); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("conc_seconds", "", nil, "w", "x").Count(); got != 1600 {
		t.Errorf("histogram count = %d, want 1600", got)
	}
}

func TestEnabledToggle(t *testing.T) {
	if !Enabled() {
		t.Fatal("instrumentation must default on")
	}
	SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) did not take")
	}
	SetEnabled(true)
}

func TestBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" {
		t.Error("GoVersion empty")
	}
	line := VersionLine("testprog")
	if !strings.Contains(line, "testprog") || !strings.Contains(line, "go1") {
		t.Errorf("version line = %q", line)
	}
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	if snap := reg.Snapshot(); len(snap) != 1 {
		t.Errorf("db2www_build_info = %v, want one series", snap)
	} else {
		for series, v := range snap {
			if v != 1 || !strings.Contains(series, `go="`+bi.GoVersion+`"`) {
				t.Errorf("build info series %s %v", series, v)
			}
		}
	}
}
