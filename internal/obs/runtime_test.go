package obs

import (
	"runtime"
	"strings"
	"testing"
)

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("test_ratio", "a fractional gauge")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("Value = %v", got)
	}
	if again := r.FloatGauge("test_ratio", "a fractional gauge"); again != g {
		t.Fatal("same name must return the same gauge")
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# TYPE test_ratio gauge", "test_ratio 0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if snap := r.Snapshot(); snap["test_ratio"] != 0.25 {
		t.Errorf("snapshot = %v", snap["test_ratio"])
	}
}

// TestOnScrapeHook: hooks run before each exposition and each snapshot,
// so lazily-refreshed gauges are current at read time only.
func TestOnScrapeHook(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_lazy", "refreshed on scrape")
	calls := 0
	r.OnScrape(func() {
		calls++
		g.Set(int64(calls))
	})

	if snap := r.Snapshot(); snap["test_lazy"] != 1 {
		t.Fatalf("after first snapshot gauge = %v, hook calls = %d", snap["test_lazy"], calls)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_lazy 2") {
		t.Errorf("second scrape did not rerun the hook:\n%s", sb.String())
	}
}

// sink keeps an allocation of TestRegisterRuntimeMetrics on the heap.
var sink []byte

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	runtime.GC() // guarantee at least one pause sample for the histogram

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"go_goroutines ",
		"go_heap_alloc_bytes ",
		"go_heap_sys_bytes ",
		"# TYPE go_gc_pause_seconds histogram",
		`go_gc_pause_seconds_bucket{le="+Inf"}`,
		"db2www_uptime_seconds ",
		"# TYPE go_gc_cycles_total counter",
		"# TYPE go_alloc_bytes_total counter",
		"go_gc_cpu_seconds_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := r.Snapshot()
	if snap["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v", snap["go_goroutines"])
	}
	if snap["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v", snap["go_heap_alloc_bytes"])
	}
	if snap["go_gc_pause_seconds_count"] < 1 {
		t.Errorf("gc pause count = %v after forced GC", snap["go_gc_pause_seconds_count"])
	}
	// What the collector costs is cumulative: a second scrape, after work
	// that allocates and a forced cycle, reads strictly more of each.
	sink = make([]byte, 1<<20)
	runtime.GC()
	again := r.Snapshot()
	for _, name := range []string{"go_gc_cycles_total", "go_alloc_bytes_total", "go_gc_cpu_seconds_total"} {
		if snap[name] <= 0 || again[name] <= snap[name] {
			t.Errorf("%s = %v, then %v after a forced GC: want positive and growing", name, snap[name], again[name])
		}
	}
	// Nil registry is a no-op, not a panic.
	RegisterRuntimeMetrics(nil)
	RegisterBuildInfo(nil)
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "db2www_build_info{") ||
		!strings.Contains(out, `go="`+runtime.Version()+`"`) ||
		!strings.Contains(out, "} 1") {
		t.Errorf("build info exposition wrong:\n%s", out)
	}
}
