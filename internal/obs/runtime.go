package obs

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// gcPauseBuckets covers GC stop-the-world pauses: 10µs to 100ms.
var gcPauseBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// RegisterRuntimeMetrics registers a scrape hook exporting Go runtime
// health on reg: goroutine count, heap bytes, what the collector costs (a
// pause histogram, cycles, bytes allocated and CPU seconds, all cumulative:
// divide their growth by the growth of db2www_http_requests_total for the
// cost of a request), and process uptime. Everything refreshes lazily at
// scrape time — between scrapes the runtime is not touched.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	start := time.Now()
	goroutines := reg.Gauge("go_goroutines", "number of goroutines")
	heapAlloc := reg.Gauge("go_heap_alloc_bytes", "bytes of allocated heap objects")
	heapSys := reg.Gauge("go_heap_sys_bytes", "bytes of heap memory obtained from the OS")
	gcPause := reg.Histogram("go_gc_pause_seconds", "GC stop-the-world pause durations", gcPauseBuckets)
	gcCycles := reg.Counter("go_gc_cycles_total", "completed GC cycles")
	allocBytes := reg.Counter("go_alloc_bytes_total", "cumulative bytes allocated for heap objects")
	gcCPU := reg.FloatGauge("go_gc_cpu_seconds_total", "estimated cumulative CPU seconds spent on garbage collection")
	gcCPUSample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	uptime := reg.FloatGauge("db2www_uptime_seconds", "seconds since the process registered runtime metrics")

	// lastGC tracks which GC cycles have already been fed into the pause
	// histogram; the hook runs under the registry's hook lock, so plain
	// state is fine.
	var lastGC uint32
	var lastAlloc uint64
	reg.OnScrape(func() {
		goroutines.Set(int64(runtime.NumGoroutine()))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapAlloc.Set(int64(ms.HeapAlloc))
		heapSys.Set(int64(ms.HeapSys))
		// PauseNs is a circular buffer of the last 256 pauses; pause for
		// cycle k lands at PauseNs[(k+255)%256]. Feed each new cycle once.
		from := lastGC
		if ms.NumGC > from+256 {
			from = ms.NumGC - 256 // older pauses were overwritten
		}
		for k := from + 1; k <= ms.NumGC; k++ {
			gcPause.Observe(float64(ms.PauseNs[(k+255)%256]) / 1e9)
		}
		gcCycles.Add(int64(ms.NumGC - lastGC))
		allocBytes.Add(int64(ms.TotalAlloc - lastAlloc))
		lastGC, lastAlloc = ms.NumGC, ms.TotalAlloc
		if metrics.Read(gcCPUSample); gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
			gcCPU.Set(gcCPUSample[0].Value.Float64())
		}
		uptime.Set(time.Since(start).Seconds())
	})
}

// RegisterBuildInfo registers the constant db2www_build_info gauge: value
// 1, identity in the labels, so dashboards can correlate regressions
// with deploys by joining on version.
func RegisterBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	bi := ReadBuildInfo()
	version := bi.Revision
	if len(version) > 12 {
		version = version[:12]
	}
	if bi.Modified {
		version += "+dirty"
	}
	reg.Gauge("db2www_build_info", "build identity; constant 1, identity in labels",
		"version", version, "go", bi.GoVersion).Set(1)
}
