package obs

import (
	"strconv"
	"testing"
)

// The request path touches the registry a handful of times per request;
// these benchmarks keep the per-touch cost honest (A7 asserts the
// end-to-end budget).

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterLookup(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_total", "requests", "code", "200").Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0123)
	}
}

func BenchmarkNewTraceID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTraceID()
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTrace("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Start(SpanVarEval, "phase").End()
		if len(tr.Spans) > 64 {
			tr.Spans = tr.Spans[:0]
		}
	}
}

func BenchmarkRingAdd(b *testing.B) {
	ring := NewRing(64)
	tr := NewTrace("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.Add(tr)
	}
}

func BenchmarkStatusCode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = strconv.Itoa(200)
	}
}
