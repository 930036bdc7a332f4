package workload

import (
	"runtime"
	"testing"

	"db2www/internal/sqldb"
)

// BenchmarkDatasetLoad loads the benchmark's two largest datasets into a
// fresh database: the orders tables of orders_mixed (4 200 INSERTs of
// five ? arguments) and the 2 000 rows of big_report and point_lookup
// (three ? arguments each). It is the work gatewayd -dataset does before
// it is ready.
func BenchmarkDatasetLoad(b *testing.B) {
	for _, spec := range []string{"orders:200:20:1", "urldb:2000:1"} {
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Load(sqldb.NewDatabase("LOAD"), spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOrdersLoadAllocations: loading orders_mixed's dataset resolves each
// of its two INSERT texts once — one plan-cache miss each, every other of
// the 4 200 statements a hit, none bypassing the shape map — and
// allocates at most 100 000 times and 8 MiB. Measured on 2 cores: 92 467
// allocations and 7.2 MB; 205 259 and 27.3 MB while a text with ?
// arguments was parsed and digested afresh each time.
func TestOrdersLoadAllocations(t *testing.T) {
	const customers, products = 200, 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := sqldb.NewDatabase("ALLOC")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Orders(db, customers, products, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d allocations, %.1f MB", allocs, float64(bytes)/1e6)
	if allocs > 100_000 || bytes > 8<<20 {
		t.Errorf("loading orders:%d:%d: %d allocations and %d bytes, want at most 100 000 and %d",
			customers, products, allocs, bytes, 8<<20)
	}
	const inserts = customers * (1 + products)
	st := db.PlanCacheStats()
	if st.Misses != 2 || st.Hits != inserts-2 || st.Bypasses != 0 {
		t.Errorf("plan cache after the load: %+v, want 2 misses, %d hits, no bypass", st, inserts-2)
	}
}
