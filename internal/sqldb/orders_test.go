package sqldb_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"db2www/internal/sqldb"
	"db2www/internal/workload"
)

// ordersStatements are the four statements orders.d2w sends, as the
// benchmark's orders_mixed workload fills them in: a product search by
// customer and name prefix, the spend report that joins the two tables,
// and a ship (UPDATE) with its read-back.
var ordersStatements = []struct{ name, sql string }{
	{"products", "SELECT p.product_name, p.price, p.qty FROM products p WHERE p.custid = 14200 AND p.product_name LIKE 'bik%' ORDER BY p.product_name"},
	{"spend", "SELECT c.name, COUNT(*) AS items, ROUND(SUM(p.price * p.qty), 2) AS total FROM customers c JOIN products p ON c.custid = p.custid WHERE p.custid = 14200 GROUP BY c.name ORDER BY c.name"},
	{"ship", "UPDATE products SET qty = qty + 1 WHERE prodid = 1234"},
	{"shipped", "SELECT prodid, qty FROM products WHERE prodid = 1234"},
}

// ordersDB loads the benchmark's dataset, orders:200:20:1.
func ordersDB(tb testing.TB) *sqldb.Database {
	tb.Helper()
	db := sqldb.NewDatabase("CELDIAL")
	if err := workload.Orders(db, 200, 20, 1); err != nil {
		tb.Fatal(err)
	}
	return db
}

func ordersSession(tb testing.TB) *sqldb.Session { return sqldb.NewSession(ordersDB(tb)) }

// TestOrdersSpendHashJoin pins the plan of the spend report: implied
// equality binds the customer's key to the product search's constant, so
// the join reads one customer through customers_pkey and probes the 20
// products of that customer, where it used to hash all 200 customers and
// the nested loop formed 4 000 pairs to keep 20; without the WHERE it
// forms one pair per product, not 800 000.
func TestOrdersSpendHashJoin(t *testing.T) {
	s := ordersSession(t)
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{ordersStatements[1].sql, []string{"Hash Join (examined=20 returned=20 ",
			"Index Scan on customers as c using customers_pkey (examined=1 returned=1 ",
			"Index Cond: (c.custid = 14200) (implied)"}},
		{"SELECT c.name, COUNT(*) FROM customers c JOIN products p ON c.custid = p.custid GROUP BY c.name",
			[]string{"Hash Join (examined=4000 returned=4000 "}},
	} {
		res, err := s.Exec("EXPLAIN ANALYZE " + c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var plan strings.Builder
		for _, row := range res.Rows {
			plan.WriteString(row[0].String() + "\n")
		}
		for _, want := range append(c.want, "Hash Cond: (c.custid = p.custid)") {
			if !strings.Contains(plan.String(), want) {
				t.Errorf("%s\nwant %q in:\n%s", c.sql, want, plan.String())
			}
		}
		if strings.Contains(plan.String(), "Seq Scan") != (c.sql != ordersStatements[1].sql) {
			t.Errorf("%s: a sequential scan where none is wanted, or the other way round:\n%s", c.sql, plan.String())
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Exec(ordersStatements[1].sql); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("spend report: %.0f allocations", allocs)
	if allocs > 65 {
		t.Errorf("spend report over orders:200:20:1: %.0f allocations, want at most 65 (160 while the join copied each pair it kept, 4 207 in the nested loop)", allocs)
	}
}

// TestOrdersStatementAllocations gates what BenchmarkOrdersStatements'
// exec/ rows print as B/op and allocs/op: each statement of orders.d2w,
// run in texts the parse cache finds by their shape, within a ceiling of
// allocations and bytes. The spend report was 162 allocations and 17 KB
// while its join copied each pair it kept and its grouping built a string
// key per row.
func TestOrdersStatementAllocations(t *testing.T) {
	s := ordersSession(t)
	ceilings := map[string]struct{ allocs, bytes float64 }{
		"products": {37, 3200},
		"spend":    {69, 6000},
		"ship":     {37, 3300},
		"shipped":  {26, 1800},
	}
	for _, st := range ordersStatements {
		texts := ordersTexts(st.sql, 2048)
		i := 0
		run := func() {
			if _, err := s.Exec(texts[i%len(texts)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		run()
		const runs = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %.0f bytes", st.name, allocs, bytes)
		if c := ceilings[st.name]; allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.0f allocations and %.0f bytes a statement, want at most %.0f and %.0f",
				st.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// ordersTexts returns n distinct texts of the statement of one shape, as
// orders_mixed sends them: each of the 200 customers, other products and
// prefixes, and — since there are only 200 spend reports — the head
// keyword followed by more spaces every 200 texts.
func ordersTexts(sql string, n int) []string {
	out := make([]string, n)
	for i := range out {
		r := strings.NewReplacer("14200", fmt.Sprint(10000+100*(i%200)), "1234", fmt.Sprint(1+i%4000),
			"'bik%'", fmt.Sprintf("'%c%d%%'", 'a'+i%26, i))
		out[i] = strings.Replace(r.Replace(sql), " ", strings.Repeat(" ", 1+i/200), 1)
	}
	return out
}

// BenchmarkOrdersStatements runs each statement of orders.d2w in 2 048
// distinct texts, each execution finding its cached shape by the one pass
// over its text, as under orders_mixed. shape/ stops there — StatementFacts, what
// the query cache asks of a statement first — and exec/ runs it.
func BenchmarkOrdersStatements(b *testing.B) {
	db := ordersDB(b)
	s := sqldb.NewSession(db)
	for _, st := range ordersStatements {
		texts := ordersTexts(st.sql, 2048)
		b.Run("shape/"+st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if f := db.StatementFacts(texts[i%len(texts)]); f.Digest == "" {
					b.Fatal("no shape")
				}
			}
		})
		b.Run("exec/"+st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(texts[i%len(texts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpendStatement is the spend report alone, in one text: the join
// and its scans, with the statement found in the shape map.
func BenchmarkSpendStatement(b *testing.B) {
	s := ordersSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := s.Exec(ordersStatements[1].sql); err != nil || len(res.Rows) != 1 {
			b.Fatal(res, err)
		}
	}
}
