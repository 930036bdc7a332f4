package sqldb_test

import (
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

// ordersSession loads the benchmark's dataset, orders:200:20:1.
func ordersSession(tb testing.TB) *sqldb.Session {
	tb.Helper()
	db := sqldb.NewDatabase("CELDIAL")
	if err := workload.Orders(db, 200, 20, 1); err != nil {
		tb.Fatal(err)
	}
	return sqldb.NewSession(db)
}

// TestOrdersSpendHashJoin pins the plan of the spend report: the join
// probes the 20 products of one customer against a hash of customers and
// forms 20 pairs, where the nested loop formed 4 000 to keep 20; without
// the WHERE it forms one pair per product, not 800 000.
func TestOrdersSpendHashJoin(t *testing.T) {
	s := ordersSession(t)
	for _, c := range []struct{ sql, want string }{
		{ordersStatements[1].sql, "Hash Join (examined=20 returned=20 "},
		{"SELECT c.name, COUNT(*) FROM customers c JOIN products p ON c.custid = p.custid GROUP BY c.name",
			"Hash Join (examined=4000 returned=4000 "},
	} {
		res, err := s.Exec("EXPLAIN ANALYZE " + c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var plan strings.Builder
		for _, row := range res.Rows {
			plan.WriteString(row[0].String() + "\n")
		}
		if !strings.Contains(plan.String(), c.want) || !strings.Contains(plan.String(), "Hash Cond: (c.custid = p.custid)") {
			t.Errorf("%s\nwant %q with its Hash Cond in:\n%s", c.sql, c.want, plan.String())
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Exec(ordersStatements[1].sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 600 {
		t.Errorf("spend report over orders:200:20:1: %.0f allocations, want at most 600 (the nested loop made 4 207)", allocs)
	}
}

func BenchmarkOrdersStatements(b *testing.B) {
	s := ordersSession(b)
	for _, st := range ordersStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(st.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
