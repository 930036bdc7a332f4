package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"db2www/internal/sqldb"
	datasets "db2www/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// Median over rounds of the per-round median, as lat_p50_ms is built.
	roundsMS := [][]float64{{1, 2, 9}, {3, 3, 3}, {1, 1, 8}}
	var per []float64
	for _, r := range roundsMS {
		per = append(per, median(r))
	}
	if got := median(per); got != 2 {
		t.Errorf("median of round medians = %v, want 2", got)
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 99.9: 999, 100: 1000, 0.01: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// The expected values are what Python prints for
// q = statistics.quantiles(v, n=4); (q[2]-q[0]) / statistics.median(v).
func TestIQRShareMatchesPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{5, 9}, 0.8571428571428571},
		{[]float64{1, 2, 3, 4, 100}, 16.833333333333332},
	} {
		if got := iqrShare(c.v); !near(got, c.want) {
			t.Errorf("iqrShare(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestMiddleHalf(t *testing.T) {
	got := middleHalf([]float64{80, 10, 50, 30, 70, 20, 60, 40})
	want := []int{3, 7, 2, 6} // the values 30 40 50 60
	if !reflect.DeepEqual(got, want) {
		t.Errorf("middleHalf = %v, want %v", got, want)
	}
	if got := middleHalf([]float64{7}); len(got) != 1 {
		t.Errorf("middleHalf of one value = %v, want that value", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tree := []span{
		{ID: 1, Name: spanHTTP, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanHandler, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: spanApp, Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: spanConnect, Start: 25, End: 30},
		{ID: 5, Parent: 3, Name: spanExecute, Start: 30, End: 60},
		{ID: 6, Parent: 3, Name: spanExecute, Start: 62, End: 70},
		{ID: 7, Parent: 3, Name: spanClose, Start: 75, End: 76},
	}
	self, root, err := selfByName(tree)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{spanHTTP: 20, spanHandler: 20, spanApp: 16, spanConnect: 5, spanExecute: 38, spanClose: 1}
	if !reflect.DeepEqual(self, want) || root != 100 {
		t.Errorf("self times %v root %d, want %v root 100", self, root, want)
	}
	sum := int64(0)
	for _, ns := range self {
		sum += ns
	}
	if sum != root {
		t.Errorf("self times sum to %d, the root lasts %d", sum, root)
	}

	broken := map[string][]span{
		"overlap": {
			{ID: 1, Name: spanHTTP, Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: spanExecute, Start: 10, End: 50},
			{ID: 3, Parent: 1, Name: spanExecute, Start: 40, End: 60},
		},
		"not inside": {
			{ID: 1, Name: spanHTTP, Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: spanHandler, Start: 10, End: 120},
		},
		"root spans": {
			{ID: 1, Name: spanHTTP, Start: 0, End: 100},
			{ID: 2, Name: spanHTTP, Start: 0, End: 100},
		},
		"not recorded": {
			{ID: 1, Name: spanHTTP, Start: 0, End: 100},
			{ID: 3, Parent: 2, Name: spanApp, Start: 10, End: 20},
		},
		"ends before": {
			{ID: 1, Name: spanHTTP, Start: 100, End: 0},
		},
	}
	for why, spans := range broken {
		if _, _, err := selfTimes(spans); err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("%s: selfTimes error = %v, want one that says %q", why, err, why)
		}
	}
}

func TestTracerBuildsTheTree(t *testing.T) {
	tr := newTracer()
	tr.setEnabled(true)
	root := tr.begin(spanHTTP, "bench-1")
	h := tr.begin(spanHandler, "bench-1")
	e := tr.begin(spanExecute, "bench-1")
	tr.end(e, "SELECT 1", 1)
	tr.noteStatement("SELECT 1", nil)
	tr.end(h, "", 0)
	tr.end(root, "", 0)
	if len(tr.done) != 1 || tr.mismatch != 0 {
		t.Fatalf("%d requests done, %d mismatches, want 1 and 0", len(tr.done), tr.mismatch)
	}
	r := tr.done[0]
	if got := []int{r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent}; !reflect.DeepEqual(got, []int{0, root, h}) {
		t.Errorf("parents %v, want [0 %d %d]", got, root, h)
	}
	if r.spans[2].SQL != "SELECT 1" || r.spans[2].Rows != 1 || !reflect.DeepEqual(r.stmts, []string{"SELECT 1"}) {
		t.Errorf("statement not recorded: %+v, stmts %v", r.spans[2], r.stmts)
	}
	tr.begin(spanHTTP, "bench-2")
	tr.begin(spanHandler, "some-other-id")
	if tr.mismatch != 1 {
		t.Errorf("a span under another trace ID counted %d mismatches, want 1", tr.mismatch)
	}
}

// testSpace is a space of the right shape for a generator; the
// generators look only at its length and hand out its elements.
func testSpace(t *testing.T, w *workload) []request {
	t.Helper()
	n := 0
	switch w.name {
	case "appendixa_search", "big_report":
		space, err := w.space(nil)
		if err != nil {
			t.Fatal(err)
		}
		return space
	case "point_lookup":
		n = 2000
	default:
		n = 200 * (len(productPrefixes) + 1)
	}
	space := make([]request, n)
	for i := range space {
		space[i].path = strconv.Itoa(i)
	}
	return space
}

func draw(w *workload, space []request, seed int64, conn, n int) []op {
	next := w.generator(connRand(seed, conn), conn, space)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = next()
	}
	return ops
}

func TestGeneratorsAreAFunctionOfSeedAndConnection(t *testing.T) {
	for _, w := range workloads {
		space := testSpace(t, w)
		a, b := draw(w, space, 7, 0, 500), draw(w, space, 7, 0, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed and connection gave two sequences", w.name)
		}
		if len(space) == 1 {
			continue
		}
		if reflect.DeepEqual(a, draw(w, space, 8, 0, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave one sequence", w.name)
		}
		if reflect.DeepEqual(a, draw(w, space, 7, 1, 500)) {
			t.Errorf("%s: connections 0 and 1 gave one sequence", w.name)
		}
	}
}

func TestAppendixASpaceFitsThePlanCacheTextMap(t *testing.T) {
	space, _ := appendixASpace(nil)
	if len(space) != 40 {
		t.Errorf("%d requests, want 10 fragments × 4 forms", len(space))
	}
	seen := map[string]bool{}
	for _, r := range space {
		seen[r.body] = true
	}
	if len(seen) != len(space) {
		t.Errorf("only %d of %d requests are distinct", len(seen), len(space))
	}
}

func TestOrdersMixAndShipParity(t *testing.T) {
	w := workloadByName("orders_mixed")
	space := testSpace(t, w)
	searches := 200 * len(productPrefixes)
	for conn := 0; conn < 2; conn++ {
		var search, spend, ship int
		for _, o := range draw(w, space, 3, conn, 20000) {
			switch {
			case o.ship > 0:
				ship++
				if o.ship%2 != conn || o.ship < 1 || o.ship > 4000 {
					t.Fatalf("connection %d ships product %d", conn, o.ship)
				}
			case o.req == nil:
				t.Fatal("an operation that is neither a request nor a ship")
			default:
				// Index of the request in the space, from its address.
				i := 0
				for i < len(space) && &space[i] != o.req {
					i++
				}
				if i < searches {
					search++
				} else {
					spend++
				}
			}
		}
		for name, c := range map[string][2]int{"search": {search, 12000}, "spend": {spend, 4000}, "ship": {ship, 4000}} {
			if d := c[0] - c[1]; d < -400 || d > 400 {
				t.Errorf("connection %d: %d %s operations of 20000, want about %d", conn, c[0], name, c[1])
			}
		}
	}
}

func TestCheckerCountsShips(t *testing.T) {
	c := newChecker(workloadByName("orders_mixed"), map[int]int{6: 40})
	page := func(qty string) []byte {
		return []byte("<TITLE>Order Search Result</TITLE>\n<P>1 row(s) affected.</P>\n<P>Product 6 now has qty " + qty + ".</P>\n")
	}
	if err := c.check(op{ship: 6}, 200, page("41")); err != nil {
		t.Errorf("first ship: %v", err)
	}
	if err := c.check(op{ship: 6}, 200, page("42")); err != nil {
		t.Errorf("second ship: %v", err)
	}
	if err := c.check(op{ship: 6}, 200, page("42")); err == nil {
		t.Error("a lost update passed the check")
	}
	if err := c.check(op{ship: 6}, 500, page("44")); err == nil {
		t.Error("status 500 passed the check")
	}
	search := &request{body: "sqlcmd=products", rows: 2}
	ok := []byte("<TITLE>Order Search Result</TITLE><TR><TD>a</TD></TR><TR><TD>b</TD></TR><P>2 product(s).</P>")
	if err := c.check(op{req: search}, 200, ok); err != nil {
		t.Errorf("a right product page: %v", err)
	}
	if err := c.check(op{req: search}, 200, bytes.Replace(ok, []byte("<TR><TD>b</TD></TR>"), nil, 1)); err == nil {
		t.Error("a page short of a row passed the check")
	}
}

func TestProcParsing(t *testing.T) {
	// The command name holds a space and a parenthesis; utime 1234, stime 56.
	stat := "4242 (gate wayd) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 7 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat(stat)
	if want := 12900 * time.Millisecond; err != nil || got != want {
		t.Errorf("parseProcStat = %v, %v, want %v", got, err, want)
	}
	if _, err := parseProcStat("4242 (gatewayd) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := "Name:\tgatewayd\nVmPeak:\t 1240000 kB\nVmHWM:\t   21504 kB\nVmRSS:\t   20000 kB\n"
	if kb, err := parseVmHWM(status); err != nil || kb != 21504 {
		t.Errorf("parseVmHWM = %d, %v, want 21504", kb, err)
	}
	if _, err := parseVmHWM("Name:\tgatewayd\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}

func TestURLQueryMacroIsTheRepositorys(t *testing.T) {
	ours, err := os.ReadFile(filepath.Join("macros", "urldb", "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := os.ReadFile(filepath.Join("..", "testdata", "macros", "urlquery.d2w"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ours, theirs) {
		t.Error("benchmark/macros/urldb/urlquery.d2w differs from testdata/macros/urlquery.d2w")
	}
}

// The default -lint warn preflight must find no error in a macro
// directory, or the real server never becomes ready.
func TestMacrosPassTheLintPreflight(t *testing.T) {
	for _, spec := range []struct{ dataset, dir string }{{"urldb:10:1", "urldb"}, {"orders:2:2:1", "orders"}} {
		db := sqldb.NewDatabase(databaseName)
		if err := datasets.Load(db, spec.dataset); err != nil {
			t.Fatal(err)
		}
		if _, err := lintPreflight(db, filepath.Join("macros", spec.dir)); err != nil {
			t.Error(err)
		}
	}
}

func TestBenchmarkJSONNamesWhatTheProgramHas(t *testing.T) {
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for _, d := range s.Workloads {
		if workloadByName(d.Name) == nil {
			t.Errorf("BENCHMARK.json names the workload %q, which the program does not have", d.Name)
		}
	}
	declared := map[string]bool{}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
	}
	for _, name := range budgetLayers {
		if !declared[name] {
			t.Errorf("the budget layer %s is not a per_layer metric of BENCHMARK.json", name)
		}
	}
}
