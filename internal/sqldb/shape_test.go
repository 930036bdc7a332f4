package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The reference shape: the token path the shaper replaced — lex the whole
// text, rewrite the token slice with its literals extracted, render the
// rewrite — kept as the specification the one-pass shaper is compared
// against, as eval_test.go keeps the tree walker.

// referenceParamize rewrites toks with every string and number literal
// replaced by a ? parameter, returning the values of the parameters in
// order — an extracted literal's, or for a ? of the text the next of args
// while there is one; ok is false when the statement takes the literal
// path. It looks ahead: ORDER opens the ordinal list, to the end of the
// text, when BY follows.
func referenceParamize(toks []token, args []Value) ([]token, []Value, bool) {
	if len(toks) == 0 || toks[0].kind != tkKeyword || !paramizableHeads[toks[0].text] {
		return nil, nil, false
	}
	out := make([]token, 0, len(toks))
	var vals []Value
	order, holes := false, 0
	for i, t := range toks {
		switch t.kind {
		case tkParam:
			if holes < len(args) {
				vals = append(vals, args[holes])
			}
			holes++
		case tkKeyword:
			if t.text == "ORDER" && i+1 < len(toks) && toks[i+1].kind == tkKeyword && toks[i+1].text == "BY" {
				order = true
			}
		case tkNumber:
			if !order {
				vals = append(vals, t.num)
				out = append(out, token{kind: tkParam, text: "?", pos: t.pos})
				continue
			}
		case tkString:
			vals = append(vals, NewString(t.text))
			out = append(out, token{kind: tkParam, text: "?", pos: t.pos})
			continue
		}
		out = append(out, t)
	}
	return out, vals, true
}

// referenceShapeKey renders a token stream after extraction, one space
// before every token, identifiers quoted.
func referenceShapeKey(ptoks []token) string {
	var sb strings.Builder
	for _, t := range ptoks {
		if t.kind == tkEOF {
			break
		}
		sb.WriteByte(' ')
		if t.kind == tkIdent {
			sb.WriteByte('"')
			sb.WriteString(strings.ReplaceAll(t.text, `"`, `""`))
			sb.WriteByte('"')
		} else {
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}

// checkShape compares the shaper with the reference on one statement and
// the caller's arguments: the same lex error, the same count of ?, the
// same bypass decision, and on the shape path a byte-identical key,
// identical values, and — what a miss parses — the same rewritten tokens.
func checkShape(t *testing.T, sql string, args []Value) {
	t.Helper()
	toks, lexErr := lexSQL(sql)
	var sh shaper
	ok, err := sh.shapeText(sql, args)
	if (err != nil) != (lexErr != nil) {
		t.Fatalf("%q: one-pass lex error %v, reference %v", sql, err, lexErr)
	}
	if lexErr != nil {
		return
	}
	holes := 0
	for _, tk := range toks {
		if tk.kind == tkParam {
			holes++
		}
	}
	if sh.holes != holes {
		t.Fatalf("%q: one pass counted %d ?, the text has %d", sql, sh.holes, holes)
	}
	wantToks, wantVals, wantOK := referenceParamize(toks, args)
	if ok != wantOK {
		t.Fatalf("%q: one pass ok=%v, reference %v", sql, ok, wantOK)
	}
	if !ok {
		return
	}
	if got, want := string(sh.key), referenceShapeKey(wantToks); got != want {
		t.Fatalf("%q: key\n got %q\nwant %q", sql, got, want)
	}
	if got := sh.values(); !reflect.DeepEqual(got, wantVals) {
		t.Fatalf("%q: values\n got %#v\nwant %#v", sql, got, wantVals)
	}
	ptoks, ok := sh.shapeTokens(toks)
	if !ok || !reflect.DeepEqual(ptoks, wantToks) {
		t.Fatalf("%q: rewritten tokens\n got %v\nwant %v", sql, ptoks, wantToks)
	}
}

// shapeArgs are the caller's arguments the hand cases are shaped with:
// fewer than some of them have ?.
var shapeArgs = []Value{NewInt(41), NewString("a'b"), Null}

// shapeHandCases are the places the two passes could part: ordinals,
// parentheses, quote escapes, comments, caller parameters, non-ASCII
// identifiers, keyword case, and SQL the parser refuses (CAST, BETWEEN),
// which is shaped all the same.
var shapeHandCases = []string{
	"SELECT name FROM t ORDER BY 2",
	"SELECT name FROM t WHERE id = 3 ORDER BY 1, 2 DESC",
	"SELECT CAST(x AS VARCHAR(10)) FROM t WHERE id = 5",
	"SELECT CAST(x AS DECIMAL(10, 2)), CAST(y AS FLOAT(3)) FROM t WHERE 1 = 1",
	"SELECT CAST(x AS CHARACTER (4)) , VARCHAR (7) FROM t",
	"SELECT VARCHAR FROM t WHERE (VARCHAR) = (1)",
	"SELECT a FROM t WHERE a IN (4, 5) AND c = 4 ORDER BY (a + 1), 2",
	"SELECT a FROM t WHERE a IN (1, 2) ORDER BY (2), 1",
	"SELECT a FROM t GROUP BY a ORDER BY 1 DESC",
	"SELECT CAST(a AS VARCHAR(3)) FROM t ORDER BY 1",
	"SELECT 1 FROM t ORDER BY 1; SELECT 2 FROM t",
	"SELECT 'it''s' FROM t WHERE b = '' AND c = ''''",
	"SELECT \"quoted \"\"ident\"\"\" FROM \"t\"\"\" WHERE \"x\" = 'y'",
	"SELECT /* 1 */ a -- 2\n FROM t /* ' */ WHERE a = 3 -- '",
	"-- head comment\nSELECT a FROM t WHERE a = 9",
	"SELECT a FROM t WHERE a = ? AND b = 'x'",
	"SELECT a FROM t WHERE a = 'x' AND b = ?",
	"SELECT a FROM t WHERE a = ? AND b = 'x' AND c = ? AND d = 2 AND e = ?",
	"SELECT a, b FROM t WHERE c = ? ORDER BY ?, 2",
	"INSERT INTO t VALUES (?, ?, ?, ?)",
	"UPDATE t SET a = ? WHERE b = 'q' AND c = ?",
	"EXPLAIN SELECT * FROM t WHERE id = ? AND b = 1",
	"? SELECT a FROM t",
	"SELECT naïve, 名前, Ärger FROM tåble WHERE ünï = 'ö' AND µ = 1.5e3",
	"SELECT ſelect, ıd FROM t",
	"sElEcT a FrOm t wHeRe a = 1 OrDeR bY 1",
	"select a from t where a like 'x%' order by 1 desc",
	"INSERT INTO t VALUES (1, 'a', 2.5, -3, .5, 1e-3)",
	"UPDATE t SET a = a + 1 WHERE b = 'q' AND c IN (1, 2, 3)",
	"DELETE FROM t WHERE a BETWEEN 1 AND 2",
	"EXPLAIN SELECT * FROM t WHERE id = 1",
	"CREATE TABLE t (a VARCHAR(10), b DECIMAL(5, 2))",
	"",
	";",
	"SELECT 99999999999999999999 FROM t",
	"SELECT a FROM t WHERE a = 'unterminated",
	"SELECT \"unterminated FROM t",
	"SELECT a FROM t WHERE a = 1 ORDER BY",
	"SELECT a FROM t ORDER BY ORDER BY 1",
	"SELECT a FROM t ORDER  /* x */  BY 1",
	"SELECT a FROM t ORDER 1 BY 2",
	"SELECT x FROM t )) ORDER BY 1 ) 2",
	"SELECT p.product_name, p.price, p.qty FROM products p WHERE p.custid = 14200 AND p.product_name LIKE 'bik%' ORDER BY p.product_name",
	"SELECT c.name, COUNT(*) AS items, ROUND(SUM(p.price * p.qty), 2) AS total FROM customers c JOIN products p ON c.custid = p.custid WHERE p.custid = 14200 GROUP BY c.name ORDER BY c.name",
	"UPDATE products SET qty = qty + 1 WHERE prodid = 1234",
	"SELECT prodid, qty FROM products WHERE prodid = 1234",
}

var (
	// sqlSection is the text of a macro's %SQL section up to its first
	// subsection or its end.
	sqlSection = regexp.MustCompile(`(?s)%SQL(?:\([^)]*\))?\{(.*?)(?:%SQL_|%\})`)
	macroVar   = regexp.MustCompile(`\$\([^)]*\)`)
)

// macroStatements returns the statement of every %SQL section of the
// macros of testdata/, benchmark/macros and examples/, its variable
// references replaced by a number, and every statement of the SQL scripts
// of testdata/: what the shaper sees of the corpus, lexically.
func macroStatements(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	var files []string
	for _, pat := range []string{"testdata/macros/*.d2w", "testdata/lint/*.d2w", "testdata/lint/*.hti",
		"benchmark/macros/*/*.d2w", "examples/*/main.go", "testdata/*.sql"} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	var out []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f, ".sql") {
			out = append(out, strings.Split(string(src), ";")...)
			continue
		}
		for _, m := range sqlSection.FindAllStringSubmatch(string(src), -1) {
			out = append(out, macroVar.ReplaceAllString(m[1], "7"))
		}
	}
	if len(out) < 30 {
		t.Fatalf("the macro corpus has %d statements", len(out))
	}
	return out
}

// TestShapeMatchesReference: over the macro corpora, the planner's corpora,
// 3 000 generated statements and the hand cases, the one-pass shaper and
// the token path it replaced agree on every key, value and decision.
func TestShapeMatchesReference(t *testing.T) {
	stmts := append(macroStatements(t), shapeHandCases...)
	stmts = append(stmts, planCorpus...)
	stmts = append(stmts, explainShapes...)
	g := &planGen{r: rand.New(rand.NewSource(1)), nextID: 200}
	for i := 0; i < 3000; i++ {
		stmts = append(stmts, g.next().sql)
	}
	for _, sql := range stmts {
		checkShape(t, sql, shapeArgs)
		// And with its head in lower case and its literals grown, which
		// moves every later token, and no arguments.
		checkShape(t, strings.Replace(strings.ToLower(sql), "1", "1234.5e1", 3), nil)
	}
}

// FuzzShapeKey compares the one-pass shaper with the reference token path
// on whatever the fuzzer produces.
func FuzzShapeKey(f *testing.F) {
	for _, sql := range shapeHandCases {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkShape(t, sql, shapeArgs)
	})
}

// TestShapePassAllocations: finding a cached shape builds nothing but the
// values it extracts — no token slice, no key string.
func TestShapePassAllocations(t *testing.T) {
	spend := shapeHandCases[len(shapeHandCases)-3]
	sh := new(shaper)
	allocs := testing.AllocsPerRun(50, func() {
		if ok, err := sh.shapeText(spend, nil); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("the shape pass over the spend statement: %.0f allocations, want 0", allocs)
	}
	db := NewDatabase("alloc")
	s := NewSession(db)
	mustExec(t, s, "CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR(20))")
	mustExec(t, s, "CREATE TABLE products (prodid INTEGER PRIMARY KEY, custid INTEGER, product_name VARCHAR(20), price DOUBLE, qty INTEGER)")
	db.StatementFacts(spend)
	// A new text of a cached shape: the values extracted from it.
	texts := make([]string, 51)
	for i := range texts {
		texts[i] = strings.Replace(spend, "14200", fmt.Sprint(i), 1)
	}
	i := 0
	allocs = testing.AllocsPerRun(50, func() {
		if f := db.plans.resolve(texts[i], nil); f.stmt == nil || f.args == nil {
			t.Fatal("the spend statement did not resolve")
		}
		i++
	})
	if allocs > 1 {
		t.Errorf("resolving a new text of a cached shape: %.0f allocations, want at most 1", allocs)
	}
	// A text of ? alone binds the caller's arguments as they are.
	insert := "INSERT INTO products VALUES (?, ?, ?, ?, ?)"
	args := []Value{NewInt(1), NewInt(14200), NewString("bikes"), NewFloat(1.5), NewInt(2)}
	db.plans.resolve(insert, args)
	allocs = testing.AllocsPerRun(50, func() {
		if f := db.plans.resolve(insert, args); f.stmt == nil || len(f.args) != len(args) {
			t.Fatal("the insert did not resolve")
		}
	})
	if allocs != 0 {
		t.Errorf("resolving a cached shape of ? with arguments: %.0f allocations, want 0", allocs)
	}
}

// TestResolveCostIsLinear: a statement as long as a POSTed form may be
// (the gateway's maxBodyBytes, 1 MiB) — an IN list of 100 000 literals, a
// string literal of 1 MiB — costs no more per byte to resolve and parse
// than one of 10 KB, within a factor of 3: nothing on the path is
// quadratic in the length of the text. Run through Session.Exec against a
// two-row table with an index on the compared column, the same holds for
// the whole statement, planning and executing included, and for a
// LIKE '%…%' pattern as long.
func TestResolveCostIsLinear(t *testing.T) {
	const maxBody = 1 << 20
	inList := func(n int) string {
		var sb strings.Builder
		sb.WriteString("SELECT a FROM t WHERE a IN (")
		for i := 0; sb.Len() < n-20; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprint(&sb, 1000000+i%8999999)
		}
		sb.WriteString(")")
		return sb.String()
	}
	strLit := func(n int) string {
		return "SELECT a FROM t WHERE b = '" + strings.Repeat("x", n-40) + "'"
	}
	like := func(n int) string {
		return "SELECT a FROM t WHERE b LIKE '%" + strings.Repeat("x", n-40) + "%'"
	}
	empty := func() *Database { return NewDatabase("cost") }
	twoRows := func() *Database {
		db := NewDatabase("cost")
		s := NewSession(db)
		for _, sql := range []string{
			"CREATE TABLE t (a INTEGER, b VARCHAR(20))",
			"CREATE INDEX t_a ON t (a)",
			"CREATE INDEX t_b ON t (b)",
			"INSERT INTO t VALUES (1000001, 'x'), (2, 'xx')",
		} {
			mustExec(t, s, sql)
		}
		return db
	}
	resolve := func(db *Database, sql string) error {
		if !db.StatementFacts(sql).Cacheable {
			return errors.New("did not resolve to a parse")
		}
		return nil
	}
	exec := func(db *Database, sql string) error {
		_, err := NewSession(db).Exec(sql)
		return err
	}
	// cost is the least CPU time per byte of run on each text: each size
	// run as often as the other, in alternation, each on a database newDB
	// built that has not seen its text. The time is the process's CPU time,
	// not the clock's, and each size has as many chances at its best time,
	// so that what else the machine runs beside the test — CI's parallel
	// -race packages — weighs on neither size alone. The
	// collector is off while a run is timed and runs between the runs: a
	// large run would otherwise pay for its collections, where a small one
	// mostly pays for none.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cost := func(small, large string, newDB func() *Database, run func(*Database, string) error) (ps, pl float64) {
		best := map[string]time.Duration{small: 1 << 62, large: 1 << 62}
		once := func(sql string) {
			db := newDB()
			runtime.GC()
			start := cpuTime(t)
			err := run(db, sql)
			if d := cpuTime(t) - start; d < best[sql] {
				best[sql] = d
			}
			if err != nil {
				t.Fatalf("%.40q…: %v", sql, err)
			}
		}
		once(large) // warm the heap
		for round := 0; round < 6; round++ {
			once(small)
			once(large)
		}
		return float64(best[small]) / float64(len(small)), float64(best[large]) / float64(len(large))
	}
	for _, c := range []struct {
		name  string
		gen   func(int) string
		newDB func() *Database
		run   func(*Database, string) error
	}{
		{"resolve: IN list", inList, empty, resolve},
		{"resolve: string literal", strLit, empty, resolve},
		{"exec: IN list", inList, twoRows, exec},
		{"exec: string literal", strLit, twoRows, exec},
		{"exec: LIKE pattern", like, twoRows, exec},
	} {
		small, large := c.gen(10<<10), c.gen(maxBody)
		if len(large) > maxBody || len(large) < maxBody-64 {
			t.Fatalf("%s: %d bytes, want about %d", c.name, len(large), maxBody)
		}
		ps, pl := cost(small, large, c.newDB, c.run)
		t.Logf("%s: %.2f ns/byte at %d bytes, %.2f at %d", c.name, ps, len(small), pl, len(large))
		if pl > 3*ps {
			t.Errorf("%s: %.2f ns/byte at %d bytes against %.2f at %d: more than 3×", c.name, pl, len(large), ps, len(small))
		}
	}
}

// cpuTime is the CPU time the process has used so far, in user and
// kernel mode, over all its threads.
func cpuTime(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
