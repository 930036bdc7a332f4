package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The reference shape: the token path the shaper replaced — lex the whole
// text, rewrite the token slice with its literals extracted, render the
// rewrite — kept as the specification the one-pass shaper is compared
// against, as eval_test.go keeps the tree walker.

// referenceParamize rewrites toks with every string and number literal
// replaced by a ? parameter, returning the extracted values in parameter
// order; ok is false when the statement takes the literal path. It looks
// ahead: ORDER opens an ordinal list when BY follows, a type keyword a
// type suffix when ( follows.
func referenceParamize(toks []token) ([]token, []Value, bool) {
	if len(toks) == 0 || toks[0].kind != tkKeyword || !paramizableHeads[toks[0].text] {
		return nil, nil, false
	}
	out := make([]token, 0, len(toks))
	var vals []Value
	depth := 0
	var orderDepths []int
	typeParen := -1
	for i, t := range toks {
		switch t.kind {
		case tkParam:
			return nil, nil, false
		case tkOp:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if typeParen >= 0 && depth < typeParen {
					typeParen = -1
				}
				for n := len(orderDepths); n > 0 && depth < orderDepths[n-1]; n = len(orderDepths) {
					orderDepths = orderDepths[:n-1]
				}
			case ";":
				orderDepths = orderDepths[:0]
			}
		case tkKeyword:
			switch t.text {
			case "ORDER":
				if i+1 < len(toks) && toks[i+1].kind == tkKeyword && toks[i+1].text == "BY" {
					orderDepths = append(orderDepths, depth)
				}
			case "LIMIT", "OFFSET", "FETCH", "UNION":
				if n := len(orderDepths); n > 0 && orderDepths[n-1] == depth {
					orderDepths = orderDepths[:n-1]
				}
			default:
				if typeKeywords[t.text] && i+1 < len(toks) &&
					toks[i+1].kind == tkOp && toks[i+1].text == "(" {
					typeParen = depth + 1
				}
			}
		case tkNumber:
			inOrder := len(orderDepths) > 0 && depth >= orderDepths[len(orderDepths)-1]
			inType := typeParen >= 0 && depth >= typeParen
			if !inOrder && !inType {
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

// checkShape compares the shaper with the reference on one statement: the
// same lex error, the same bypass decision, and on the shape path a
// byte-identical key, identical values, and — what a miss parses — the
// same rewritten tokens.
func checkShape(t *testing.T, sql string) {
	t.Helper()
	toks, lexErr := lexSQL(sql)
	var sh shaper
	ok, err := sh.shapeText(sql)
	if (err != nil) != (lexErr != nil) {
		t.Fatalf("%q: one-pass lex error %v, reference %v", sql, err, lexErr)
	}
	if lexErr != nil {
		return
	}
	wantToks, wantVals, wantOK := referenceParamize(toks)
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

// shapeHandCases are the places the two passes could part: ordinals
// beside LIMIT, type suffixes, UNION inside parentheses, quote escapes,
// comments, caller parameters, non-ASCII identifiers, keyword case.
var shapeHandCases = []string{
	"SELECT name FROM t ORDER BY 2 LIMIT 5",
	"SELECT name FROM t ORDER BY 2 OFFSET 3 FETCH FIRST 4 ROWS ONLY",
	"SELECT name FROM t WHERE id = 3 ORDER BY 1, 2 DESC LIMIT 5",
	"SELECT CAST(x AS VARCHAR(10)) FROM t WHERE id = 5",
	"SELECT CAST(x AS DECIMAL(10, 2)), CAST(y AS FLOAT(3)) FROM t WHERE 1 = 1",
	"SELECT CAST(x AS CHARACTER (4)) , VARCHAR (7) FROM t",
	"SELECT VARCHAR FROM t WHERE (VARCHAR) = (1)",
	"SELECT a FROM (SELECT a FROM t ORDER BY 1 UNION SELECT 2) s ORDER BY 1",
	"SELECT a FROM t WHERE a IN (SELECT b FROM u ORDER BY 1) AND c = 4 ORDER BY (a + 1), 2",
	"(SELECT 1 UNION SELECT 2) ORDER BY 1",
	"SELECT 1 FROM t ORDER BY 1; SELECT 2 FROM t",
	"SELECT 'it''s' FROM t WHERE b = '' AND c = ''''",
	"SELECT \"quoted \"\"ident\"\"\" FROM \"t\"\"\" WHERE \"x\" = 'y'",
	"SELECT /* 1 */ a -- 2\n FROM t /* ' */ WHERE a = 3 -- '",
	"-- head comment\nSELECT a FROM t WHERE a = 9",
	"SELECT a FROM t WHERE a = ? AND b = 'x'",
	"SELECT a FROM t WHERE a = 'x' AND b = ?",
	"SELECT naïve, 名前, Ärger FROM tåble WHERE ünï = 'ö' AND µ = 1.5e3",
	"SELECT ſelect, ıd FROM t",
	"sElEcT a FrOm t wHeRe a = 1 OrDeR bY 1 lImIt 2",
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
		checkShape(t, sql)
		// And with its head in lower case and its literals grown, which
		// moves every later token.
		checkShape(t, strings.Replace(strings.ToLower(sql), "1", "1234.5e1", 3))
	}
}

// FuzzShapeKey compares the one-pass shaper with the reference token path
// on whatever the fuzzer produces.
func FuzzShapeKey(f *testing.F) {
	for _, sql := range shapeHandCases {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		checkShape(t, sql)
	})
}

// raceDetector is set in a build with the race detector (race_test.go).
var raceDetector bool

// TestShapePassAllocations: finding a cached shape builds nothing but the
// values it extracts — no token slice, no key string.
func TestShapePassAllocations(t *testing.T) {
	spend := shapeHandCases[len(shapeHandCases)-3]
	sh := new(shaper)
	allocs := testing.AllocsPerRun(50, func() {
		if ok, err := sh.shapeText(spend); !ok || err != nil {
			t.Fatal(ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("the shape pass over the spend statement: %.0f allocations, want 0", allocs)
	}
	if raceDetector {
		return
	}
	db := NewDatabase("alloc")
	s := NewSession(db)
	mustExec(t, s, "CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR(20))")
	mustExec(t, s, "CREATE TABLE products (prodid INTEGER PRIMARY KEY, custid INTEGER, product_name VARCHAR(20), price DOUBLE, qty INTEGER)")
	db.StatementFacts(spend)
	// A text the exact-text tier does not hold, of a cached shape: the
	// values, and the text entry that remembers them.
	texts := make([]string, 51)
	for i := range texts {
		texts[i] = strings.Replace(spend, "14200", fmt.Sprint(i), 1)
	}
	i := 0
	allocs = testing.AllocsPerRun(50, func() {
		if e, _ := db.plans.resolve(texts[i]); e == nil {
			t.Fatal("the spend statement did not resolve")
		}
		i++
	})
	if allocs > 4 {
		t.Errorf("resolving a new text of a cached shape: %.0f allocations, want at most 4", allocs)
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
	// perByte is the least time per byte over runs of run on sql, each on a
	// database newDB built that has not seen sql.
	perByte := func(sql string, runs int, newDB func() *Database, run func(*Database, string) error) float64 {
		best := time.Duration(1 << 62)
		for i := 0; i < runs; i++ {
			db := newDB()
			start := time.Now()
			err := run(db, sql)
			if d := time.Since(start); d < best {
				best = d
			}
			if err != nil {
				t.Fatalf("%.40q…: %v", sql, err)
			}
		}
		return float64(best) / float64(len(sql))
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
		perByte(large, 1, c.newDB, c.run) // warm the heap
		ps, pl := perByte(small, 20, c.newDB, c.run), perByte(large, 3, c.newDB, c.run)
		t.Logf("%s: %.2f ns/byte at %d bytes, %.2f at %d", c.name, ps, len(small), pl, len(large))
		if pl > 3*ps {
			t.Errorf("%s: %.2f ns/byte at %d bytes against %.2f at %d: more than 3×", c.name, pl, len(large), ps, len(small))
		}
	}
}
