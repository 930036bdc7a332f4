package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// exprSite is one place of a statement an expression is evaluated in: the
// layout of the rows that reach it, some such rows, and whether an
// aggregate call there stands for its group's result (the projection and
// ORDER BY of a SELECT) or has no group (everywhere else).
type exprSite struct {
	cols    []envCol
	rows    [][]Value
	grouped bool
}

// sameValue compares two values as a report would show them, type
// included; NaN is then equal to itself.
func sameValue(a, b Value) bool {
	return a.T == b.T && valueSQL(a) == valueSQL(b)
}

// sameFailure reports whether two evaluations failed alike: neither, or
// both with one SQLSTATE.
func sameFailure(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var ea, eb *Error
	return errors.As(a, &ea) && errors.As(b, &eb) && ea.Code == eb.Code
}

// checkCompiled is the one differential check of the compiler: e compiled
// as a value and as a predicate answers, on every row of the site, what
// the reference evaluator answers — the same Value or the same SQLSTATE —
// and fails to compile exactly where the reference's bind fails. No value
// it answers is a DOUBLE that is not finite, which Compare could not
// order. It returns the number of evaluations compared.
func checkCompiled(t testing.TB, e Expr, site exprSite, params []Value) int {
	t.Helper()
	env := &evalEnv{cols: site.cols, params: params}
	var aggRow []Value
	c := compiler{cols: site.cols, params: params, aggRow: &aggRow}
	if site.grouped {
		c.aggs = appendAggregates(nil, e)
		// Any results will do, as long as both sides read the same ones.
		for i := range c.aggs {
			aggRow = append(aggRow, NewInt(int64(i)+2))
		}
		env.aggCalls, env.aggs = c.aggs, aggRow
	}
	c.aggArgs = newAggArgs(len(c.aggs))

	val, valErr := c.value(e)
	pred, predErr := c.pred(e)
	if want := bindErr(e, site.cols); !sameFailure(valErr, want) || !sameFailure(predErr, want) {
		t.Fatalf("%s: compiles with %v (value), %v (predicate); the reference binds with %v",
			exprString(e), valErr, predErr, want)
	}
	if valErr != nil {
		return 0
	}
	// Whatever the closure goes on to evaluate, the executor groups over
	// the argument of every aggregate call it was handed.
	for i, fc := range c.aggs {
		if !fc.Star && len(fc.Args) == 1 && c.aggArgs[i].uncompiled() {
			t.Fatalf("%s: compiled, and left the argument of %s uncompiled", exprString(e), exprString(fc))
		}
	}
	for _, row := range site.rows {
		env.row = row
		want, wantErr := eval(e, env)
		got, gotErr := val.eval(row)
		if !sameFailure(gotErr, wantErr) || (wantErr == nil && !sameValue(got, want)) {
			t.Fatalf("%s on %v: compiled value %s, %v; reference %s, %v",
				exprString(e), row, valueSQL(got), gotErr, valueSQL(want), wantErr)
		}
		if gotErr == nil && got.T == TFloat && !finite(got.Float()) {
			t.Fatalf("%s on %v: the DOUBLE %s, which no value may be", exprString(e), row, valueSQL(got))
		}
		truth, truthErr := pred(row)
		if !sameFailure(truthErr, wantErr) || (wantErr == nil && truth != triTruth(want)) {
			t.Fatalf("%s on %v: compiled predicate %d, %v; reference %s, %v",
				exprString(e), row, truth, truthErr, valueSQL(want), wantErr)
		}
	}
	return 2 * len(site.rows)
}

// siteOf builds the site of a FROM clause's expressions: the layout in
// declaration order, and a sample of the rows of the relations' product
// with an all-NULL row (what a LEFT join pads with) at the end. ok is
// false for a FROM clause with a table that does not exist.
func siteOf(vw view, from []TableRef) (site exprSite, ok bool) {
	var rels [][][]Value
	add := func(table string, alias string) bool {
		rp, err := vw.planRel(table, alias, 0)
		if err != nil {
			return false
		}
		rows, _ := vw.scanRows(rp, false)
		site.cols = append(site.cols, rp.cols...)
		rels = append(rels, rows)
		return true
	}
	for i := range from {
		if !add(from[i].Table, from[i].Alias) {
			return site, false
		}
		for _, jc := range from[i].Joins {
			if !add(jc.Table, jc.Alias) {
				return site, false
			}
		}
	}
	for k := 0; k < 12; k++ {
		var row []Value
		for i, rows := range rels {
			if len(rows) == 0 {
				return site, false
			}
			row = append(row, rows[(k*(2*i+1)+i)%len(rows)]...)
		}
		site.rows = append(site.rows, row)
	}
	site.rows = append(site.rows, make([]Value, len(site.cols)))
	return site, true
}

// checkStatement runs checkCompiled over every expression of st that is
// evaluated against rows: those of a SELECT, of an UPDATE's and DELETE's
// WHERE and SET, of an INSERT's VALUES.
func checkStatement(t testing.TB, vw view, st Stmt, params []Value) int {
	t.Helper()
	n := 0
	check := func(e Expr, site exprSite, grouped bool) {
		if e != nil {
			site.grouped = grouped
			n += checkCompiled(t, e, site, params)
		}
	}
	sel := func(s *SelectStmt) {
		site, ok := siteOf(vw, s.From)
		if !ok {
			return
		}
		for i := range s.From {
			for _, jc := range s.From[i].Joins {
				check(jc.On, site, false)
			}
		}
		check(s.Where, site, false)
		for _, g := range s.GroupBy {
			check(g, site, false)
		}
		for _, it := range s.Items {
			check(it.Expr, site, true)
		}
		for _, o := range s.OrderBy {
			check(o.Expr, site, true)
		}
	}
	switch x := st.(type) {
	case *SelectStmt:
		sel(x)
	case *UpdateStmt:
		if site, ok := siteOf(vw, []TableRef{{Table: x.Table, Alias: x.Alias}}); ok {
			check(x.Where, site, false)
			for _, set := range x.Set {
				check(set.Value, site, false)
			}
		}
	case *DeleteStmt:
		if site, ok := siteOf(vw, []TableRef{{Table: x.Table, Alias: x.Alias}}); ok {
			check(x.Where, site, false)
		}
	case *InsertStmt:
		for _, row := range x.Rows {
			for _, e := range row {
				check(e, exprSite{rows: [][]Value{nil}}, false)
			}
		}
	}
	return n
}

// TestCompiledMatchesReference holds the compiler against the reference
// evaluator on every expression of the plan corpus and of the 2 500
// statements planGen derives from the seeds TestPlanCacheByteIdentical
// uses, each on rows of the tables it reads.
func TestCompiledMatchesReference(t *testing.T) {
	s := NewSession(NewDatabase("ref"))
	planGenSeed(t, s)
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	vw, release := s.reader()
	defer release()

	var stmts []string
	stmts = append(stmts, planCorpus...)
	for seed := int64(1); seed <= 5; seed++ {
		g := &planGen{r: rand.New(rand.NewSource(seed)), nextID: 200}
		for i := 0; i < 500; i++ {
			stmts = append(stmts, g.next().sql)
		}
	}
	compared := 0
	for _, sql := range stmts {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		compared += checkStatement(t, vw, st, nil)
	}
	if compared < 20*len(stmts) {
		t.Fatalf("%d evaluations compared over %d statements: the test checks too little", compared, len(stmts))
	}
}

// compileSeeds are expressions over fuzzDB's t and u, chosen for what a
// closure can get wrong that comparing two plans' rows cannot show: both
// plans would run the same wrong closure.
var compileSeeds = []string{
	"FALSE AND 1/0 = 1",   // the right operand must not be evaluated
	"TRUE OR 1/0 = 1",     //
	"t.c = 10 OR 1/0 = 1", // ... on the rows the left one decides, only
	"NULL OR t.b = 'one'", // unknown OR true is true
	"NULL AND t.c = 10",   // unknown AND false is false
	"NOT (t.c = 10 AND u.a = 1)",
	"t.b LIKE NULL",            // a NULL pattern
	"t.b LIKE 2",               // a pattern that is no string
	"t.c LIKE '1%'",            // an operand that is no string
	"t.b LIKE ?",               // the literal the plan cache extracted
	"t.b NOT LIKE ?",           //
	"t.b LIKE 'x!'",            // '!' is text
	"u.y LIKE t.b",             // a pattern that changes from row to row
	"u.y NOT LIKE t.b",         //
	"t.b LIKE u.y",             //
	"t.b LIKE 'T%' OR t.b = ?", //
	"LENGTH(t.b) LIKE '3%'",
	"t.a = 3", "3 < t.a", "'2' >= t.a", "t.b = 5", "t.c <> NULL", "t.b < 'p'", "t.a = ?", "? > t.c",
	"1 < 2", "? >= 'a'", "3 > NULL", // no column on either side
	"t.a = u.a", "t.a + u.x > t.c / 2", "t.c % (t.a - 3)",
	"t.c >= 10 AND t.c <= u.x * 5", "NOT (t.b >= 'a' AND t.b <= 'p')",
	"t.c IN (10, NULL)", "t.c NOT IN (10, NULL)", "t.a IN (1, 1/0)", "t.b IN ('one', u.y)",
	"t.a IN (u.a, u.x)", "t.a NOT IN (u.a, NULL)", "t.c IN (t.a * 10, u.x)", "NOT (t.a IN (u.a))", // candidates from rows
	"MAX(t.c) = t.c", "MIN(t.a) IS NULL", "COUNT(u.y) > 0", "u.y IN (t.b, MAX(u.y))", // aggregates beside columns
	"t.b IS NULL", "u.y IS NOT NULL", "-t.c", "-t.b",
	"1.0e308 * 10", "ROUND(1.5, 400)", "ROUND(-1.0e308, -400)", // no result is a non-finite DOUBLE
	"CASE t.c WHEN 10 THEN 'ten' WHEN 20 THEN u.y END", "CASE WHEN t.b IS NULL THEN 1/0 WHEN u.a > 1 THEN t.a ELSE -1 END",
	"ROUND(t.c, u.x)", "ROUND(t.b)", "LENGTH(u.y) + LENGTH(t.b)", "ROUND(t.c / u.x, 2)",
	"NOSUCHFN(t.a)", "LENGTH(t.b, t.b)", "ROUND()", "NOSUCHFN(nosuch)", // an unknown function, its arguments first
	"NOSUCHFN(COUNT(1))", "ROUND(SUM(t.b))", "LENGTH(nosuch)",
	"COUNT(*) > 1", "SUM(t.a) + MAX(t.c)", "MIN(t.b) LIKE 'o%'", "SUM(COUNT(*))", "COUNT(t.a, t.c)", // the projection, ORDER BY
	"nosuch = 1", "a = 1", "FALSE AND nosuch = 1", "SUM(nosuch)", "zz.a IS NULL",
	"?", "t.a = ? + ?",
}

// FuzzCompileExpr parses whatever the fuzzer produces as one select-list
// expression over t and u and, when it parses, holds its compiled forms
// against the reference evaluator on the product of the two tables: in a
// position where an aggregate call is its group's result, and in one where
// it has none. Run with
//
//	go test -run '^$' -fuzz FuzzCompileExpr -fuzztime 20s ./internal/sqldb
func FuzzCompileExpr(f *testing.F) {
	for _, s := range compileSeeds {
		f.Add(s)
	}
	s := fuzzDB(f)
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	vw, release := s.reader()
	defer release()
	site, ok := siteOf(vw, []TableRef{{Table: "t"}, {Table: "u"}})
	if !ok {
		f.Fatal("no rows to evaluate on")
	}
	site.rows = site.rows[:0]
	rt, _ := vw.scanRows(&relPlan{t: s.db.tables["t"]}, false)
	ru, _ := vw.scanRows(&relPlan{t: s.db.tables["u"]}, false)
	for _, r := range rt {
		for _, u := range ru {
			site.rows = append(site.rows, append(slices.Clip(r), u...))
		}
	}
	site.rows = append(site.rows, make([]Value, len(site.cols)))
	// Parameter 1 is a pattern, 2 is NULL, 3 a number; 4 is not bound.
	params := []Value{NewString("t%"), Null, NewInt(2)}

	f.Fuzz(func(t *testing.T, src string) {
		if strings.Count(src, ",")+strings.Count(strings.ToUpper(src), "JOIN") > 6 {
			t.Skip() // as in FuzzExecRoundTrip
		}
		st, err := Parse("SELECT " + src + " FROM t, u")
		if err != nil {
			return
		}
		sel, ok := st.(*SelectStmt)
		if !ok || len(sel.Items) != 1 || sel.Items[0].Expr == nil || len(sel.From) != 2 {
			return
		}
		for _, grouped := range []bool{true, false} {
			site.grouped = grouped
			checkCompiled(t, sel.Items[0].Expr, site, params)
		}
	})
}

// TestAggregateInUnevaluatedArguments: an aggregate among operands that
// are never evaluated — a CASE branch not taken, the arguments of a
// function the engine does not have — is grouped over its own argument all
// the same, not over whatever column is first.
func TestAggregateInUnevaluatedArguments(t *testing.T) {
	s := fuzzDB(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT NOSUCHFN(COUNT(1))", CodeUndefinedFunction},
		{"SELECT 1 ORDER BY NOSUCHFN(COUNT(1))", CodeUndefinedFunction},
		{"SELECT NOSUCHFN(COUNT(c)) FROM t", CodeUndefinedFunction},
		{"SELECT CASE WHEN 1 = 0 THEN SUM(b) ELSE 0 END FROM t", CodeInvalidText}, // SUM of a string fails
		{"SELECT CASE WHEN 1 = 0 THEN COUNT(c) ELSE COUNT(*) END FROM t", "5"},
		{"SELECT a FROM t GROUP BY a ORDER BY CASE WHEN a = 0 THEN MAX(c) ELSE -a END", "5 4 3 2 1"},
	} {
		res, err := s.Exec(c.sql)
		got := ""
		var se *Error
		if errors.As(err, &se) {
			got = se.Code
		} else if err == nil {
			for i, r := range res.Rows {
				if i > 0 {
					got += " "
				}
				got += r[0].String()
			}
		}
		if got != c.want {
			t.Errorf("%s: %q (%v), want %q", c.sql, got, err, c.want)
		}
	}
}

// TestModuloOfTruncatedOperands: % on anything but two INTEGERs is the
// remainder of the truncated operands, and a divisor that truncates to
// zero is a division by zero, not a panic — for the compiled closure and
// for the reference evaluator alike.
func TestModuloOfTruncatedOperands(t *testing.T) {
	s := fuzzDB(t)
	for _, c := range []struct{ expr, want, code string }{
		{"1 % .1", "", CodeDivisionByZero},
		{"7.5 % 2", "1", ""},
		{"-7 % 2", "-1", ""},
		{"7 % 0", "", CodeDivisionByZero},
		{"7 % -0.9", "", CodeDivisionByZero},
		{"7 % -1.9", "0", ""},
		{"t.c % 0.5", "", CodeDivisionByZero},
	} {
		st, err := Parse("SELECT " + c.expr + " FROM t WHERE a = 1")
		if err != nil {
			t.Fatal(err)
		}
		e := st.(*SelectStmt).Items[0].Expr
		compiled := func() (Value, error) {
			res, err := s.ExecStmt(st)
			if err != nil {
				return Null, err
			}
			return res.Rows[0][0], nil
		}
		reference := func() (Value, error) {
			return eval(e, &evalEnv{cols: []envCol{{tbl: "t", name: "a"}, {tbl: "t", name: "b"}, {tbl: "t", name: "c"}},
				row: []Value{NewInt(1), NewString("one"), NewInt(10)}})
		}
		for name, run := range map[string]func() (Value, error){"compiled": compiled, "reference": reference} {
			v, err := run()
			var se *Error
			switch {
			case c.code != "" && (!errors.As(err, &se) || se.Code != c.code):
				t.Errorf("%s, %s: %v, %v, want SQLSTATE %s", c.expr, name, v, err, c.code)
			case c.code == "" && (err != nil || v.String() != c.want):
				t.Errorf("%s, %s: %v, %v, want %s", c.expr, name, v, err, c.want)
			}
		}
	}
}

// TestSharedStatementConcurrent is the proof that nothing writes to a
// parsed tree: the plan cache hands the one tree of a shape to every
// execution, and eight sessions execute it at once with other literals.
// Under -race a write to the tree is a reported race; without it, a slot
// or program one execution left for another shows as a wrong row.
func TestSharedStatementConcurrent(t *testing.T) {
	db := NewDatabase("shared")
	setup := NewSession(db)
	planSeed(t, setup)
	shape := func(g int) string {
		return fmt.Sprintf("SELECT e.name, d.dname, COUNT(*) + %d FROM emp e JOIN dept d ON e.dept = d.id "+
			"WHERE e.name LIKE 'n%d%%' OR e.id IN (%d, %d) GROUP BY e.name, d.dname ORDER BY e.name",
			g%2, g%3, g+1, g+11)
	}
	const sessions = 8
	want := make([]string, sessions)
	for g := range want {
		want[g] = resultBytes(mustExec(t, setup, shape(g)))
	}
	first, again := db.StatementFacts(shape(0)), db.StatementFacts(shape(1))
	if first.stmt == nil || again.stmt == nil || first.stmt != again.stmt {
		t.Fatalf("the plan cache does not hand out one tree per shape (%+v, %+v)", first, again)
	}

	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession(db)
			for i := 0; i < 200; i++ {
				res, err := s.Exec(shape(g))
				if err != nil {
					errc <- fmt.Errorf("session %d: %v", g, err)
					return
				}
				if got := resultBytes(res); got != want[g] {
					errc <- fmt.Errorf("session %d, run %d:\n got %s\nwant %s", g, i, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
