package sqlsema

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"db2www/internal/core"
	"db2www/internal/sqldb"
)

// TestPerfReadsThePlan: the performance findings are what EXPLAIN shows.
// Over every SQL section of the macro corpora and generated statements on
// the Appendix A schema — comma lists, inner, left and cross joins, ON
// filters, implied equality, NULL keys, LIKE patterns with and without a
// literal prefix, ? keys — two rules hold, EXPLAIN run with each ? bound
// to a value of the column it is compared with:
//
//  1. a relation has a sequential-scan finding exactly when EXPLAIN prints
//     "Seq Scan on" it and a filter conjunct (WHERE, an inner join's ON)
//     names only it, with no aggregate in it;
//  2. a relation is named in a cross-product finding exactly when EXPLAIN
//     prints a "Cross Join" step with that relation first on its right,
//     and the statement writes no CROSS JOIN.
//
// A statement the engine refuses, one that fails on its first row with a
// type error the sqltype rule reports, or transaction control
// (testdata/lint/txn_control.d2w) has no plan to read.
func TestPerfReadsThePlan(t *testing.T) {
	ddl, err := os.ReadFile(filepath.Join("..", "..", "testdata", "appendixa.sql"))
	if err != nil {
		t.Fatal(err)
	}
	schema, err := FromDDL(string(ddl))
	if err != nil {
		t.Fatal(err)
	}
	sess := sqldb.NewSession(schema.db)
	stmts := append(sectionSkeletons(t), perfStatements(3000, 1)...)
	seen := map[string]int{}
	for _, sql := range stmts {
		st, err := sqldb.Parse(sql)
		if err != nil {
			continue
		}
		switch st.(type) {
		case *sqldb.BeginStmt, *sqldb.CommitStmt, *sqldb.RollbackStmt:
			seen["txn control"]++
			continue
		}
		bind, _, err := schema.db.Check(st)
		if err != nil {
			seen["refused"]++
			continue
		}
		finds := Analyze(st, schema, Options{})
		if failsOnARow(finds) {
			seen["type error"]++
			continue
		}
		res, err := sess.Exec("EXPLAIN "+sql, paramValues(st, bind)...)
		if err != nil {
			t.Fatalf("%s: EXPLAIN: %v", sql, err)
		}
		var plan []string
		for _, row := range res.Rows {
			plan = append(plan, row[0].String())
		}
		seqWant, prodWant := planReading(plan, filteredRelations(st, bind))
		if strings.Contains(strings.ToUpper(sql), "CROSS JOIN") {
			prodWant = nil
		}
		seqGot, prodGot := findingReading(finds)
		if !reflect.DeepEqual(seqGot, seqWant) || !reflect.DeepEqual(prodGot, prodWant) {
			t.Errorf("%s\n  sequential scans: findings %v, plan %v\n  cross products: findings %v, plan %v\n  %s\n  %+v",
				sql, seqGot, seqWant, prodGot, prodWant, strings.Join(plan, "\n  "), finds)
		}
		seen["checked"]++
		seen["seq scan"] += len(seqWant)
		seen["cross product"] += len(prodWant)
		for _, f := range finds {
			if strings.Contains(f.Msg, "LEFT JOIN pins") {
				seen["pinned"]++
			}
		}
		if strings.Contains(strings.Join(plan, "\n"), "(implied)") {
			seen["implied"]++
		}
	}
	t.Logf("%v", seen)
	for what, least := range map[string]int{"checked": 2000, "seq scan": 500, "cross product": 200, "pinned": 100, "implied": 100} {
		if seen[what] < least {
			t.Errorf("%d statements with a %s, want at least %d: the generator is too narrow (%v)", seen[what], what, least, seen)
		}
	}
}

// failsOnARow reports whether a sqltype finding quotes a type error the
// engine raises when the statement reaches a row.
func failsOnARow(finds []Finding) bool {
	for _, f := range finds {
		if f.Rule == RuleType && (strings.Contains(f.Msg, "SQLSTATE=42804") || strings.Contains(f.Msg, "SQLSTATE=22P02")) {
			return true
		}
	}
	return false
}

var (
	seqScanLine  = regexp.MustCompile(`Seq Scan on (\w+)(?: as (\w+))?`)
	anyScanLine  = regexp.MustCompile(`(?:Seq|Index) Scan on (\w+)|Subquery Scan on (\w+)`)
	seqFinding   = regexp.MustCompile(`^no predicate on "(\w+)"|cannot use index "\w+" on (\w+)\.`)
	crossFinding = regexp.MustCompile(`^no join predicate connects "(\w+)"|^"(\w+)" joins the rest`)
)

// planReading reads the relations of rule 1 and rule 2 off EXPLAIN's lines:
// the sequential scans of a relation some filter names alone (filtered,
// by table and qualifier), and the relation first on the right of each
// Cross Join step.
func planReading(plan []string, filtered map[[2]string]bool) (seq, prod []string) {
	set := map[string]bool{}
	for i, line := range plan {
		if m := seqScanLine.FindStringSubmatch(line); m != nil {
			table, qual := strings.ToLower(m[1]), strings.ToLower(m[2])
			if qual == "" {
				qual = table
			}
			if filtered[[2]string{table, qual}] {
				set[table] = true
			}
		}
		if !strings.Contains(line, "-> Cross Join") {
			continue
		}
		// The step's children are the next two nodes one level deeper.
		depth, children := strings.Index(line, "->"), 0
		for _, child := range plan[i+1:] {
			d := strings.Index(child, "->")
			if d >= 0 && d <= depth {
				break
			}
			if d == depth+3 {
				children++
			}
			if children == 2 {
				if m := anyScanLine.FindStringSubmatch(child); m != nil {
					prod = append(prod, strings.ToLower(m[1]+m[2]))
					break
				}
			}
		}
	}
	slices.Sort(prod)
	return sorted(set), prod
}

// findingReading returns the relations the sequential-scan and the
// cross-product findings name.
func findingReading(finds []Finding) (seq, prod []string) {
	set := map[string]bool{}
	for _, f := range finds {
		if m := seqFinding.FindStringSubmatch(f.Msg); f.Rule == RulePerf && m != nil {
			set[strings.ToLower(m[1]+m[2])] = true
		}
		if m := crossFinding.FindStringSubmatch(f.Msg); f.Rule == RulePerf && m != nil {
			prod = append(prod, strings.ToLower(m[1]+m[2]))
		}
	}
	slices.Sort(prod)
	return sorted(set), prod
}

func sorted(set map[string]bool) []string {
	var out []string
	for s := range set {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// filteredRelations returns, by table and qualifier, the base relations of
// every FROM clause of st (and the target of an UPDATE or DELETE) that a
// conjunct of its WHERE clause or of an inner join's ON names alone, with
// no aggregate in it — Check's binding says what each column
// reference names.
func filteredRelations(st sqldb.Stmt, bind sqldb.Binding) map[[2]string]bool {
	out := map[[2]string]bool{}
	walkAST(reflect.ValueOf(st), func(n any) bool {
		var from []sqldb.TableRef
		var where sqldb.Expr
		switch x := n.(type) {
		case *sqldb.SelectStmt:
			from, where = x.From, x.Where
		case *sqldb.UpdateStmt:
			from, where = []sqldb.TableRef{{Table: x.Table, Alias: x.Alias}}, x.Where
		case *sqldb.DeleteStmt:
			from, where = []sqldb.TableRef{{Table: x.Table, Alias: x.Alias}}, x.Where
		default:
			return true
		}
		rels := map[string]string{}
		add := func(table, alias string) {
			if table != "" {
				rels[strings.ToLower(alias)] = strings.ToLower(table)
				if alias == "" {
					rels[strings.ToLower(table)] = strings.ToLower(table)
				}
			}
		}
		conds := conjuncts(where)
		for _, tr := range from {
			add(tr.Table, tr.Alias)
			for _, jc := range tr.Joins {
				add(jc.Table, jc.Alias)
				if jc.Kind == sqldb.JoinInner {
					conds = append(conds, conjuncts(jc.On)...)
				}
			}
		}
		for _, c := range conds {
			if q := namesAlone(c, bind); rels[q] != "" {
				out[[2]string{rels[q], q}] = true
			}
		}
		return true
	})
	return out
}

func conjuncts(e sqldb.Expr) []sqldb.Expr {
	if b, ok := e.(*sqldb.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []sqldb.Expr{e}
}

// namesAlone returns the qualifier every column reference of conj is bound
// to, or "" when there is none, more than one, or an aggregate.
func namesAlone(conj sqldb.Expr, bind sqldb.Binding) string {
	rel, ok := "", true
	walkAST(reflect.ValueOf(conj), func(n any) bool {
		switch x := n.(type) {
		case *sqldb.FuncCall:
			switch x.Name {
			case "COUNT", "SUM", "AVG", "MIN", "MAX":
				ok = false
			}
		case *sqldb.ColumnRef:
			bc, bound := bind[x]
			ok = ok && bound && (rel == "" || rel == bc.Rel)
			rel = bc.Rel
		}
		return ok
	})
	if !ok {
		return ""
	}
	return rel
}

// paramValues binds each ? of st to a value of the column it is compared
// with (a pattern with a literal prefix for LIKE), 1 otherwise.
func paramValues(st sqldb.Stmt, bind sqldb.Binding) []sqldb.Value {
	vals := map[int]sqldb.Value{}
	n := 0
	walkAST(reflect.ValueOf(st), func(node any) bool {
		switch x := node.(type) {
		case *sqldb.Binary:
			for _, s := range [2][2]sqldb.Expr{{x.L, x.R}, {x.R, x.L}} {
				p, isParam := s[0].(*sqldb.Param)
				c, isCol := s[1].(*sqldb.ColumnRef)
				if isParam && isCol {
					switch bind[c].Column.Type {
					case sqldb.TString:
						vals[p.Index] = sqldb.NewString("x")
					case sqldb.TFloat:
						vals[p.Index] = sqldb.NewFloat(1.5)
					default:
						vals[p.Index] = sqldb.NewInt(10000)
					}
				}
			}
		case *sqldb.LikeExpr:
			if p, ok := x.Pattern.(*sqldb.Param); ok {
				vals[p.Index] = sqldb.NewString("x%")
			}
		case *sqldb.Param:
			n = max(n, x.Index)
		}
		return true
	})
	out := make([]sqldb.Value, n)
	for i := range out {
		out[i] = sqldb.NewInt(1)
		if v, ok := vals[i+1]; ok {
			out[i] = v
		}
	}
	return out
}

// walkAST calls fn on every node of a parsed statement reachable from v,
// parents first; fn returns false to leave a node's children out.
func walkAST(v reflect.Value, fn func(any) bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			walkAST(v.Elem(), fn)
		}
	case reflect.Pointer:
		if !v.IsNil() && (v.Elem().Kind() != reflect.Struct || fn(v.Interface())) {
			walkAST(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				walkAST(v.Field(i), fn)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkAST(v.Index(i), fn)
		}
	}
}

// sectionSkeletons returns the %SQL sections of the macro corpora as the
// linter sees them: the skeletons of core.Static.Shape. A section that does
// not parse so is left to the generated statements.
func sectionSkeletons(t *testing.T) []string {
	var out []string
	for _, dir := range []string{"testdata/macros", "testdata/lint", "benchmark/macros/orders", "benchmark/macros/urldb"} {
		files, _ := filepath.Glob(filepath.Join("..", "..", dir, "*.d2w"))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.Parse(f, string(src))
			if err != nil {
				continue
			}
			static := core.NewStatic(m)
			for _, sec := range m.SQLSections() {
				out = append(out, static.Shape(sec).Skeleton)
			}
		}
	}
	if len(out) < 15 {
		t.Fatalf("the corpora have %d SQL sections", len(out))
	}
	return out
}

// perfStatements generates n statements over the Appendix A schema.
func perfStatements(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	pick := func(ss ...string) string { return ss[rng.Intn(len(ss))] }
	type rel struct{ from, q string }
	rels := []rel{{"customers c", "c"}, {"products p", "p"}, {"urldb u", "u"}}
	filters := map[string][]string{
		"c": {"c.custid = 10000", "c.custid = NULL", "c.custid = ?", "c.city = 'Austin'", "c.name LIKE 'A%'",
			"c.name LIKE '%c'", "c.custid > 5", "c.city IS NULL"},
		"p": {"p.qty = 4", "p.custid = 10000", "p.product_name LIKE 'b%'", "p.product_name LIKE '%b'",
			"p.product_name LIKE 'b%k%'", "p.prodid = ?", "p.price < 100", "p.custid = NULL", "p.product_name LIKE ?",
			"p.product_name LIKE 'bikes'", "10000 = p.custid"},
		"u": {"u.title LIKE 'I%'", "u.title LIKE '_B%'", "u.url = 'http://www.w3.org/'", "u.description LIKE 'd%'",
			"u.title = ?", "u.title = NULL"},
	}
	joins := map[[2]string]string{
		{"c", "p"}: "c.custid = p.custid", {"c", "u"}: "u.title = c.name", {"p", "u"}: "u.title = p.product_name",
	}
	joinOf := func(a, b string) string {
		if j, ok := joins[[2]string{a, b}]; ok {
			return j
		}
		return joins[[2]string{b, a}]
	}
	var out []string
	for len(out) < n {
		if rng.Intn(10) == 0 { // a write's scan
			q := pick("c", "p", "u")
			table := map[string]string{"c": "customers", "p": "products", "u": "urldb"}[q]
			where := strings.ReplaceAll(filters[q][rng.Intn(len(filters[q]))], q+".", "")
			if rng.Intn(2) == 0 {
				out = append(out, fmt.Sprintf("DELETE FROM %s WHERE %s", table, where))
			} else {
				out = append(out, fmt.Sprintf("UPDATE %s SET %s WHERE %s", table,
					map[string]string{"c": "city = 'x'", "p": "qty = 1", "u": "description = 'x'"}[q], where))
			}
			continue
		}
		// One to three of the tables, in any order.
		picked := rng.Perm(3)[:1+rng.Intn(3)]
		var b strings.Builder
		var where, used []string
		b.WriteString("SELECT * FROM ")
		for _, ri := range picked {
			r := rels[ri]
			on := ""
			if len(used) > 0 {
				on = joinOf(used[rng.Intn(len(used))], r.q)
				if rng.Intn(4) == 0 {
					on += " AND " + filters[r.q][rng.Intn(len(filters[r.q]))]
				}
			}
			switch {
			case len(used) == 0:
				b.WriteString(r.from)
			case rng.Intn(4) == 0:
				fmt.Fprintf(&b, ", %s", r.from)
				if rng.Intn(3) != 0 {
					where = append(where, joinOf(used[rng.Intn(len(used))], r.q))
				}
			default:
				kind := pick("JOIN", "JOIN", "LEFT JOIN", "CROSS JOIN")
				if kind == "CROSS JOIN" {
					fmt.Fprintf(&b, " CROSS JOIN %s", r.from)
				} else {
					fmt.Fprintf(&b, " %s %s ON %s", kind, r.from, on)
				}
			}
			used = append(used, r.q)
		}
		for i := rng.Intn(4); i > 0; i-- {
			q := used[rng.Intn(len(used))]
			where = append(where, filters[q][rng.Intn(len(filters[q]))])
		}
		if len(where) > 0 {
			b.WriteString(" WHERE " + strings.Join(where, " AND "))
		}
		out = append(out, b.String())
	}
	return out
}
