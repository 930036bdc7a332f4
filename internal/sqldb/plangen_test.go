package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// planGen derives statements over the planSeed schema from a seed: the
// FROM shapes the planner treats differently (one relation, inner joins
// it may reorder, LEFT joins it must not), join keys a hash can and cannot
// serve, predicates an index can and cannot serve, NULL keys, grouping,
// writes, and references that do not resolve. It stays clear of what
// pushdown may legitimately change: predicates that fail on some rows
// only (a type mismatch, a division).
type planGen struct {
	r      *rand.Rand
	nextID int // next emp.id an INSERT uses
}

// genStmt is one generated statement. ordered says its ORDER BY is total,
// so two correct plans return the rows in the same sequence.
type genStmt struct {
	sql     string
	ordered bool
}

// genRel is one base table of a generated FROM clause; both tables have
// the unique column id.
type genRel struct{ table, alias string }

var genCols = map[string][]struct{ name, kind string }{
	"emp":  {{"id", "int"}, {"name", "str"}, {"dept", "int"}, {"salary", "num"}},
	"dept": {{"id", "int"}, {"dname", "str"}, {"loc", "str"}},
}

// planGenSeed adds to planSeed what the corpus does not have: NULL join
// keys, a key with no partner, NULL strings, and what the key classes of
// a hash join turn on — a DOUBLE that equals an INTEGER key, a name two
// rows share, integers beyond 2^53 that are one apart (equal through
// float64, not as integers), a string that is no number.
func planGenSeed(t *testing.T, s *Session) {
	t.Helper()
	planSeed(t, s)
	for _, q := range []string{
		"INSERT INTO emp VALUES (31, 'n31', NULL, NULL)",
		"INSERT INTO emp VALUES (32, 'x32', 9, 1.5)",
		"INSERT INTO emp VALUES (33, NULL, 2, 2000.5)",
		"INSERT INTO emp VALUES (34, 'n07', 3, 3.0)",
		"INSERT INTO emp VALUES (35, 'n34', 35, 35)",
		"INSERT INTO emp VALUES (9007199254740992, 'big', 9007199254740993, 7.0)",
		"INSERT INTO emp VALUES (9007199254740993, 'big', 9007199254740992, 9007199254740992.0)",
		"INSERT INTO dept VALUES (6, 'dept6', NULL)",
		"INSERT INTO dept VALUES (7, NULL, 'east')",
		"INSERT INTO dept VALUES (8, 'abc', '3')",
	} {
		mustExec(t, s, q)
	}
}

func (g *planGen) pick(opts ...string) string { return opts[g.r.Intn(len(opts))] }

func (g *planGen) chance(pct int) bool { return g.r.Intn(100) < pct }

// rels picks n relations with distinct aliases.
func (g *planGen) rels(n int) []genRel {
	out := make([]genRel, n)
	for i := range out {
		table := g.pick("emp", "emp", "dept")
		out[i] = genRel{table: table, alias: fmt.Sprintf("%c%d", table[0], i)}
	}
	return out
}

// literal returns a value of the column's kind.
func (g *planGen) literal(kind string) string {
	switch kind {
	case "int":
		return fmt.Sprint(g.r.Intn(36))
	case "num":
		return fmt.Sprintf("%d.5", 900+g.r.Intn(1400))
	}
	return "'" + g.pick("east", "west", "hq", "dept1", "dept4", "n07", "n21", "x32", "") + "'"
}

// pred returns a predicate over one column of one of rels.
func (g *planGen) pred(rels []genRel) string {
	rel := rels[g.r.Intn(len(rels))]
	cols := genCols[rel.table]
	c := cols[g.r.Intn(len(cols))]
	col := rel.alias + "." + c.name
	switch c.kind {
	case "str":
		switch g.r.Intn(6) {
		case 0:
			return col + " LIKE '" + g.pick("n1%", "n%", "dept%", "%st", "%e%", "n_5", "h%") + "'"
		case 1:
			return col + " NOT LIKE '" + g.pick("n2%", "%t", "d%") + "'"
		case 2:
			return col + " IN ('east', 'hq', 'n03', " + g.literal("str") + ")"
		case 3:
			return col + " IS " + g.pick("", "NOT ") + "NULL"
		}
		return col + " " + g.pick("=", "<>", "<", ">=") + " " + g.literal("str")
	case "num":
		return col + " " + g.pick("<", "<=", ">", ">=") + " " + g.literal("num")
	}
	switch g.r.Intn(8) {
	case 0:
		return col + " IN (" + g.literal("int") + ", " + g.literal("int") + ", NULL)"
	case 1:
		return "(" + col + " >= " + fmt.Sprint(g.r.Intn(10)) + " AND " + col + " <= " + fmt.Sprint(10+g.r.Intn(25)) + ")"
	case 2:
		return col + " IS " + g.pick("", "NOT ") + "NULL"
	case 3:
		return g.literal("int") + " " + g.pick("=", "<", ">=") + " " + col
	}
	return col + " " + g.pick("=", "=", "<", "<=", ">", ">=", "<>") + " " + g.literal("int")
}

// where returns up to n predicates joined by AND, some of them an OR or a
// NOT.
func (g *planGen) where(rels []genRel, n int) []string {
	var out []string
	for i := g.r.Intn(n + 1); i > 0; i-- {
		p := g.pred(rels)
		switch g.r.Intn(10) {
		case 0:
			p = "(" + p + " OR " + g.pred(rels) + ")"
		case 1:
			p = "NOT (" + p + ")"
		}
		out = append(out, p)
	}
	return out
}

// link returns a condition that joins b to a.
func (g *planGen) link(a, b genRel) string {
	col := func(r genRel) string {
		if r.table == "emp" {
			return r.alias + "." + g.pick("id", "dept", "dept")
		}
		return r.alias + ".id"
	}
	return col(a) + " = " + col(b)
}

// from returns a FROM clause over rels and the conjuncts that belong in
// WHERE with it (the join conditions of comma-listed relations). An ON
// condition links the new relation to any relation of its own FROM entry,
// which is all it may refer to.
func (g *planGen) from(rels []genRel) (string, []string) {
	var sb strings.Builder
	var conds []string
	entry := 0 // the first relation of the FROM entry being written
	for i, r := range rels {
		ref := r.table + " " + r.alias
		switch how := g.r.Intn(10); {
		case i == 0:
			sb.WriteString(ref)
		case how < 3:
			sb.WriteString(", " + ref)
			conds = append(conds, g.link(rels[g.r.Intn(i)], r))
			entry = i
		case how < 6:
			sb.WriteString(" JOIN " + ref + " ON " + g.link(rels[entry+g.r.Intn(i-entry)], r))
		case how < 9:
			on := g.link(rels[entry+g.r.Intn(i-entry)], r)
			if g.chance(40) {
				on += " AND " + g.pred(rels[i:i+1])
			}
			sb.WriteString(" LEFT JOIN " + ref + " ON " + on)
		default:
			sb.WriteString(" CROSS JOIN " + ref)
		}
	}
	return sb.String(), conds
}

// keyStmt returns a self-join of emp on a key of each comparison class a
// hash join has, and of none: duplicates and NULLs on both sides, INTEGER
// against DOUBLE, integers beyond 2^53 compared exactly and through
// float64, strings, and a VARCHAR against an INTEGER, whose comparison
// fails on the first pair of any plan (so that statement has no WHERE a
// plan could push below the join). Some carry a residual conjunct over
// both sides beside the key, some a third relation whose key is a column
// of the first, some a constant bound to one side of the key.
func (g *planGen) keyStmt() genStmt {
	key := g.pick("a.dept = b.dept", "b.dept = a.dept", "a.salary = b.id", "a.id = b.salary",
		"a.id = b.dept", "a.salary = b.salary", "a.name = b.name", "a.name = b.id")
	kind := g.pick("JOIN", "LEFT JOIN", ",")
	on := []string{key}
	if g.chance(40) {
		on = append(on, g.pick("a.id < b.id", "b.salary > 1500.5", "a.name <> b.name", "a.id + b.id > 40"))
	}
	rels := []genRel{{"emp", "a"}, {"emp", "b"}}
	var from string
	var where []string
	if kind == "," {
		from, where = "emp a, emp b", on
	} else {
		from = "emp a " + kind + " emp b ON " + strings.Join(on, " AND ")
	}
	// A constant on one side of the key, which implied equality binds the
	// other side to where the two columns have one type (not INTEGER
	// against DOUBLE). Not on the VARCHAR against INTEGER key: a constant
	// there decides whether any pair is formed, and so whether it fails.
	if key != "a.name = b.id" && g.chance(50) {
		col := strings.Fields(key)[2*g.r.Intn(2)]
		lit := map[string]string{"id": g.pick("3", "35", "9007199254740992", "99"), "dept": g.pick("2", "9", "35", "9007199254740993"),
			"salary": g.pick("1.5", "3.0", "35", "9007199254740992.0", "NULL"), "name": g.pick("'n07'", "'big'", "''", "NULL")}
		where = append(where, col+" = "+lit[col[strings.Index(col, ".")+1:]])
	}
	order := "a.id, b.id"
	if g.chance(30) {
		rels = append(rels, genRel{"dept", "d"})
		if kind == "," {
			from += ", dept d"
			where = append(where, "d.id = a.dept")
		} else {
			from += " " + g.pick("JOIN", "LEFT JOIN") + " dept d ON d.id = a.dept"
		}
		order += ", d.id"
	}
	if key != "a.name = b.id" {
		where = append(where, g.where(rels, 2)...)
	}
	st := genStmt{sql: "SELECT * FROM " + from}
	if len(where) > 0 {
		st.sql += " WHERE " + strings.Join(where, " AND ")
	}
	if g.chance(50) {
		st.sql += " ORDER BY " + order
		st.ordered = true
	}
	return st
}

// selectStmt returns a SELECT over one to three base tables.
func (g *planGen) selectStmt() genStmt {
	// Three relations one time in six: the naive plan of a comma list is
	// its full product, and the test budget goes where the rows are.
	rels := g.rels(1 + (1+g.r.Intn(6))/3)
	from, conds := g.from(rels)
	where := append(g.where(rels, 3), conds...)
	g.r.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })
	tail := ""
	if len(where) > 0 {
		tail = " WHERE " + strings.Join(where, " AND ")
	}
	first := rels[0]
	switch g.r.Intn(10) {
	case 0: // grouped
		key := first.alias + "." + g.pick("id", "dept", "name")
		if first.table == "dept" {
			key = first.alias + "." + g.pick("id", "loc", "dname")
		}
		return genStmt{ordered: true, sql: "SELECT " + key + ", COUNT(*), MIN(" + first.alias + ".id), MAX(" + first.alias + ".id) FROM " +
			from + tail + " GROUP BY " + key + " ORDER BY " + key}
	case 1: // aggregate over everything
		return genStmt{ordered: true, sql: "SELECT COUNT(*), MIN(" + first.alias + ".id), SUM(" + first.alias + ".id) FROM " + from + tail}
	}
	items := "*"
	if g.chance(60) {
		var cols []string
		for _, r := range rels {
			cs := genCols[r.table]
			cols = append(cols, r.alias+"."+cs[g.r.Intn(len(cs))].name)
		}
		items = strings.Join(cols, ", ")
	}
	st := genStmt{sql: "SELECT " + items + " FROM " + from + tail}
	if g.chance(50) {
		keys := make([]string, len(rels))
		for i, r := range rels {
			keys[i] = r.alias + ".id" + g.pick("", " DESC")
		}
		st.sql += " ORDER BY " + strings.Join(keys, ", ")
		st.ordered = true
	}
	return st
}

// brokenStmt returns a statement with a reference that does not resolve.
func (g *planGen) brokenStmt() genStmt {
	return genStmt{sql: g.pick(
		"SELECT e.nocol FROM emp e, dept d WHERE e.dept = d.id",
		"SELECT id FROM emp e, dept d WHERE e.dept = d.id",
		"SELECT e.id FROM emp e JOIN dept d ON e.dept = zz.id",
		"SELECT e.id FROM emp e JOIN dept d ON e.dept = d2.id JOIN dept d2 ON d2.id = d.id",
		"SELECT e.id FROM emp e JOIN emp e2 ON e2.id = loc JOIN dept d ON d.id = e.dept",
		"SELECT * FROM emp e, nosuch n WHERE e.id = n.id",
		"SELECT * FROM emp e LEFT JOIN nosuch n ON e.id = n.id",
		"SELECT e.id FROM emp e, dept d WHERE e.dept = d.id AND nocol = 1",
		"UPDATE emp SET nocol = 1 WHERE id = "+g.literal("int"),
		"DELETE FROM nosuch WHERE id = 1",
	)}
}

// writeStmt returns an INSERT, UPDATE or DELETE on emp.
func (g *planGen) writeStmt() genStmt {
	emp := []genRel{{table: "emp", alias: "emp"}}
	switch g.r.Intn(4) {
	case 0:
		g.nextID++
		return genStmt{sql: fmt.Sprintf("INSERT INTO emp VALUES (%d, 'g%d', %s, %s)",
			g.nextID, g.nextID, g.pick("1", "3", "5", "NULL"), g.literal("num"))}
	case 1:
		return genStmt{sql: "DELETE FROM emp WHERE id > 100 AND " + g.pred(emp)}
	}
	where := append(g.where(emp, 2), g.pred(emp))
	return genStmt{sql: "UPDATE emp SET " + g.pick("salary = salary + 1", "dept = dept", "name = name") +
		" WHERE " + strings.Join(where, " AND ")}
}

func (g *planGen) next() genStmt {
	switch n := g.r.Intn(100); {
	case n < 5:
		return g.brokenStmt()
	case n < 12:
		return g.writeStmt()
	case n < 22:
		return g.keyStmt()
	}
	return g.selectStmt()
}

// sortedRows is resultBytes with the rows in sorted order: what two
// results that may differ only in row order have in common.
func sortedRows(res *Result) string {
	lines := strings.Split(resultBytes(res), "\n")
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n")
}

// checkGenerated runs n generated statements through the plan cache and
// the cost-based planner on one database and parsed afresh on the naive
// plan on another, and requires the same rows (in the same order under a
// total ORDER BY), the same affected-row counts and the same errors.
func checkGenerated(t *testing.T, seed int64, n int) {
	sOn, sOff := NewSession(NewDatabase("on")), NewSession(NewDatabase("off"))
	planGenSeed(t, sOn)
	planGenSeed(t, sOff)
	g := &planGen{r: rand.New(rand.NewSource(seed)), nextID: 200}
	var failed, rows int
	for i := 0; i < n; i++ {
		st := g.next()
		on, onErr := sOn.Exec(st.sql)
		off, offErr := naiveExec(sOff, st.sql)
		if onErr != nil || offErr != nil {
			failed++
			if onErr == nil || offErr == nil || onErr.Error() != offErr.Error() {
				t.Fatalf("seed %d #%d %s:\n optimised: %v\n naive: %v", seed, i, st.sql, onErr, offErr)
			}
			continue
		}
		rows += len(on.Rows)
		got, want := resultBytes(on), resultBytes(off)
		if !st.ordered {
			got, want = sortedRows(on), sortedRows(off)
		}
		if got != want {
			plan, _ := sOn.Exec("EXPLAIN " + st.sql)
			t.Fatalf("seed %d #%d %s:\n optimised: %s\n naive: %s\n plan:\n%s", seed, i, st.sql, got, want, planResultText(plan))
		}
	}
	// A generator whose statements mostly fail, or return nothing, checks
	// nothing.
	if failed > n/5 || rows < n {
		t.Fatalf("seed %d: %d of %d statements failed, %d rows compared", seed, failed, n, rows)
	}
}
