package macrolint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"db2www/internal/core"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
)

// A corpus statement is one statement the linter analyzes: the skeleton
// of a %SQL section of a macro, or a generated one.
type corpusStmt struct {
	where string // file and section, or "generated #n"
	sql   string
	opts  sqlsema.Options
}

// corpusDB is the database the corpora run against: the Appendix A schema,
// which the workload datasets share, and the tables the examples create
// for themselves.
func corpusDB(t *testing.T) *sqldb.Database {
	t.Helper()
	ddl, err := os.ReadFile(appendixaPath(t))
	if err != nil {
		t.Fatal(err)
	}
	scripts := []string{string(ddl)}
	for _, f := range exampleFiles(t) {
		for _, lit := range stringLits(t, f) {
			if strings.Contains(lit, "CREATE TABLE") {
				scripts = append(scripts, lit)
			}
		}
	}
	db := sqldb.NewDatabase("CORPUS")
	for _, s := range scripts {
		if _, err := sqldb.NewSession(db).ExecScript(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func exampleFiles(t *testing.T) []string {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v", err)
	}
	return files
}

// stringLits returns the string literals of a Go file.
func stringLits(t *testing.T, file string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// corpusSources calls fn with every macro of testdata/macros, testdata/lint,
// benchmark/macros and examples/.
func corpusSources(t *testing.T, fn func(file, src string, resolve core.IncludeResolver)) {
	for _, dir := range []string{"testdata/macros", "testdata/lint", "benchmark/macros/orders", "benchmark/macros/urldb"} {
		files, _ := filepath.Glob(filepath.Join("..", "..", dir, "*.d2w"))
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			fn(f, string(src), DirResolver(filepath.Dir(f)))
		}
	}
	for _, f := range exampleFiles(t) {
		for _, lit := range stringLits(t, f) {
			if strings.Contains(lit, "%SQL") {
				fn(f, lit, nil)
			}
		}
	}
}

// macroCorpus returns every statement the linter builds from the macros of
// corpusSources.
func macroCorpus(t *testing.T) []corpusStmt {
	var out []corpusStmt
	corpusSources(t, func(file, src string, resolve core.IncludeResolver) {
		m, err := core.ParseWithIncludes(file, src, resolve)
		if err != nil {
			return // a seeded parse defect
		}
		p := &pass{l: New(), env: buildEnv(m, file)}
		for _, tp := range p.env.templates {
			if tp.Kind != core.ValSQL {
				continue
			}
			if sk := p.skeletonOf(tp); sk.ok {
				out = append(out, corpusStmt{where: file + " " + tp.where(), sql: sk.Skeleton,
					opts: sqlsema.Options{Slots: sk.opts.Slots, OpaqueLits: sk.opts.OpaqueLits, Reported: tp.sql().Report != nil}})
			}
		}
	})
	if len(out) < 30 {
		t.Fatalf("the macro corpus has %d statements", len(out))
	}
	return out
}

// generated returns n statements over the Appendix A schema, built where
// names go wrong: unknown, ambiguous and aliased names, ORDER BY ordinals,
// INSERT column lists and DDL.
func generated(n int, seed int64) []corpusStmt {
	type table struct {
		name string
		cols []string
	}
	tables := []table{
		{"urldb", []string{"url", "title", "description"}},
		{"customers", []string{"custid", "name", "city"}},
		{"products", []string{"prodid", "custid", "product_name", "price", "qty"}},
	}
	lit := map[string]string{"custid": "10000", "prodid": "1", "price": "1.5", "qty": "2"}
	numeric := map[string]bool{"custid": true, "prodid": true, "price": true, "qty": true}
	value := func(col string) string {
		if v, ok := lit[col]; ok {
			return v
		}
		return "'x'"
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	var out []corpusStmt
	for len(out) < n {
		var b strings.Builder
		s := corpusStmt{where: fmt.Sprintf("generated #%d", len(out))}
		t := tables[rng.Intn(len(tables))]
		col := func(tb table, qual string) string {
			c := pick(tb.cols)
			switch rng.Intn(12) {
			case 0:
				c = "nosuch"
			case 1:
				qual = "zz"
			case 2:
				qual = tb.name // wrong when the table has an alias
			}
			if qual != "" && rng.Intn(2) == 0 {
				return qual + "." + c
			}
			return c
		}
		switch rng.Intn(7) {
		case 6: // DDL
			c := pick(append([]string{"nosuch"}, t.cols...))
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "CREATE INDEX %s ON %s (%s)", pick([]string{"ix", "urldb_title"}), t.name, c)
			case 1:
				fmt.Fprintf(&b, "DROP INDEX %s", pick([]string{"nosuch", "products_name"}))
			case 2:
				fmt.Fprintf(&b, "DROP TABLE %s", pick([]string{t.name, "nosuch"}))
			}
		case 0, 1, 2: // SELECT, maybe a join
			alias := ""
			if rng.Intn(2) == 0 {
				alias = "a"
			}
			q := alias
			if q == "" {
				q = t.name
			}
			items := 1 + rng.Intn(3)
			fmt.Fprintf(&b, "SELECT ")
			var orderName string
			for i := 0; i < items; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				switch rng.Intn(8) {
				case 0:
					fmt.Fprintf(&b, "%s.*", pick([]string{q, q, q, "zz"}))
				case 1:
					fmt.Fprintf(&b, "%s AS al%d", col(t, q), i)
					orderName = fmt.Sprintf("al%d", i)
				default:
					b.WriteString(col(t, q))
				}
			}
			fmt.Fprintf(&b, " FROM %s %s", t.name, alias)
			u := tables[rng.Intn(len(tables))]
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, ", %s b", u.name)
			case 1: // on columns that compare, so that rows raise no error first
				c := col(t, q)
				var on []string
				for _, uc := range u.cols {
					if numeric[uc] == numeric[c[strings.LastIndex(c, ".")+1:]] {
						on = append(on, uc)
					}
				}
				if len(on) == 0 {
					fmt.Fprintf(&b, " JOIN %s b ON %s IS NOT NULL", u.name, c)
				} else {
					fmt.Fprintf(&b, " JOIN %s b ON %s = b.%s", u.name, c, pick(on))
				}
			}
			if rng.Intn(6) == 0 {
				fmt.Fprintf(&b, " GROUP BY %s", col(t, q))
			}
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, " WHERE %s IS NOT NULL", col(t, q))
			}
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&b, " ORDER BY %d", rng.Intn(items+2))
			} else if rng.Intn(3) == 0 {
				if orderName == "" {
					orderName = col(t, q)
				}
				fmt.Fprintf(&b, " ORDER BY %s", orderName)
			}
		case 3: // INSERT with a column list
			cols := append([]string(nil), t.cols...)
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			cols = cols[:1+rng.Intn(len(cols))]
			switch rng.Intn(6) {
			case 0:
				cols[0] = "nosuch"
			case 1:
				cols = append(cols, cols[0])
			}
			vals := make([]string, len(cols))
			for i, c := range cols {
				vals[i] = value(c)
			}
			if rng.Intn(5) == 0 {
				vals = append(vals, "1")
			}
			fmt.Fprintf(&b, "INSERT INTO %s (%s) VALUES (%s)", t.name, strings.Join(cols, ", "), strings.Join(vals, ", "))
		case 4: // UPDATE
			c := pick(t.cols)
			if rng.Intn(5) == 0 {
				c = "nosuch"
			}
			fmt.Fprintf(&b, "UPDATE %s SET %s = %s WHERE %s IS NULL", t.name, c, value(c), col(t, t.name))
		case 5: // DELETE
			name := t.name
			if rng.Intn(8) == 0 {
				name = "nosuch"
			}
			fmt.Fprintf(&b, "DELETE FROM %s WHERE %s IS NULL", name, col(t, t.name))
		}
		s.sql = b.String()
		out = append(out, s)
	}
	return out
}

// nameRows are hand-written statements over the corpus schema with the
// error the engine binds them to, at the token where it does.
var nameRows = []struct {
	sql, code, at string // at: the token the error is at, its last occurrence
}{
	{"SELECT nosuch FROM customers", sqldb.CodeUndefinedColumn, "nosuch"},
	{"SELECT name FROM nosuch", sqldb.CodeUndefinedTable, "nosuch"},
	{"SELECT whatever FROM nosuch", sqldb.CodeUndefinedTable, "nosuch"},
	{"SELECT custid FROM customers, products WHERE customers.custid = products.custid", sqldb.CodeAmbiguousColumn, "custid FROM"},
	{"SELECT o.name FROM products o", sqldb.CodeUndefinedColumn, "o.name"},
	{"SELECT c.name FROM customers c WHERE c.city = 'Austin' AND c.custid = 1", "", ""},
	{"SELECT customers.name FROM customers c", sqldb.CodeUndefinedColumn, "customers.name"},
	{"SELECT name, city FROM customers ORDER BY 3", sqldb.CodeSyntax, "3"},
	{"SELECT name AS n FROM customers ORDER BY n", "", ""},
	{"INSERT INTO customers (custid, nosuch) VALUES (1, 2)", sqldb.CodeUndefinedColumn, "nosuch"},
	{"INSERT INTO customers (custid, name, custid) VALUES (1, 'x', 1)", sqldb.CodeSyntax, "custid)"},
	{"INSERT INTO customers (custid, name) VALUES (1, 'x', 'y')", sqldb.CodeCardinality, "1"},
	{"UPDATE customers SET nosuch = 1 WHERE custid = 1", sqldb.CodeUndefinedColumn, "nosuch"},
	{"CREATE INDEX urldb_title ON customers (city)", sqldb.CodeDuplicateIndex, "urldb_title"},
	{"DROP INDEX nosuch", sqldb.CodeUndefinedIndex, "nosuch"},
	{"SELECT NOSUCHFN(name) FROM customers", sqldb.CodeUndefinedFunction, "NOSUCHFN"},
	{"SELECT name FROM customers WHERE UPPER(city) = 'AUSTIN'", sqldb.CodeUndefinedFunction, "UPPER"},
	{"UPDATE customers SET name = LOWER(nosuch) WHERE custid = 1", sqldb.CodeUndefinedColumn, "nosuch"},
	{"UPDATE customers SET name = LOWER(name) WHERE custid = 1", sqldb.CodeUndefinedFunction, "LOWER"},
	{"SELECT LENGTH(name), ROUND(custid, 1) FROM customers", "", ""},
}

// bindCodes are the SQLSTATEs Check returns: a statement Check accepts
// never fails with one of them when it runs.
var bindCodes = map[string]bool{
	sqldb.CodeUndefinedTable: true, sqldb.CodeUndefinedColumn: true, sqldb.CodeAmbiguousColumn: true,
	sqldb.CodeSyntax: true, sqldb.CodeCardinality: true, sqldb.CodeFeature: true,
	sqldb.CodeUndefinedIndex: true, sqldb.CodeDuplicateIndex: true, sqldb.CodeDuplicateTable: true,
}

// TestLinterAgreesWithEngine: the linter's findings for names are the
// engine's errors. Over every statement the linter builds from the macro
// corpora, 3 000 generated statements and the hand-written rows, a schema
// finding exists exactly when Check returns an error — one finding, at the
// error's offset, in its words, under sqltype for an arity error — and a
// generated statement, run, fails with the error Check returned, or with
// none of Check's kind.
func TestLinterAgreesWithEngine(t *testing.T) {
	db := corpusDB(t)
	schema := sqlsema.FromDatabase(db)
	stmts := append(macroCorpus(t), generated(3000, 1)...)
	for _, r := range nameRows {
		stmts = append(stmts, corpusStmt{where: "row", sql: r.sql})
	}
	codes := map[string]int{}
	for _, cs := range stmts {
		st, err := sqldb.Parse(cs.sql)
		if err != nil {
			continue
		}
		_, _, checked := db.Check(st)
		var ce *sqldb.Error
		if checked != nil && !errors.As(checked, &ce) {
			t.Fatalf("%s: %v", cs.sql, checked)
		}
		var names []sqlsema.Finding
		for _, f := range sqlsema.Analyze(st, schema, cs.opts) {
			if f.Rule == sqlsema.RuleSchema || strings.Contains(f.Msg, "SQLSTATE="+sqldb.CodeCardinality) {
				names = append(names, f)
			}
		}
		switch {
		case ce == nil && len(names) > 0:
			t.Errorf("%s: %s\n  the engine binds it, the linter says %+v", cs.where, cs.sql, names)
		case ce == nil:
		case len(names) != 1 || names[0].Msg != ce.Error() || names[0].Off != ce.Off-1 ||
			(names[0].Rule == sqlsema.RuleType) != (ce.Code == sqldb.CodeCardinality):
			t.Errorf("%s: %s\n  the engine says %v at %d, the linter %+v", cs.where, cs.sql, ce, ce.Off-1, names)
		default:
			codes[ce.Code]++
		}
		if cs.where != "row" && !strings.HasPrefix(cs.where, "generated") {
			continue
		}
		s := sqldb.NewSession(db)
		s.BeginTxn()
		_, ran := s.ExecStmt(st)
		s.Rollback()
		var re *sqldb.Error
		switch {
		case ce != nil && (ran == nil || ran.Error() != ce.Error()):
			t.Errorf("%s: %s\n  Check says %v, the statement run %v", cs.where, cs.sql, ce, ran)
		case ce == nil && errors.As(ran, &re) && bindCodes[re.Code]:
			t.Errorf("%s: %s\n  Check binds it, the statement run fails with %v", cs.where, cs.sql, ran)
		}
	}
	for _, r := range nameRows {
		st, _ := sqldb.Parse(r.sql)
		_, _, err := db.Check(st)
		var ce *sqldb.Error
		switch {
		case r.code == "" && err != nil, r.code != "" && (!errors.As(err, &ce) || ce.Code != r.code):
			t.Errorf("%s: Check = %v, want %q", r.sql, err, r.code)
		case r.code != "" && ce.Off-1 != strings.LastIndex(r.sql, r.at):
			t.Errorf("%s: %v at %d, want %d (%q)", r.sql, ce, ce.Off-1, strings.LastIndex(r.sql, r.at), r.at)
		}
	}
	// Every kind of name error is met, and often.
	for _, code := range []string{sqldb.CodeUndefinedTable, sqldb.CodeUndefinedColumn, sqldb.CodeAmbiguousColumn,
		sqldb.CodeSyntax, sqldb.CodeCardinality, sqldb.CodeUndefinedIndex} {
		if codes[code] < 10 {
			t.Errorf("only %d statements fail with %s: %v", codes[code], code, codes)
		}
	}
}
