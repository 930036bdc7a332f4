package sqldb

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestParseStatementShapes(t *testing.T) {
	// Each source must parse to the expected statement type.
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT 1", "*sqldb.SelectStmt"},
		{"SELECT * FROM t WHERE a = 1 GROUP BY b ORDER BY c DESC", "*sqldb.SelectStmt"},
		{"SELECT a, b AS bee, t.*, UPPER(c) FROM t x JOIN u ON x.id = u.id", "*sqldb.SelectStmt"},
		{"INSERT INTO t VALUES (1, 'a')", "*sqldb.InsertStmt"},
		{"INSERT INTO t (a, b) VALUES (1, 'a'), (2, 'b')", "*sqldb.InsertStmt"},
		{"UPDATE t SET a = 1, b = b + 1 WHERE c IS NULL", "*sqldb.UpdateStmt"},
		{"DELETE FROM t WHERE a >= 1 AND a <= 2", "*sqldb.DeleteStmt"},
		{"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10) NOT NULL DEFAULT 'x')", "*sqldb.CreateTableStmt"},
		{"CREATE TABLE IF NOT EXISTS t (a INT)", "*sqldb.CreateTableStmt"},
		{"DROP TABLE t", "*sqldb.DropTableStmt"},
		{"DROP TABLE IF EXISTS t", "*sqldb.DropTableStmt"},
		{"CREATE UNIQUE INDEX ix ON t (a)", "*sqldb.CreateIndexStmt"},
		{"DROP INDEX ix", "*sqldb.DropIndexStmt"},
		{"BEGIN", "*sqldb.BeginStmt"},
		{"BEGIN WORK", "*sqldb.BeginStmt"},
		{"COMMIT WORK", "*sqldb.CommitStmt"},
		{"ROLLBACK", "*sqldb.RollbackStmt"},
	}
	for _, c := range cases {
		st, err := Parse(c.sql)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.sql, err)
			continue
		}
		if got := typeName(st); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.sql, got, c.want)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *SelectStmt:
		return "*sqldb.SelectStmt"
	case *InsertStmt:
		return "*sqldb.InsertStmt"
	case *UpdateStmt:
		return "*sqldb.UpdateStmt"
	case *DeleteStmt:
		return "*sqldb.DeleteStmt"
	case *CreateTableStmt:
		return "*sqldb.CreateTableStmt"
	case *DropTableStmt:
		return "*sqldb.DropTableStmt"
	case *CreateIndexStmt:
		return "*sqldb.CreateIndexStmt"
	case *DropIndexStmt:
		return "*sqldb.DropIndexStmt"
	case *BeginStmt:
		return "*sqldb.BeginStmt"
	case *CommitStmt:
		return "*sqldb.CommitStmt"
	case *RollbackStmt:
		return "*sqldb.RollbackStmt"
	default:
		return "?"
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP",
		"SELECT * FROM t ORDER",
		"INSERT t VALUES (1)",
		"INSERT INTO t",
		"INSERT INTO t VALUES 1",
		"UPDATE t a = 1",
		"UPDATE t SET",
		"DELETE t",
		"CREATE t (a INT)",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a WIBBLE)",
		"DROP",
		"ALTER TABLE t",
		"ALTER TABLE t FROBNICATE",
		"SELECT * FROM t; garbage",
		"SELECT 'unterminated",
		"SELECT \"unterminated",
		"SELECT 1 /* unterminated",
		"SELECT 1 + ",
		"SELECT (1",
		"SELECT CASE END",
		"SELECT a NOT 1",
		"SELECT * FROM t LEFT JOIN",
		"SELECT * FROM t JOIN u",      // missing ON
		"CREATE INDEX ON t (a)",       // missing name
		"CREATE INDEX ix ON t (a, b)", // multi-column unsupported
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

// TestParseNeverPanics feeds the parser token soup assembled from SQL
// fragments: it must always return (possibly an error), never panic.
func TestParseNeverPanics(t *testing.T) {
	fragments := []string{
		"SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "INSERT",
		"INTO", "VALUES", "(", ")", ",", "*", "t", "a", "=", "?", "'s'",
		"1", "1.5", "AND", "OR", "NOT", "LIKE", "IN", "BETWEEN", "NULL",
		"CASE", "WHEN", "THEN", "END", "UNION", "ALL", "--x\n", "/*y*/",
		";", "||", "<=", "\"q\"", "CAST", "AS", "INTEGER", "EXISTS",
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", src, r)
				}
			}()
			_, _ = Parse(src)
			_, _ = ParseAll(src)
		}()
	}
}

// TestLexNeverPanics feeds the lexer random bytes.
func TestLexNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		src := string(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("lexSQL(%q) panicked: %v", src, r)
				}
			}()
			_, _ = lexSQL(src)
		}()
	}
}

func TestThreeValuedLogicTruthTable(t *testing.T) {
	s := mustSession(t)
	// Using a one-row table with a NULL column to get genuine unknowns.
	mustExec(t, s, "CREATE TABLE tri (u INTEGER)") // u stays NULL
	mustExec(t, s, "INSERT INTO tri VALUES (NULL)")
	cases := []struct {
		expr string
		rows int64 // rows surviving WHERE <expr> (1 = true, 0 = false/unknown)
	}{
		{"TRUE AND TRUE", 1},
		{"TRUE AND FALSE", 0},
		{"TRUE AND u = 1", 0},  // true AND unknown = unknown
		{"FALSE AND u = 1", 0}, // false AND unknown = false
		{"TRUE OR u = 1", 1},   // true OR unknown = true
		{"FALSE OR u = 1", 0},  // false OR unknown = unknown
		{"NOT (u = 1)", 0},     // NOT unknown = unknown
		{"u = u", 0},           // NULL = NULL is unknown
		{"u IS NULL", 1},
		{"NOT (u IS NULL)", 0},
	}
	for _, c := range cases {
		res := mustExec(t, s, "SELECT COUNT(*) FROM tri WHERE "+c.expr)
		if res.Rows[0][0].I != c.rows {
			t.Errorf("WHERE %s: %v rows, want %d", c.expr, res.Rows[0][0].I, c.rows)
		}
	}
}

func TestBTreeSplitBoundaries(t *testing.T) {
	// Insert enough distinct keys to force multiple node splits, in
	// ascending, descending, and shuffled orders.
	orders := map[string]func(n int) []int{
		"ascending": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out
		},
		"descending": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = n - i
			}
			return out
		},
		"shuffled": func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			rng := rand.New(rand.NewSource(5))
			rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	}
	const n = 10 * btreeOrder
	for name, gen := range orders {
		tree := newBTree()
		for i, k := range gen(n) {
			tree.insert(NewInt(int64(k)), int64(i))
		}
		if tree.size != n {
			t.Errorf("%s: size = %d, want %d", name, tree.size, n)
		}
		count := 0
		prev := int64(-1 << 62)
		tree.ascend(func(k Value, post []int64) bool {
			if k.I <= prev {
				t.Errorf("%s: out of order at %d after %d", name, k.I, prev)
				return false
			}
			prev = k.I
			count += len(post)
			return true
		})
		if count != n {
			t.Errorf("%s: ascend visited %d postings, want %d", name, count, n)
		}
	}
}

func TestCoerceToColumnTable(t *testing.T) {
	cases := []struct {
		in      Value
		to      Type
		want    Value
		wantErr bool
	}{
		{NewString("42"), TInt, NewInt(42), false},
		{NewString(" 42 "), TInt, NewInt(42), false},
		{NewString("4.9"), TInt, NewInt(4), false},
		{NewString("x"), TInt, Null, true},
		{NewFloat(3.7), TInt, NewInt(3), false},
		{NewBool(true), TInt, NewInt(1), false},
		{NewString("2.5"), TFloat, NewFloat(2.5), false},
		{NewInt(2), TFloat, NewFloat(2), false},
		{NewInt(7), TString, NewString("7"), false},
		{NewString("yes"), TBool, NewBool(true), false},
		{NewString("N"), TBool, NewBool(false), false},
		{NewString("maybe"), TBool, Null, true},
		{Null, TInt, Null, false},
	}
	for _, c := range cases {
		got, err := CoerceToColumn(c.in, c.to)
		if c.wantErr {
			if err == nil {
				t.Errorf("coerce(%v, %v): expected error", c.in, c.to)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("coerce(%v, %v) = %v, %v; want %v", c.in, c.to, got, err, c.want)
		}
	}
}

func TestValueStringAndLiteral(t *testing.T) {
	cases := []struct {
		v       Value
		str     string
		literal string
	}{
		{Null, "", "NULL"},
		{NewInt(-5), "-5", "-5"},
		{NewFloat(2.5), "2.5", "2.5"},
		{NewString("o'k"), "o'k", "'o''k'"},
		{NewBool(true), "TRUE", "TRUE"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.SQLLiteral(); got != c.literal {
			t.Errorf("SQLLiteral(%v) = %q, want %q", c.v, got, c.literal)
		}
	}
}

// nestings builds, for each way a statement nests, the statement n levels
// deep.
var nestings = []struct {
	name  string
	build func(n int) string
}{
	{"parentheses", func(n int) string { return "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }},
	{"NOT", func(n int) string { return "SELECT " + strings.Repeat("NOT ", n) + "TRUE" }},
	{"unary minus", func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "1" }},
	{"unary plus", func(n int) string { return "SELECT " + strings.Repeat("+ ", n) + "1" }},
	{"CASE", func(n int) string {
		return "SELECT " + strings.Repeat("CASE WHEN TRUE THEN ", n) + "1" + strings.Repeat(" END", n)
	}},
	{"IN list", func(n int) string {
		return "SELECT " + strings.Repeat("TRUE IN (", n) + "TRUE" + strings.Repeat(")", n)
	}},
	{"function", func(n int) string { return "SELECT " + strings.Repeat("ROUND(", n) + "1" + strings.Repeat(")", n) }},
	{"OR chain", func(n int) string { return "SELECT 1 = 1" + strings.Repeat(" OR 1 = 1", n) }},
	{"AND chain", func(n int) string { return "SELECT 1 = 1" + strings.Repeat(" AND 1 = 1", n) }},
	{"sum chain", func(n int) string { return "SELECT 1" + strings.Repeat(" + 1", n) }},
	{"product", func(n int) string { return "SELECT 1" + strings.Repeat(" * 1", n) }},
}

// TestNestingIsBounded: a statement nested one level past maxNesting is
// refused with 54001, however it nests, and one nested well inside the
// bound parses, plans and runs. The parentheses of the gateway's
// reproduction — 400 000 levels, 800 KB, what one form field can carry —
// are refused before anything recurses over them.
func TestNestingIsBounded(t *testing.T) {
	s := NewSession(NewDatabase("DEEP"))
	tooComplex := func(src string) bool {
		_, err := Parse(src)
		var se *Error
		return errors.As(err, &se) && se.Code == CodeTooComplex
	}
	for _, n := range nestings {
		if _, err := s.Exec(n.build(maxNesting / 2)); err != nil {
			t.Errorf("%s, %d levels: %v", n.name, maxNesting/2, err)
		}
		if !tooComplex(n.build(maxNesting + 1)) {
			t.Errorf("%s, %d levels: not refused with SQLSTATE %s", n.name, maxNesting+1, CodeTooComplex)
		}
	}
	if !tooComplex(nestings[0].build(400_000)) {
		t.Errorf("400 000 parentheses: not refused with SQLSTATE %s", CodeTooComplex)
	}
}

// TestUnterminatedCommentIs42601: an unclosed block comment is a syntax
// error where the lexer meets it — in Parse, in the plan cache's one pass
// over a text, and in a session — not a comment that swallows the rest of
// the statement.
func TestUnterminatedCommentIs42601(t *testing.T) {
	db := NewDatabase("COMMENT")
	s := NewSession(db)
	defer s.Close()
	if _, err := s.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT a FROM t /*",
		"SELECT a FROM t WHERE a = 1 /* AND a = 2",
		"/* SELECT a FROM t",
		"SELECT a FROM t WHERE a = 'x' /**",
	} {
		if _, err := Parse(sql); !isCode(err, CodeSyntax) {
			t.Errorf("Parse(%q) = %v, want %s", sql, err, CodeSyntax)
		}
		if _, err := s.Exec(sql); !isCode(err, CodeSyntax) {
			t.Errorf("Exec(%q) = %v, want %s", sql, err, CodeSyntax)
		}
		if f := db.StatementFacts(sql); f.Cacheable {
			t.Errorf("StatementFacts(%q) is cacheable", sql)
		}
	}
	if _, err := s.Exec("SELECT a FROM t /* closed */ WHERE a = 1"); err != nil {
		t.Errorf("a closed comment: %v", err)
	}
}

func isCode(err error, code string) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == code
}
