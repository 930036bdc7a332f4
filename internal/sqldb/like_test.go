package sqldb

import (
	"math/rand"
	"strings"
	"testing"
)

// TestLikeMatchesReference runs FuzzLikeMatch's check on a fixed random
// sample, far larger than the seeds plain `go test` replays: strings and
// patterns over an alphabet of wildcards, an escape, multi-byte
// characters, a real U+FFFD and bytes that are not UTF-8.
func TestLikeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	alphabet := []string{"a", "b", "%", "%", "_", "!", "é", "世", "�", "\xff", "\xe4", "\xb8"}
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	escapes := []string{"!", "%", "_", "é", "\xff", "", "ab"}
	for trial := 0; trial < 40000; trial++ {
		s, pat := randStr(rng.Intn(9)), randStr(rng.Intn(7))
		esc, hasEscape := escapes[rng.Intn(len(escapes))], trial%2 == 0
		checkLikeAgainstReference(t, s, pat, esc, hasEscape)
	}
}

// TestLikeAllocations pins the point of the program: matching against a
// prepared pattern allocates nothing, whatever kind of part it walks.
func TestLikeAllocations(t *testing.T) {
	cases := []struct {
		name, s, pattern, escape string
		hasEscape, want          bool
	}{
		{"plain", "http://www.ibm42.com/db2", "%ibm4%", "", false, true},
		{"plain anchored", "http://www.ibm42.com/db2", "http://%/db2", "", false, true},
		{"hole", "http://www.ibm42.com/db2", "%ibm__.c_m%", "", false, true},
		{"hole at end", "http://www.ibm42.com/db2", "%d_2", "", false, true},
		{"escaped", "100% sure_thing", "%0!% sure!_%", "!", true, true},
		{"multi-byte", "naïve café 世界", "%caf_ 世%", "", false, true},
		{"invalid bytes", "a\xffb\xfe", "%�b_", "", false, true},
		{"miss", "http://www.ibm42.com/db2", "%oracle%", "", false, false},
	}
	for _, c := range cases {
		p := compileLike(c.pattern, c.escape, c.hasEscape)
		if p.err != nil {
			t.Fatalf("%s: %v", c.name, p.err)
		}
		if got := p.match(c.s); got != c.want {
			t.Errorf("%s: %q LIKE %q = %v, want %v", c.name, c.s, c.pattern, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { p.match(c.s) }); n != 0 {
			t.Errorf("%s: match allocates %v times per call, want 0", c.name, n)
		}
	}
}

// TestLikeIndexablePrefix: index routing reads the prefix off the
// compiled parts; only 'text%' with nothing else special qualifies.
func TestLikeIndexablePrefix(t *testing.T) {
	cases := []struct {
		pattern, prefix string
		ok              bool
	}{
		{"bikes%", "bikes", true},
		{"naïve%", "naïve", true},
		{"a\\%", "a\\", true}, // no ESCAPE clause: the backslash is text
		{"%", "", false},
		{"", "", false},
		{"bikes", "", false},
		{"bi%kes%", "", false},
		{"bikes%%", "", false},
		{"bike_%", "", false},
		{"%bikes", "", false},
		{"bik\xffs%", "", false}, // U+FFFD matches any invalid byte: not a byte prefix
	}
	for _, c := range cases {
		prefix, ok := compileLike(c.pattern, "", false).prefix()
		if prefix != c.prefix || ok != c.ok {
			t.Errorf("prefix of %q = %q, %v; want %q, %v", c.pattern, prefix, ok, c.prefix, c.ok)
		}
	}
}

// TestLikeErrorTiming pins when a malformed pattern or escape is
// reported: by the first row evaluated with a non-NULL operand and
// pattern — not at planning, not for a scan that meets no such row.
func TestLikeErrorTiming(t *testing.T) {
	for _, c := range []struct{ where, message string }{
		{"v LIKE 'a%' ESCAPE 'ab'", "ESCAPE must be a single character"},
		{"v LIKE 'a%' ESCAPE ''", "ESCAPE must be a single character"},
		{"v LIKE 'a!' ESCAPE '!'", "LIKE pattern ends with escape character"},
	} {
		s := NewSession(NewDatabase("T"))
		mustExec(t, s, "CREATE TABLE t (v VARCHAR(10))")
		sql := "SELECT v, " + c.where + " FROM t WHERE " + c.where + " OR v IS NULL"

		if res := mustExec(t, s, sql); len(res.Rows) != 0 {
			t.Errorf("%s over an empty table: %v", c.where, rowsAsStrings(res))
		}
		mustExec(t, s, "INSERT INTO t VALUES (NULL), (NULL)")
		res := mustExec(t, s, sql)
		if len(res.Rows) != 2 || !res.Rows[0][1].IsNull() || !res.Rows[1][1].IsNull() {
			t.Errorf("%s over NULL operands: %v, want two rows of NULL", c.where, rowsAsStrings(res))
		}
		mustExec(t, s, "INSERT INTO t VALUES ('abc')")
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), c.message) {
			t.Errorf("%s over a non-NULL row: error %v, want %q", c.where, err, c.message)
		}
	}

	// A NULL pattern or escape yields NULL before the other is looked at.
	s := NewSession(NewDatabase("T"))
	res := mustExec(t, s, "SELECT 'a' LIKE NULL ESCAPE 'ab', 'a' LIKE 'a!' ESCAPE NULL, NULL LIKE 'a!' ESCAPE '!'")
	for i, v := range res.Rows[0] {
		if !v.IsNull() {
			t.Errorf("column %d = %v, want NULL", i+1, v)
		}
	}
}

// TestLikePatternFromColumn: a pattern (and an escape) that changes row
// by row gets the program of its own row, and a malformed one in a later
// row is still reported.
func TestLikePatternFromColumn(t *testing.T) {
	s := NewSession(NewDatabase("T"))
	mustExec(t, s, "CREATE TABLE t (id INTEGER, a VARCHAR(20), b VARCHAR(20), e VARCHAR(2))")
	mustExec(t, s, `INSERT INTO t VALUES
		(1, 'bikes', 'b%', '!'),
		(2, 'bikes', 'b_kes', '!'),
		(3, 'bikes', 'c%', '!'),
		(4, 'b%kes', 'b!%k%', '!'),
		(5, 'b%kes', 'b#%k%', '#'),
		(6, 'bxkes', 'b#%k%', '#'),
		(7, 'bikes', NULL, '!'),
		(8, 'bikes', 'b%', '!'),
		(9, 42, '4_', '!')`)
	res := mustExec(t, s, "SELECT id FROM t WHERE a LIKE b ESCAPE e ORDER BY id")
	got := ""
	for _, r := range res.Rows {
		got += r[0].String() + " "
	}
	if want := "1 2 4 5 8 9 "; got != want {
		t.Errorf("a LIKE b ESCAPE e matched ids %q, want %q", got, want)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a NOT LIKE b")
	if res.Rows[0][0].I != 4 { // 3, 4 ('!' is text), 5 and 6 ('#' is text); NULL is not counted
		t.Errorf("a NOT LIKE b counted %v, want 4", res.Rows[0][0])
	}
	mustExec(t, s, "INSERT INTO t VALUES (10, 'bikes', 'bikes!', '!')")
	if _, err := s.Exec("SELECT id FROM t WHERE a LIKE b ESCAPE e"); err == nil ||
		!strings.Contains(err.Error(), "ends with escape") {
		t.Errorf("trailing escape in row 10: error %v", err)
	}
}

// TestLikeParsedStatementRunAgain: the plan cache executes one parsed AST
// many times with new parameter values, so a program left on the node by the
// previous execution must not answer for the next pattern.
func TestLikeParsedStatementRunAgain(t *testing.T) {
	s := mustSession(t)
	st, err := Parse("SELECT COUNT(*) FROM urldb WHERE url LIKE ? OR title LIKE ? ESCAPE ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		url, title, escape string
		want               int64
	}{
		{"%ibm%", "x", "!", 2},
		{"%oracle%", "x", "!", 1},
		{"http://www.ibm%", "NC_A", "!", 3},
		{"http://www.ibm%", "NC!_A", "!", 2},
		{"http://www.ibm%", "NC!_A", "#", 2},
		{"%", "x", "!", 5},
	} {
		res, err := s.ExecStmt(st, NewString(c.url), NewString(c.title), NewString(c.escape))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].I; got != c.want {
			t.Errorf("url LIKE %q OR title LIKE %q ESCAPE %q counted %d, want %d", c.url, c.title, c.escape, got, c.want)
		}
	}
}
