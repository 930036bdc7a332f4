package sqldb

import (
	"math/rand"
	"strings"
	"testing"
)

// TestLikeMatchesReference runs FuzzLikeMatch's check on a fixed random
// sample, far larger than the seeds plain `go test` replays: strings and
// patterns over an alphabet of wildcards, multi-byte characters, a real
// U+FFFD and bytes that are not UTF-8.
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
	for trial := 0; trial < 40000; trial++ {
		checkLikeAgainstReference(t, randStr(rng.Intn(9)), randStr(rng.Intn(7)))
	}
}

// TestLikeAllocations pins the point of the program: matching against a
// prepared pattern allocates nothing, whatever kind of part it walks.
func TestLikeAllocations(t *testing.T) {
	cases := []struct {
		name, s, pattern string
		want             bool
	}{
		{"plain", "http://www.ibm42.com/db2", "%ibm4%", true},
		{"plain anchored", "http://www.ibm42.com/db2", "http://%/db2", true},
		{"hole", "http://www.ibm42.com/db2", "%ibm__.c_m%", true},
		{"hole at end", "http://www.ibm42.com/db2", "%d_2", true},
		{"multi-byte", "naïve café 世界", "%caf_ 世%", true},
		{"invalid bytes", "a\xffb\xfe", "%�b_", true},
		{"miss", "http://www.ibm42.com/db2", "%oracle%", false},
	}
	for _, c := range cases {
		p := compileLike(c.pattern)
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
		{"a\\%", "a\\", true}, // the backslash is text
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
		prefix, ok := compileLike(c.pattern).prefix()
		if prefix != c.prefix || ok != c.ok {
			t.Errorf("prefix of %q = %q, %v; want %q, %v", c.pattern, prefix, ok, c.prefix, c.ok)
		}
	}
}

// TestLikePatternFromColumn: a pattern that changes row by row gets the
// program of its own row.
func TestLikePatternFromColumn(t *testing.T) {
	s := NewSession(NewDatabase("T"))
	mustExec(t, s, "CREATE TABLE t (id INTEGER, a VARCHAR(20), b VARCHAR(20))")
	mustExec(t, s, `INSERT INTO t VALUES
		(1, 'bikes', 'b%'),
		(2, 'bikes', 'b_kes'),
		(3, 'bikes', 'c%'),
		(4, 'b%kes', 'b!%k%'),
		(5, 'b%kes', 'b%k%'),
		(6, 'bxkes', 'b#%k%'),
		(7, 'bikes', NULL),
		(8, 'bikes', 'b%'),
		(9, 42, '4_')`)
	res := mustExec(t, s, "SELECT id FROM t WHERE a LIKE b ORDER BY id")
	got := ""
	for _, r := range res.Rows {
		got += r[0].String() + " "
	}
	if want := "1 2 5 8 9 "; got != want {
		t.Errorf("a LIKE b matched ids %q, want %q", got, want)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a NOT LIKE b")
	if res.Rows[0][0].I != 3 { // 3, 4 and 6 ('!' and '#' are text); NULL is not counted
		t.Errorf("a NOT LIKE b counted %v, want 3", res.Rows[0][0])
	}
}

// TestLikeParsedStatementRunAgain: the plan cache executes one parsed AST
// many times with new parameter values, so a program left on the node by the
// previous execution must not answer for the next pattern.
func TestLikeParsedStatementRunAgain(t *testing.T) {
	s := mustSession(t)
	st, err := Parse("SELECT COUNT(*) FROM urldb WHERE url LIKE ? OR title LIKE ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		url, title string
		want       int64
	}{
		{"%ibm%", "x", 2},
		{"%oracle%", "x", 1},
		{"http://www.ibm%", "NC_A", 3},
		{"http://www.ibm%", "NC!_A", 2},
		{"http://www.ibm%", "%Inc", 3},
		{"%", "x", 5},
	} {
		res, err := s.ExecStmt(st, NewString(c.url), NewString(c.title))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].I; got != c.want {
			t.Errorf("url LIKE %q OR title LIKE %q counted %d, want %d", c.url, c.title, got, c.want)
		}
	}
}
