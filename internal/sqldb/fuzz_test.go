package sqldb

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParse checks the SQL parser never panics. Run the fuzzer with
//
//	go test -fuzz=FuzzParse ./internal/sqldb
//
// Under plain `go test` only the seed corpus runs.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 2 DESC",
		"INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, ?)",
		"UPDATE t SET a = CASE WHEN b THEN 1 ELSE 2 END WHERE c LIKE 'p%'",
		"DELETE FROM t WHERE a IN (1, 2)",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10) DEFAULT 'd')",
		"SELECT -1.5e10, ROUND(LENGTH(b), 2) FROM t a CROSS JOIN u b",
		"SELECT \"quoted ident\" FROM t -- comment\n/* block */",
		// SQL the engine refuses with 0A000 where the parser stops at it.
		"ALTER TABLE t ADD COLUMN x DOUBLE",
		"SELECT 1 UNION ALL SELECT 2 ORDER BY 1",
		"SELECT * FROM (SELECT a FROM t) d WHERE EXISTS (SELECT 1) AND a IN (SELECT a FROM u)",
		"SELECT DISTINCT a FROM t GROUP BY a HAVING COUNT(*) > 1 LIMIT 3 OFFSET 1",
		"SELECT CAST(a AS DOUBLE) || 'x' FROM t WHERE a NOT BETWEEN 1 AND 2 OR b LIKE 'p!%' ESCAPE '!'",
		"%$#@!",
		"SELECT ((((",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Depth seeds: every way a statement nests, one level past the bound.
	for _, n := range nestings {
		f.Add(n.build(maxNesting + 1))
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
		_, _ = ParseAll(src)
	})
}

// referenceLike is the matcher the engine used until the LIKE program of
// like.go replaced it, kept as the specification the program is compared
// against: '%' matches any sequence of characters (including empty), '_'
// matches exactly one character.
func referenceLike(s, pattern string) bool {
	// Split the pattern on '%' into parts.
	var parts [][]rune
	var part []rune
	for _, r := range pattern {
		if r == '%' {
			parts = append(parts, part)
			part = nil
			continue
		}
		part = append(part, r)
	}
	parts = append(parts, part)

	sr := []rune(s)
	// matchPartAt matches one part against sr starting exactly at pos; it
	// returns the position after the match, or -1.
	matchPartAt := func(part []rune, pos int) int {
		for _, p := range part {
			if pos >= len(sr) {
				return -1
			}
			if p != '_' && sr[pos] != p {
				return -1
			}
			pos++
		}
		return pos
	}

	// parts[0] is anchored at the start.
	pos := matchPartAt(parts[0], 0)
	if pos < 0 {
		return false
	}
	if len(parts) == 1 {
		return pos == len(sr)
	}
	// Middle parts float: find the earliest match at or after pos.
	for k := 1; k < len(parts)-1; k++ {
		found := -1
		for start := pos; start <= len(sr); start++ {
			if p := matchPartAt(parts[k], start); p >= 0 {
				found = p
				break
			}
		}
		if found < 0 {
			return false
		}
		pos = found
	}
	// The last part is anchored at the end.
	last := parts[len(parts)-1]
	start := len(sr) - len(last)
	if start < pos {
		return false
	}
	return matchPartAt(last, start) == len(sr)
}

// FuzzLikeMatch requires the LIKE program to agree with referenceLike, and
// "%" to match everything.
func FuzzLikeMatch(f *testing.F) {
	f.Add("hello", "h%o")
	f.Add("", "%")
	f.Add("a_b", "a\\_b") // the backslash is text
	f.Add("ünïcödé", "__ï%")
	f.Add("a\xffb", "a\xfe%") // invalid bytes are all U+FFFD
	f.Add("a\xffb", "%�b")    // and equal to the real one
	f.Add("x�y\xe4\xb8", "%_%")
	f.Add("50%", "50%%")
	f.Add("abc", "abc!")
	f.Add("abc", "") // empty pattern
	f.Add("abc", "a%")
	f.Fuzz(func(t *testing.T, s, pat string) {
		checkLikeAgainstReference(t, s, pat)
		if !compileLike("%").match(s) {
			t.Fatalf("%% must match %q", s)
		}
	})
}

// checkLikeAgainstReference is the one differential check of the LIKE
// program: the match referenceLike answers. FuzzLikeMatch and
// TestLikeMatchesReference both run it.
func checkLikeAgainstReference(t *testing.T, s, pat string) {
	t.Helper()
	if got, want := compileLike(pat).match(s), referenceLike(s, pat); got != want {
		t.Fatalf("%q LIKE %q = %v; reference says %v", s, pat, got, want)
	}
}

// fuzzDB builds the fixture FuzzExecRoundTrip runs against: two tables
// with a primary key and a secondary index each, NULL keys and a key
// without a partner, so that index scans, pushdown and join ordering all
// have something to decide.
func fuzzDB(t testing.TB) *Session {
	s := NewSession(NewDatabase("FUZZ"))
	if _, err := s.ExecScript(`
CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10), c INTEGER);
CREATE INDEX t_c ON t (c);
CREATE TABLE u (x INTEGER PRIMARY KEY, a INTEGER, y VARCHAR(10));
CREATE INDEX u_a ON u (a);
INSERT INTO t VALUES (1, 'one', 10), (2, 'two', 20), (3, 'three', 20), (4, NULL, NULL), (5, 'five', 10);
INSERT INTO u VALUES (1, 1, 'p'), (2, 1, 'q'), (3, 2, NULL), (4, NULL, 'r'), (5, 9, 'p'), (6, 3, 'q')`); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameOnEveryPlan reports whether err is raised while a statement is
// resolved, before any row is looked at — so every plan of the statement
// must raise it. The others depend on which rows a plan evaluates an
// expression over (pushdown evaluates a predicate on rows a join would
// have dropped, and the other way round; a hash join does not evaluate
// its condition on a pair whose keys differ). Name resolution is not in
// the set: a reference is resolved when the operator that evaluates it
// runs, after whatever that plan ran before it.
func sameOnEveryPlan(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return err == nil
	}
	switch e.Code {
	case CodeSyntax, CodeUndefinedTable, CodeDuplicateTable, CodeUndefinedIndex,
		CodeDuplicateIndex, CodeInvalidTxnState:
		return true
	}
	return false
}

// FuzzExecRoundTrip parses whatever the fuzzer produces and, when it
// parses, executes it twice: through the plan cache and the cost-based
// planner, and parsed afresh on the naive plan. Execution must return an
// error or a result, never panic, and the two must agree: on errors every
// plan raises, and — when both succeed — on the rows as a multiset and on
// the affected-row count.
func FuzzExecRoundTrip(f *testing.F) {
	f.Add("SELECT a FROM t WHERE a > 0")
	f.Add("INSERT INTO t VALUES (9, 'nine', 1)")
	f.Add("SELECT COUNT(*), MAX(b) FROM t GROUP BY c ORDER BY 1")
	f.Add("UPDATE t SET c = c * 2 WHERE a IN (1, 2)")
	f.Add("SELECT t.b, u.y FROM t, u WHERE t.a = u.a AND u.x > 1 AND t.c = 20")
	f.Add("SELECT * FROM u JOIN t ON t.a = u.a WHERE t.b LIKE 't%' AND u.a = 2")
	f.Add("SELECT t.a, u.x FROM t LEFT JOIN u ON u.a = t.a AND u.y = 'p' WHERE t.c = 10")
	f.Add("SELECT t.a, COUNT(*) FROM u JOIN t ON t.a = u.a GROUP BY t.a ORDER BY 2")
	f.Add("SELECT a FROM t WHERE c = 20 OR a IN (1, 3)")
	f.Add("DELETE FROM u WHERE a = 1 AND y = 'q'")
	f.Add("SELECT t.a, t2.a FROM t JOIN t t2 ON t.c = t2.c AND t.a <> t2.a")
	f.Add("SELECT u.x, t.b FROM u LEFT JOIN t ON t.a = u.a AND t.c > 10")
	f.Add("SELECT NOSUCHFN(COUNT(1))") // an aggregate among the arguments of an unknown function
	f.Add("SELECT a FROM t GROUP BY a ORDER BY ROUND(SUM(c), a)")
	// Implied equality: a constant on one side of a join key.
	f.Add("SELECT t.b, u.y FROM t JOIN u ON u.a = t.a WHERE u.a = 2")
	f.Add("SELECT t.a, u.x FROM t, u WHERE t.c = u.a AND t.c = 1")
	f.Add("SELECT t.a, t2.b FROM t, t t2 WHERE t.c = t2.c AND t2.c = 20 AND t.a > 1")
	f.Add("SELECT t.a FROM t JOIN u ON u.y = t.b WHERE t.b = 'one'")
	f.Fuzz(func(t *testing.T, src string) {
		// Every relation multiplies the rows of a product; a statement
		// listing many would spend the fuzzing budget on one cross join.
		if strings.Count(src, ",")+strings.Count(strings.ToUpper(src), "JOIN") > 6 {
			t.Skip()
		}
		sOn, sOff := fuzzDB(t), fuzzDB(t)
		defer sOn.Close()
		defer sOff.Close()
		on, onErr := sOn.Exec(src)
		off, offErr := naiveExec(sOff, src)
		if !sameOnEveryPlan(onErr) || !sameOnEveryPlan(offErr) {
			return
		}
		if onErr != nil || offErr != nil {
			if onErr == nil || offErr == nil || onErr.Error() != offErr.Error() {
				t.Fatalf("%q: optimised %v, naive %v", src, onErr, offErr)
			}
			return
		}
		if got, want := sortedRows(on), sortedRows(off); got != want {
			t.Fatalf("%q:\n optimised: %s\n naive: %s", src, got, want)
		}
	})
}
