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
		"UPDATE t SET a = CASE WHEN b THEN 1 ELSE 2 END WHERE c LIKE 'p%' ESCAPE '!'",
		"DELETE FROM t WHERE a IN (1, 2)",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10) DEFAULT 'd')",
		"SELECT -1.5e10 || 'x' FROM t a CROSS JOIN u b",
		"SELECT \"quoted ident\" FROM t -- comment\n/* block */",
		// SQL the engine refuses with 0A000 where the parser stops at it.
		"ALTER TABLE t ADD COLUMN x DOUBLE",
		"SELECT 1 UNION ALL SELECT 2 ORDER BY 1",
		"SELECT * FROM (SELECT a FROM t) d WHERE EXISTS (SELECT 1) AND a IN (SELECT a FROM u)",
		"SELECT DISTINCT a FROM t GROUP BY a HAVING COUNT(*) > 1 LIMIT 3 OFFSET 1",
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

// patRune is one pattern element of referenceLike: a rune plus whether it
// is a literal (escaped) occurrence. Non-literal '_' is the
// single-character wildcard; '%' never appears here (it splits parts).
type patRune struct {
	r       rune
	literal bool
}

// referenceLike is the matcher the engine used until the LIKE program of
// like.go replaced it, kept word for word as the specification the
// program is compared against: '%' matches any sequence of characters
// (including empty), '_' matches exactly one character, and the optional
// escape character makes the following character literal.
func referenceLike(s, pattern string, escape rune, hasEscape bool) (bool, error) {
	// Split the pattern on unescaped '%' into parts.
	pr := []rune(pattern)
	var parts [][]patRune
	var part []patRune
	for i := 0; i < len(pr); i++ {
		r := pr[i]
		if hasEscape && r == escape {
			if i+1 >= len(pr) {
				return false, &Error{Code: CodeInvalidText,
					Message: "LIKE pattern ends with escape character"}
			}
			i++
			part = append(part, patRune{r: pr[i], literal: true})
			continue
		}
		if r == '%' {
			parts = append(parts, part)
			part = nil
			continue
		}
		part = append(part, patRune{r: r})
	}
	parts = append(parts, part)

	sr := []rune(s)
	// matchPartAt matches one compiled part against sr starting exactly
	// at pos; it returns the position after the match, or -1.
	matchPartAt := func(part []patRune, pos int) int {
		for _, p := range part {
			if pos >= len(sr) {
				return -1
			}
			if !p.literal && p.r == '_' {
				pos++
				continue
			}
			if sr[pos] != p.r {
				return -1
			}
			pos++
		}
		return pos
	}

	// parts[0] is anchored at the start.
	pos := matchPartAt(parts[0], 0)
	if pos < 0 {
		return false, nil
	}
	if len(parts) == 1 {
		return pos == len(sr), nil
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
			return false, nil
		}
		pos = found
	}
	// The last part is anchored at the end.
	last := parts[len(parts)-1]
	start := len(sr) - len(last)
	if start < pos {
		return false, nil
	}
	return matchPartAt(last, start) == len(sr), nil
}

// referenceLikeEscape is referenceLike behind the ESCAPE check the
// evaluator made before calling it: the escape must be exactly one character.
func referenceLikeEscape(s, pattern, escape string, hasEscape bool) (bool, error) {
	var esc rune
	if hasEscape {
		rs := []rune(escape)
		if len(rs) != 1 {
			return false, &Error{Code: CodeInvalidText,
				Message: "ESCAPE must be a single character"}
		}
		esc = rs[0]
	}
	return referenceLike(s, pattern, esc, hasEscape)
}

// likeVia compiles a program and matches s against it: what a compiled
// LIKE does for one row.
func likeVia(s, pattern, escape string, hasEscape bool) (bool, error) {
	p := compileLike(pattern, escape, hasEscape)
	if p.err != nil {
		return false, p.err
	}
	return p.match(s), nil
}

// FuzzLikeMatch requires the LIKE program to agree with referenceLike on
// the result and on whether there is an error, with and without the
// escape, and checks two invariants: a pattern without escape never
// fails, and "%" matches everything.
func FuzzLikeMatch(f *testing.F) {
	f.Add("hello", "h%o", "")
	f.Add("", "%", "")
	f.Add("a_b", "a\\_b", "\\")
	f.Add("ünïcödé", "__ï%", "")
	f.Add("a\xffb", "a\xfe%", "")  // invalid bytes are all U+FFFD
	f.Add("a\xffb", "%�b", "\xff") // and equal to the real one
	f.Add("x�y\xe4\xb8", "%_%", "_")
	f.Add("50%", "50%%", "%") // the escape is '%' itself
	f.Add("abc", "abc!", "!") // trailing escape
	f.Add("abc", "", "")      // empty pattern
	f.Add("abc", "a%", "ab")  // escape of two characters
	f.Fuzz(func(t *testing.T, s, pat, esc string) {
		for _, hasEscape := range []bool{false, true} {
			checkLikeAgainstReference(t, s, pat, esc, hasEscape)
		}
		if _, err := likeVia(s, pat, esc, false); err != nil {
			t.Fatalf("no-escape LIKE returned error: %v", err)
		}
		if ok, _ := likeVia(s, "%", "", false); !ok {
			t.Fatalf("%% must match %q", s)
		}
	})
}

// checkLikeAgainstReference is the one differential check of the LIKE
// program: result and error text equal to referenceLike's. FuzzLikeMatch
// and TestLikeMatchesReference both run it.
func checkLikeAgainstReference(t *testing.T, s, pat, esc string, hasEscape bool) {
	t.Helper()
	want, wantErr := referenceLikeEscape(s, pat, esc, hasEscape)
	got, err := likeVia(s, pat, esc, hasEscape)
	if got != want || (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("LIKE(%q, %q, escape %q/%v) = %v, %v; reference says %v, %v",
			s, pat, esc, hasEscape, got, err, want, wantErr)
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
	f.Add("UPDATE t SET b = b || '!' WHERE a IN (1, 2)")
	f.Add("SELECT t.b, u.y FROM t, u WHERE t.a = u.a AND u.x > 1 AND t.c = 20")
	f.Add("SELECT * FROM u JOIN t ON t.a = u.a WHERE t.b LIKE 't%' AND u.a = 2")
	f.Add("SELECT t.a, u.x FROM t LEFT JOIN u ON u.a = t.a AND u.y = 'p' WHERE t.c = 10")
	f.Add("SELECT t.a, COUNT(*) FROM u JOIN t ON t.a = u.a GROUP BY t.a ORDER BY 2")
	f.Add("SELECT a FROM t WHERE c = 20 OR a IN (1, 3)")
	f.Add("DELETE FROM u WHERE a = 1 AND y = 'q'")
	f.Add("SELECT t.a, t2.a FROM t JOIN t t2 ON t.c = t2.c AND t.a <> t2.a")
	f.Add("SELECT u.x, t.b FROM u LEFT JOIN t ON t.a = u.a AND t.c > 10")
	f.Add("SELECT NOW(COUNT(1))") // an aggregate in arguments that are never evaluated
	f.Add("SELECT a FROM t GROUP BY a ORDER BY CURDATE(SUM(c))")
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
