package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceOrder is the ORDER BY oracle: a stable sort of rows already in
// scan order, NULLs first ascending and last descending. It is the
// algorithm the engine used before it sorted permutations; here it only
// checks.
func referenceOrder(rows [][]Value, cols []int, desc []bool) [][]Value {
	out := append([][]Value(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for j, pos := range cols {
			ka, kb := out[a][pos], out[b][pos]
			var c int
			switch {
			case ka.IsNull() && kb.IsNull():
			case ka.IsNull():
				c = -1
			case kb.IsNull():
				c = 1
			default:
				c, _ = Compare(ka, kb)
			}
			if c == 0 {
				continue
			}
			if desc[j] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return out
}

// TestOrderByMatchesStableReference checks single SELECTs and UNIONs over
// random rows with duplicate and NULL keys against the oracle: every
// multi-key ASC/DESC mix must return exactly the reference's row order,
// so ties keep scan order.
func TestOrderByMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 25; round++ {
		db := NewDatabase("ORD")
		s := NewSession(db)
		mustExec(t, s, "CREATE TABLE t (id INTEGER NOT NULL PRIMARY KEY, a INTEGER, b VARCHAR(8), c DOUBLE)")
		n := 1 + rng.Intn(300)
		for id := 0; id < n; id++ {
			vals := []string{fmt.Sprint(id), "NULL", "NULL", "NULL"}
			if rng.Intn(5) > 0 {
				vals[1] = fmt.Sprint(rng.Intn(4))
			}
			if rng.Intn(5) > 0 {
				vals[2] = fmt.Sprintf("'%c'", 'a'+rune(rng.Intn(3)))
			}
			if rng.Intn(5) > 0 {
				vals[3] = fmt.Sprintf("%d.5", rng.Intn(3))
			}
			mustExec(t, s, "INSERT INTO t VALUES ("+strings.Join(vals, ", ")+")")
		}
		// One to three distinct keys out of a, b, c (result columns 1-3).
		names := []string{"id", "a", "b", "c"}
		perm := rng.Perm(3)[:1+rng.Intn(3)]
		var cols []int
		var desc []bool
		var terms []string
		for _, p := range perm {
			cols = append(cols, p+1)
			desc = append(desc, rng.Intn(2) == 0)
			term := names[p+1]
			if rng.Intn(3) == 0 {
				term = fmt.Sprint(p + 2) // by ordinal
			}
			if desc[len(desc)-1] {
				term += " DESC"
			}
			terms = append(terms, term)
		}
		orderBy := " ORDER BY " + strings.Join(terms, ", ")
		for _, base := range []string{
			"SELECT id, a, b, c FROM t",
			fmt.Sprintf("SELECT id, a, b, c FROM t WHERE id >= %d", rng.Intn(n+1)),
		} {
			unsorted := mustExec(t, s, base)
			got := mustExec(t, s, base+orderBy)
			want := referenceOrder(unsorted.Rows, cols, desc)
			if len(got.Rows) != len(want) {
				t.Fatalf("%s%s: %d rows, want %d", base, orderBy, len(got.Rows), len(want))
			}
			for i := range want {
				if identityKey(got.Rows[i]) != identityKey(want[i]) {
					t.Fatalf("%s%s: row %d is %v, the stable reference has %v", base, orderBy, i, got.Rows[i], want[i])
				}
			}
		}
	}
}

// TestOrderByIncomparableKeysIsAnError: keys of types that do not compare
// must fail the statement, not produce some order.
func TestOrderByIncomparableKeysIsAnError(t *testing.T) {
	db := NewDatabase("ORD")
	s := NewSession(db)
	mustExec(t, s, "CREATE TABLE t (id INTEGER, name VARCHAR(8))")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'w')")
	for _, q := range []string{
		"SELECT id FROM t ORDER BY CASE WHEN id < 3 THEN id ELSE name END",
	} {
		_, err := s.Exec(q)
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeDatatypeMismatch {
			t.Errorf("%s: err = %v, want SQLSTATE %s", q, err, CodeDatatypeMismatch)
		}
	}
}

// TestOrderByOrdinalOutOfRange: an integer sort key is a column of the
// select list, and one that is none used to sort by the constant and say
// nothing. It is raised when the stage is reached: the WHERE's own error
// comes first.
func TestOrderByOrdinalOutOfRange(t *testing.T) {
	s := fuzzDB(t)
	for _, c := range []struct{ sql, code, msg string }{
		{"SELECT a, b, c FROM t ORDER BY 5", CodeSyntax, "ORDER BY ordinal 5 out of range"},
		{"SELECT a, b, c FROM t ORDER BY 0", CodeSyntax, "ORDER BY ordinal 0 out of range"},
		{"SELECT * FROM t ORDER BY 1, 4 DESC", CodeSyntax, "ORDER BY ordinal 4 out of range"},
		{"SELECT a FROM t GROUP BY a ORDER BY 2", CodeSyntax, "ORDER BY ordinal 2 out of range"},
		{"SELECT a FROM t WHERE 1/0 = 1 ORDER BY 5", CodeDivisionByZero, "division by zero"},
		{"SELECT a, b, c FROM t ORDER BY 3 DESC, 1", "", ""},
		{"SELECT a FROM t ORDER BY 1 + 1, a", "", ""}, // an expression, not an ordinal
		{"SELECT a FROM t ORDER BY -1, a", "", ""},
		{"SELECT a FROM t ORDER BY 2.0, a", "", ""},
	} {
		_, err := s.Exec(c.sql)
		var se *Error
		switch {
		case c.code == "" && err != nil:
			t.Errorf("%s: %v", c.sql, err)
		case c.code != "" && (!errors.As(err, &se) || se.Code != c.code || se.Message != c.msg):
			t.Errorf("%s: %v, want SQLSTATE %s, %q", c.sql, err, c.code, c.msg)
		}
	}
	// EXPLAIN still prints the plan of a statement whose stage will fail.
	if _, err := s.Exec("EXPLAIN SELECT a FROM t ORDER BY 9"); err != nil {
		t.Errorf("EXPLAIN of an out-of-range ordinal: %v", err)
	}
}

// TestOrderByOrdinalsAreShapes: an ORDER BY ordinal stays a literal of the
// parsed tree, so two statements that differ in one are two shapes of the
// parse cache — one database, every statement twice, the repeat a hit and
// never a bypass — while statement stats still file them under one digest.
func TestOrderByOrdinalsAreShapes(t *testing.T) {
	s := fuzzDB(t)
	for _, c := range []struct{ sql, want string }{
		{"SELECT a, c FROM t ORDER BY 1 DESC", "[[5 10] [4 ] [3 20] [2 20] [1 10]]"},
		{"SELECT a, c FROM t ORDER BY 2 DESC", "[[2 20] [3 20] [1 10] [5 10] [4 ]]"},
		{"SELECT a, b, c FROM t WHERE c = 10 ORDER BY 1", "[[1 one 10] [5 five 10]]"},
		{"SELECT a, b, c FROM t WHERE c = 10 ORDER BY 5", "42601 ORDER BY ordinal 5 out of range"},
	} {
		for round, counted := range []string{"miss", "hit"} {
			before := s.db.PlanCacheStats()
			res, err := s.Exec(c.sql)
			got := ""
			var se *Error
			if errors.As(err, &se) {
				got = se.Code + " " + se.Message
			} else {
				got = fmt.Sprint(res.Rows)
			}
			if got != c.want {
				t.Errorf("%s (%s): %s, want %s", c.sql, counted, got, c.want)
			}
			after := s.db.PlanCacheStats()
			if after.Bypasses != before.Bypasses || int(after.Hits-before.Hits) != round ||
				int(after.Misses-before.Misses) != 1-round {
				t.Errorf("%s: want a %s: %+v -> %+v", c.sql, counted, before, after)
			}
		}
	}
	d1, _ := DigestSQL("SELECT a, c FROM t ORDER BY 1 DESC")
	d2, _ := DigestSQL("select A, c from T order by 2 desc")
	if d1 != d2 {
		t.Errorf("digests differ: %s, %s", d1, d2)
	}
}
