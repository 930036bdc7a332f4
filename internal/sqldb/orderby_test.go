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
		split := rng.Intn(n + 1)
		for _, base := range []string{
			"SELECT id, a, b, c FROM t",
			fmt.Sprintf("SELECT id, a, b, c FROM t WHERE id >= %d UNION ALL SELECT id, a, b, c FROM t WHERE id < %d", split, split),
			fmt.Sprintf("SELECT a AS id, a, b, c FROM t WHERE id >= %d UNION SELECT a, a, b, c FROM t", split),
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
		"SELECT id AS k FROM t WHERE id < 3 UNION ALL SELECT name FROM t ORDER BY k",
	} {
		_, err := s.Exec(q)
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeDatatypeMismatch {
			t.Errorf("%s: err = %v, want SQLSTATE %s", q, err, CodeDatatypeMismatch)
		}
	}
}
