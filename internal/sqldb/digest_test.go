package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Digest normalization: the digest identifies a statement *shape* — two
// statements differing only in literal values, parameter markers, case,
// whitespace, or comments must share a digest, and statements with
// different structure must not.

func TestDigestLiteralsCollapse(t *testing.T) {
	base, _ := DigestSQL("SELECT title FROM urldb WHERE url = 'http://a' AND hits > 10")
	cases := []string{
		"SELECT title FROM urldb WHERE url = 'http://zzz' AND hits > 99999",
		"select TITLE from URLDB where URL = 'x' and HITS > 0",
		"SELECT title FROM urldb WHERE url = ? AND hits > ?",
		"  SELECT\n\ttitle FROM urldb  WHERE url='a' AND hits>3  ",
		"SELECT title FROM urldb -- find one\nWHERE url = 'b' /* any */ AND hits > 7",
	}
	for _, sql := range cases {
		if d, _ := DigestSQL(sql); d != base {
			t.Errorf("digest of %q = %s, want %s (same shape as base)", sql, d, base)
		}
	}
}

func TestDigestShapesDiffer(t *testing.T) {
	seen := map[string]string{}
	for _, sql := range []string{
		"SELECT title FROM urldb WHERE url = 'a'",
		"SELECT title FROM urldb WHERE url > 'a'",
		"SELECT title FROM urldb WHERE url = 'a' AND hits > 1",
		"SELECT url FROM urldb WHERE url = 'a'",
		"SELECT title FROM urldb",
		"DELETE FROM urldb WHERE url = 'a'",
		"SELECT title FROM urldb WHERE url IN ('a', 'b')",
	} {
		d, norm := DigestSQL(sql)
		if prev, dup := seen[d]; dup {
			t.Errorf("digest collision: %q and %q both hash to %s", prev, sql, d)
		}
		seen[d] = sql
		if strings.ContainsAny(norm, "'0123456789") {
			t.Errorf("normalized %q = %q still contains literal characters", sql, norm)
		}
	}
}

func TestDigestInner(t *testing.T) {
	want, _ := DigestSQL("SELECT title FROM urldb WHERE url = 'zzz'")
	for _, sql := range []string{
		"EXPLAIN SELECT title FROM urldb WHERE url = 'a'",
		"EXPLAIN ANALYZE SELECT title FROM urldb WHERE url = 'b'",
		"explain analyze select title from urldb where url = ?",
	} {
		d, _, ok := digestSQLInner(sql)
		if !ok {
			t.Fatalf("digestSQLInner(%q) not recognized as EXPLAIN", sql)
		}
		if d != want {
			t.Errorf("inner digest of %q = %s, want the bare statement's %s", sql, d, want)
		}
	}
	if _, _, ok := digestSQLInner("SELECT 1"); ok {
		t.Error("digestSQLInner accepted a non-EXPLAIN statement")
	}
}

// TestDigestProperty is a seeded property test: random literals and random
// whitespace never change the digest, and structural mutations always do.
func TestDigestProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := []string{" ", "  ", "\n", "\t", " \n "}
	pad := func() string { return ws[rng.Intn(len(ws))] }
	shape := func(op string, num int, str string) string {
		return "SELECT" + pad() + "title," + pad() + "hits FROM urldb" + pad() +
			"WHERE hits " + op + " " + fmt.Sprint(num) + pad() +
			"AND url = '" + str + "'" + pad() + "LIMIT " + fmt.Sprint(1+rng.Intn(50))
	}
	base, _ := DigestSQL(shape(">", 1, "seed"))
	for i := 0; i < 200; i++ {
		sql := shape(">", rng.Intn(1_000_000), fmt.Sprintf("u%d", rng.Int63()))
		if d, norm := DigestSQL(sql); d != base {
			t.Fatalf("iteration %d: %q normalized to %q, digest %s != base %s",
				i, sql, norm, d, base)
		}
	}
	for i := 0; i < 200; i++ {
		mutated := shape("<", rng.Intn(1000), "x") // operator flip changes the shape
		if d, _ := DigestSQL(mutated); d == base {
			t.Fatalf("iteration %d: structural mutation %q kept digest %s", i, mutated, d)
		}
	}
}
