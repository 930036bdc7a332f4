package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// changesSince returns what Changes reports of table since version since,
// up to its current version.
func changesSince(t *testing.T, db *Database, table string, since uint64) ([]Change, bool) {
	t.Helper()
	return db.Changes(table, since, db.TableVersion(table))
}

// imagesOf renders a change's images, "whole" for a change of the whole
// table.
func imagesOf(c Change) string {
	if c.Whole() {
		return "whole"
	}
	return fmt.Sprint(c.Images())
}

// TestChangesRecordRowImages: each bump of a table's version leaves one
// record chained to the one before, with the old and new images of the
// rows a commit wrote; DDL, a failed auto-commit write and a commit of
// more rows than a record holds are changes of the whole table, and a
// rollback's record has no images.
func TestChangesRecordRowImages(t *testing.T) {
	db, s := newVersionTestDB(t) // kv (1, 10)
	exec := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []struct {
		run  func()
		want string
	}{
		{func() { exec("UPDATE kv SET v = 11 WHERE k = 1") }, "[[1 10] [1 11]]"},
		{func() { exec("INSERT INTO kv VALUES (2, 20)") }, "[[2 20]]"},
		{func() { exec("DELETE FROM kv WHERE k = 2") }, "[[2 20]]"},
		{func() {
			s.BeginTxn()
			exec("INSERT INTO kv VALUES (3, 30)")
			exec("UPDATE kv SET v = 12 WHERE k = 1")
			s.Commit()
		}, "[[3 30] [1 11] [1 12]]"},
		{func() {
			s.BeginTxn()
			exec("UPDATE kv SET v = 99 WHERE k = 1")
			s.Rollback()
		}, "[]"},
		{func() { s.Exec("INSERT INTO kv VALUES (1, 0)") }, "whole"}, // a duplicate key
		{func() { exec("CREATE INDEX kv_v ON kv (v)"); exec("DROP TABLE kv") }, "whole"},
		{func() { exec("CREATE TABLE kv (k INTEGER)") }, "whole"},
	} {
		since := db.TableVersion("kv")
		c.run()
		cs, ok := changesSince(t, db, "kv", since)
		if !ok || len(cs) == 0 || cs[0].prev != since {
			t.Fatalf("changes since %d: %v %v", since, cs, ok)
		}
		for i := 1; i < len(cs); i++ {
			if cs[i].prev != cs[i-1].version {
				t.Fatalf("records do not chain: %+v", cs)
			}
		}
		last := cs[len(cs)-1]
		if got := imagesOf(last); got != c.want || last.version != db.TableVersion("kv") {
			t.Errorf("after a write since %d: %s at %d, want %s at %d", since, got, last.version, c.want, db.TableVersion("kv"))
		}
	}
	// A commit of more images than one record holds.
	since := db.TableVersion("kv")
	s.BeginTxn()
	for i := 0; i < maxChangeImages; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	s.Commit()
	if cs, ok := changesSince(t, db, "kv", since); !ok || len(cs) != 1 || len(cs[0].Images()) != maxChangeImages {
		t.Errorf("a commit of %d rows: %v %v, want one change with their images", maxChangeImages, cs, ok)
	}
	since = db.TableVersion("kv")
	s.BeginTxn()
	for i := 0; i <= maxChangeImages; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d)", i))
	}
	s.Commit()
	if cs, ok := changesSince(t, db, "kv", since); !ok || len(cs) != 1 || !cs[0].Whole() {
		t.Errorf("a commit of %d rows: %v %v, want one change of the whole table", maxChangeImages+1, cs, ok)
	}
}

// TestChangesRingCoverage: a table keeps its last maxChanges records, and
// a change of the whole table drops those before it; asked for an interval
// whose first record is gone, Changes says so.
func TestChangesRingCoverage(t *testing.T) {
	db, s := newVersionTestDB(t)
	start := db.TableVersion("kv")
	for i := 0; i < maxChanges; i++ {
		s.Exec(fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", i))
	}
	if cs, ok := changesSince(t, db, "kv", start); !ok || len(cs) != maxChanges {
		t.Fatalf("%d updates: %d records, %v", maxChanges, len(cs), ok)
	}
	s.Exec("UPDATE kv SET v = 0 WHERE k = 1")
	if _, ok := changesSince(t, db, "kv", start); ok {
		t.Errorf("the ring covers a version %d records back", maxChanges+1)
	}
	mid := db.TableVersion("kv")
	s.Exec("UPDATE kv SET v = 1 WHERE k = 1")
	if cs, ok := changesSince(t, db, "kv", mid); !ok || len(cs) != 1 {
		t.Errorf("one update: %v %v", cs, ok)
	}
	if cs, ok := db.Changes("kv", mid, mid); !ok || cs != nil {
		t.Errorf("an empty interval: %v %v", cs, ok)
	}
	s.Exec("INSERT INTO kv VALUES (1, 1)") // fails: a change of the whole table
	if _, ok := changesSince(t, db, "kv", mid); ok {
		t.Errorf("records before a change of the whole table are still served")
	}
	if _, ok := db.Changes("nosuch", 0, 5); ok {
		t.Errorf("a table with no records covers an interval")
	}
}

// TestPredicateOfTheReadSet: a cached read's predicate on a table is the
// conjuncts the planner attributes to the table's relation alone — the
// top-level conjuncts of WHERE and inner ON over its columns, qualified
// or not, and those implied equality derives — with the text's values
// bound, evaluated by the engine's compiler; the whole table where a LEFT
// join, a table read twice, no conjunct of its own or a condition that
// could raise an error stands in the way. Its key is its equality's, under
// the coercion Compare applies.
func TestPredicateOfTheReadSet(t *testing.T) {
	db := NewDatabase("PRED")
	s := NewSession(db)
	defer s.Close()
	if _, err := s.ExecScript(`
CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR(8));
CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, t VARCHAR(8));
INSERT INTO a VALUES (1, 5, 'ab');
INSERT INTO b VALUES (1, 1, 'x');`); err != nil {
		t.Fatal(err)
	}
	s.Exec("UPDATE a SET k = 5 WHERE id = 1")
	s.Exec("UPDATE b SET aid = 1 WHERE id = 1")
	last := func(table string) *Change {
		r := db.vt.changes[table]
		c := r.recs[(r.head+len(r.recs)-1)%len(r.recs)]
		return &c
	}
	chA, chB := last("a"), last("b")
	pred := func(sql, table string) *Predicate {
		t.Helper()
		f := db.StatementFacts(sql)
		if !f.Cacheable {
			t.Fatalf("%s: not cacheable", sql)
		}
		ch := chA
		if table == "b" {
			ch = chB
		}
		return db.Predicate(&f, ch)
	}
	row := func(vals ...any) []Value {
		out := make([]Value, len(vals))
		for i, v := range vals {
			switch v := v.(type) {
			case int:
				out[i] = NewInt(int64(v))
			case string:
				out[i] = NewString(v)
			}
		}
		return out
	}
	for _, c := range []struct {
		sql, table string
		whole      bool
		match      [][]Value
		miss       [][]Value
		key        []Value // the key's value, as an image of column keyCol
		keyCol     int
	}{
		{sql: "SELECT id FROM a WHERE k = 5 AND s LIKE 'a%'", table: "a",
			match: [][]Value{row(1, 5, "ab"), row(9, 5, "a")}, miss: [][]Value{row(1, 6, "ab"), row(1, 5, "b"), row(1, nil, "a")},
			key: row(0, 5), keyCol: 1},
		{sql: "SELECT id FROM a WHERE k = '5.0'", table: "a", match: [][]Value{row(1, 5, "x")}, miss: [][]Value{row(1, 4, "x")},
			key: row(0, 5), keyCol: 1},
		{sql: "SELECT id FROM a WHERE s = 'ab' AND k < 9", table: "a", match: [][]Value{row(1, 5, "ab")}, miss: [][]Value{row(1, 10, "ab")},
			key: row(0, 0, "ab"), keyCol: 2},
		{sql: "SELECT a.id FROM a JOIN b ON a.id = b.aid AND b.t = 'x' WHERE a.k = 5", table: "b",
			match: [][]Value{row(1, 7, "x")}, miss: [][]Value{row(1, 1, "y")}, key: row(0, 0, "x"), keyCol: 2},
		{sql: "SELECT a.id FROM a JOIN b ON a.id = b.aid WHERE a.k = 5", table: "b", whole: true},
		// An unqualified column the planner attributes to b alone.
		{sql: "SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE t = 'x'", table: "b",
			match: [][]Value{row(1, 7, "x")}, miss: [][]Value{row(1, 1, "y")}, key: row(0, 0, "x"), keyCol: 2},
		// Implied equality: a.id = 1 and a.id = b.aid bind b.aid = 1.
		{sql: "SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE a.id = 1", table: "b",
			match: [][]Value{row(5, 1, "q")}, miss: [][]Value{row(5, 2, "q"), row(5, nil, "q")}, key: row(0, 1), keyCol: 1},
		{sql: "SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE a.id = 1", table: "a",
			match: [][]Value{row(1, 9, "q")}, miss: [][]Value{row(2, 5, "ab")}, key: row(1), keyCol: 0},
		{sql: "SELECT a.id FROM a LEFT JOIN b ON a.id = b.aid WHERE a.k = 5", table: "a", whole: true},
		{sql: "SELECT x.id FROM a x JOIN a y ON x.id = y.k WHERE x.k = 5", table: "a", whole: true},
		{sql: "SELECT id FROM a WHERE s = 5", table: "a", whole: true},     // a text column against a number
		{sql: "SELECT id FROM a WHERE k = 'abc'", table: "a", whole: true}, // not a number
		{sql: "SELECT id FROM a WHERE k = 'NaN'", table: "a", whole: true}, // not a number either
		{sql: "SELECT id FROM a WHERE k + 1 = 6", table: "a", whole: true}, // arithmetic may overflow
		{sql: "SELECT id FROM a WHERE id = 1 OR k = 2", table: "a", match: [][]Value{row(1, 7, "q"), row(3, 2, "q")}, miss: [][]Value{row(3, 3, "q")}},
	} {
		p := pred(c.sql, c.table)
		if (p == nil) != c.whole {
			t.Errorf("%s, %s: predicate %v, want whole %v", c.sql, c.table, p, c.whole)
			continue
		}
		ch := chA
		if c.table == "b" {
			ch = chB
		}
		for _, img := range c.match {
			if !p.Matches(ch, img) {
				t.Errorf("%s: %v does not match", c.sql, img)
			}
		}
		for _, img := range c.miss {
			if p.Matches(ch, img) {
				t.Errorf("%s: %v matches", c.sql, img)
			}
		}
		k, keyed := p.Key()
		if c.key == nil {
			if keyed && !c.whole {
				t.Errorf("%s: keyed %v, want no key", c.sql, k)
			}
			continue
		}
		want, _ := ImageKey(c.key, c.keyCol)
		if !keyed || !reflect.DeepEqual(k, want) {
			t.Errorf("%s: key %v %v, want %v", c.sql, k, keyed, want)
		}
	}
	// An image of another layout than the predicate's matches whatever it
	// holds: the table was dropped and created since.
	p := pred("SELECT id FROM a WHERE k = 5", "a")
	if !p.Matches(&Change{t: &Table{}}, row(1, 6, "zz")) {
		t.Errorf("an image of another layout does not match")
	}
}

// TestImageKeysMeetAsCompareDoes: an image's key under a column equals a
// constant's key whenever Compare finds the two equal — 5, 5.0 and '5'
// against an INTEGER, -0 and 0 — so a bucket never hides an image.
func TestImageKeysMeetAsCompareDoes(t *testing.T) {
	num, _ := ImageKey([]Value{NewInt(5)}, 0)
	for _, v := range []Value{NewFloat(5), NewInt(5)} {
		if k, ok := ImageKey([]Value{v}, 0); !ok || k != num {
			t.Errorf("%v: key %v, want %v", v, k, num)
		}
	}
	zero, _ := ImageKey([]Value{NewFloat(0)}, 0)
	if k, _ := ImageKey([]Value{NewFloat(math.Copysign(0, -1))}, 0); k != zero {
		t.Errorf("-0 and 0 have two keys")
	}
	if _, ok := ImageKey([]Value{Null}, 0); ok {
		t.Errorf("NULL has a key")
	}
}
