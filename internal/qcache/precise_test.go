package qcache_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// preciseDB numbers the databases FuzzPreciseInvalidation registers.
var preciseDB atomic.Int64

// preciseSchema is two small tables the generated statements read and
// write: a has an indexed INTEGER key, a text and a nullable DOUBLE; b
// joins to a.
const preciseSchema = `
CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, s VARCHAR(8), x DOUBLE);
CREATE INDEX a_k ON a (k);
CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, t VARCHAR(8));
INSERT INTO a VALUES (1, 1, 'ab', 1.5);
INSERT INTO a VALUES (2, 1, 'b', NULL);
INSERT INTO a VALUES (3, 2, 'abc', 2);
INSERT INTO a VALUES (4, 3, '7', 0);
INSERT INTO b VALUES (1, 1, 'ab');
INSERT INTO b VALUES (2, 3, 'b');
INSERT INTO b VALUES (3, 9, 'c');
INSERT INTO a VALUES (50, 100, 'zzz', 0);
`

// preciseBurst is how many commits a burst step makes after its write:
// more than a table's ring of change records holds, so a read cached
// before the burst meets a ring that no longer covers it. They rewrite
// row 50 of a, which no generated read's predicate on a is true of.
const preciseBurst = 70

// preciseReads are the SELECTs the fuzzer picks from, %d a small number
// and %s a short text: equality, ranges, LIKE prefixes, IS NULL, inner
// and LEFT joins and GROUP BY, numbers against text and text against
// numbers, an unqualified column of a joined table, a join key bound by
// implied equality, and the rows a LEFT join matches with none.
var preciseReads = []string{
	"SELECT id, k, s FROM a WHERE k = %d ORDER BY id",
	"SELECT id FROM a WHERE k < %d ORDER BY id",
	"SELECT id, s FROM a WHERE s LIKE '%s%%' ORDER BY id",
	"SELECT id FROM a WHERE x IS NULL ORDER BY id",
	"SELECT id FROM a WHERE k = '%d' AND x > 1 ORDER BY id",
	"SELECT id FROM a WHERE s = %d ORDER BY id",
	"SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE a.k = %d ORDER BY a.id, b.id",
	"SELECT a.id, b.t FROM a LEFT JOIN b ON a.id = b.aid WHERE a.k = %d ORDER BY a.id, b.t",
	"SELECT k, COUNT(*), SUM(x) FROM a WHERE s LIKE '%s%%' GROUP BY k ORDER BY k",
	"SELECT b.t, COUNT(*) FROM a JOIN b ON a.id = b.aid AND b.t = '%s' GROUP BY b.t ORDER BY b.t",
	"SELECT COUNT(*) FROM a, b WHERE a.id = b.aid AND a.s = '%s'",
	"SELECT id FROM b WHERE aid = %d OR t IS NULL ORDER BY id",
	"SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE t = '%s' ORDER BY a.id, t",
	"SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE a.id = %d ORDER BY a.id, b.id",
	"SELECT a.id FROM a LEFT JOIN b ON a.id = b.aid WHERE b.t IS NULL ORDER BY a.id",
}

// preciseWrites are the single-row writes, %[1]d a row id, %[2]d a small
// number and %[3]s a short text.
var preciseWrites = []string{
	"INSERT INTO a VALUES (%[1]d, %[2]d, '%[3]s', %[2]d)",
	"INSERT INTO a VALUES (%[1]d, %[2]d, '%[3]s', NULL)",
	"UPDATE a SET k = %[2]d WHERE id = %[1]d",
	"UPDATE a SET s = '%[3]s' WHERE id = %[1]d",
	"UPDATE a SET x = NULL WHERE id = %[1]d",
	"UPDATE a SET x = %[2]d WHERE id = %[1]d",
	"DELETE FROM a WHERE id = %[1]d",
	"INSERT INTO b VALUES (%[1]d, %[2]d, '%[3]s')",
	"UPDATE b SET aid = %[2]d WHERE id = %[1]d",
	"UPDATE b SET t = '%[3]s' WHERE id = %[1]d",
	"DELETE FROM b WHERE id = %[1]d",
}

var preciseTexts = []string{"a", "ab", "b", "abc", "c", "7", "1"}

// FuzzPreciseInvalidation interleaves generated SELECTs with generated
// single-row writes — some inside a transaction that is rolled back, some
// two to a committed one, some followed by a burst of commits longer than
// the engine keeps change records for — on a two-table database, and
// requires after every step that each SELECT generated so far answers
// through the cache what it answers on a connection without one: same
// columns, rows and error, and no error but a comparison of text with a
// number, the one the generated reads make on purpose. Writes go through a
// session of their own, so what the cache knows of them is the engine's
// change records alone — but for one step, in which the cached connection
// opens a transaction itself with the SQL text BEGIN, writes, reads every
// SELECT so far, and commits or rolls back: its reads must see its write,
// as the same transaction does on a connection without a cache.
func FuzzPreciseInvalidation(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 12; i++ {
		seed := make([]byte, 160)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		name := fmt.Sprintf("PRECISE%d", preciseDB.Add(1))
		db := sqldb.NewDatabase(name)
		w := sqldb.NewSession(db)
		defer w.Close()
		if _, err := w.ExecScript(preciseSchema); err != nil {
			t.Fatal(err)
		}
		sqldriver.Register(name, db)
		defer sqldriver.Unregister(name)
		cache := qcache.New(1 << 20)
		cached, err := (&gateway.SQLProvider{Cache: cache}).Connect(name, "", "")
		if err != nil {
			t.Fatal(err)
		}
		defer cached.Close()
		direct, err := gateway.NewSQLProvider().Connect(name, "", "")
		if err != nil {
			t.Fatal(err)
		}
		defer direct.Close()

		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		write := func() string {
			return fmt.Sprintf(preciseWrites[next()%len(preciseWrites)],
				1+next()%6, next()%4, preciseTexts[next()%len(preciseTexts)])
		}
		var reads []string
		seen := map[string]bool{}
		for step := 0; len(prog) > 0 && step < 64; step++ {
			switch op := next() % 10; {
			case op < 4:
				q := preciseReads[next()%len(preciseReads)]
				switch {
				case strings.Contains(q, "%s"):
					q = fmt.Sprintf(q, preciseTexts[next()%len(preciseTexts)])
				case strings.Contains(q, "%d"):
					q = fmt.Sprintf(q, next()%4)
				}
				if !seen[q] {
					seen[q] = true
					reads = append(reads, q)
				}
			case op < 6:
				w.Exec(write()) // a write that fails (a duplicate id) still bumps
			case op == 6:
				w.Exec("BEGIN")
				w.Exec(write())
				w.Exec(write())
				w.Exec("ROLLBACK")
			case op == 7:
				w.Exec("BEGIN")
				w.Exec(write())
				w.Exec(write())
				w.Exec("COMMIT")
			case op == 8:
				q, end := write(), []string{"ROLLBACK", "COMMIT"}[next()%2]
				want := txnAnswers(direct, q, reads, "ROLLBACK")
				if got := txnAnswers(cached, q, reads, end); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: BEGIN; %s; the reads; %s\ncached: %q\ndirect: %q", step, q, end, got, want)
				}
			default:
				w.Exec(write())
				for i := 0; i < preciseBurst; i++ {
					if _, err := w.Exec(fmt.Sprintf("UPDATE a SET x = %d WHERE id = 50", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, q := range reads {
				got, gerr := cached.Execute(q)
				want, werr := direct.Execute(q)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || !sameResult(got, want) {
					t.Fatalf("step %d: %s\ncached: %v %v\ndirect: %v %v", step, q, resultRows(got), gerr, resultRows(want), werr)
				}
				// Every generated read binds against the schema: the one error
				// it may meet is a comparison of text with a number.
				var se *sqldb.Error
				if werr != nil && (!errors.As(werr, &se) || se.Code != sqldb.CodeDatatypeMismatch) {
					t.Fatalf("step %d: %s: %v", step, q, werr)
				}
			}
		}
	})
}

// txnAnswers runs write and then reads on conn in a transaction opened and
// closed with the SQL texts BEGIN and end, and returns what each statement
// answered.
func txnAnswers(conn core.DBConn, write string, reads []string, end string) []string {
	var out []string
	for _, q := range append(append([]string{"BEGIN", write}, reads...), end) {
		res, err := conn.Execute(q)
		if res == nil {
			out = append(out, fmt.Sprint(err))
			continue
		}
		out = append(out, fmt.Sprint(res.Columns, res.Rows, res.RowsAffected, err))
	}
	return out
}

func sameResult(a, b *core.SQLResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(a.Columns, b.Columns) && reflect.DeepEqual(resultRows(a), resultRows(b))
}

func resultRows(r *core.SQLResult) [][]core.Field {
	if r == nil {
		return nil
	}
	return r.Rows
}

// TestJoinReadKeepsThePlansPredicate: a join's cached read keeps, on the
// joined table, the conjuncts the planner gives it — an unqualified
// column of that table alone, and the equality implied by a join key
// bound to a constant — so a write to the table whose old and new images
// fail them leaves the read a hit, and one whose new image satisfies them
// drops it.
func TestJoinReadKeepsThePlansPredicate(t *testing.T) {
	name := fmt.Sprintf("PRECISE%d", preciseDB.Add(1))
	db := sqldb.NewDatabase(name)
	w := sqldb.NewSession(db)
	defer w.Close()
	if _, err := w.ExecScript(preciseSchema); err != nil {
		t.Fatal(err)
	}
	sqldriver.Register(name, db)
	defer sqldriver.Unregister(name)
	cache := qcache.New(1 << 20)
	cached, err := (&gateway.SQLProvider{Cache: cache}).Connect(name, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	direct, err := gateway.NewSQLProvider().Connect(name, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()

	reads := []string{
		"SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE t = 'ab' ORDER BY a.id",
		"SELECT a.id, t FROM a JOIN b ON a.id = b.aid WHERE a.id = 1 ORDER BY t",
	}
	// read runs q through the cache and says whether it was a hit.
	read := func(q string) bool {
		t.Helper()
		hits := cache.Stats().Hits
		got, gerr := cached.Execute(q)
		want, werr := direct.Execute(q)
		if gerr != nil || werr != nil || !sameResult(got, want) {
			t.Fatalf("%s\ncached: %v %v\ndirect: %v %v", q, resultRows(got), gerr, resultRows(want), werr)
		}
		return cache.Stats().Hits > hits
	}
	for _, q := range reads {
		read(q)
		if !read(q) {
			t.Fatalf("%s: not a hit when repeated", q)
		}
	}
	// b's row 3 (aid 9, t 'c') neither before nor after: t is not 'ab' and
	// aid is not 1.
	if _, err := w.Exec("UPDATE b SET t = 'z' WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	for _, q := range reads {
		if !read(q) {
			t.Errorf("%s: dropped by a write to b whose images fail its predicate on b", q)
		}
	}
	// Its new image has aid 1: the second read's implied b.aid = 1.
	if _, err := w.Exec("UPDATE b SET aid = 1 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if !read(reads[0]) {
		t.Errorf("%s: dropped by a write whose images have t 'z'", reads[0])
	}
	if read(reads[1]) {
		t.Errorf("%s: still a hit after a write whose new image has aid 1", reads[1])
	}
}
