package sqldb

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// cacheOracle is the property the parse cache rests on: whatever happened
// to the catalog since a text was first seen, executing it through
// Session.Exec — which resolves it in the cache — does what parsing it
// afresh and executing the tree does. Two databases get one history, one
// through each path.
type cacheOracle struct {
	cached, fresh *Session
}

func newCacheOracle(t testing.TB, emps int) *cacheOracle {
	o := &cacheOracle{cached: NewSession(NewDatabase("cached")), fresh: NewSession(NewDatabase("fresh"))}
	for _, sql := range planSeedStmts(emps) {
		o.exec(t, sql)
	}
	return o
}

// exec runs sql down both paths and requires one outcome: the SQLSTATE of
// the error (its text may render an extracted literal as ?), or the result
// byte for byte — column names, rows in order, affected-row count.
func (o *cacheOracle) exec(t testing.TB, sql string) {
	t.Helper()
	got, gotErr := o.cached.Exec(sql)
	st, wantErr := Parse(sql)
	var want *Result
	if wantErr == nil {
		want, wantErr = o.fresh.ExecStmt(st)
	}
	if gotErr != nil || wantErr != nil {
		if sqlState(gotErr) != sqlState(wantErr) {
			t.Fatalf("%q:\n cached: %v\n parsed afresh: %v", sql, gotErr, wantErr)
		}
		return
	}
	if g, w := resultBytes(got), resultBytes(want); g != w {
		t.Fatalf("%q:\n cached: %s\n parsed afresh: %s", sql, g, w)
	}
}

func sqlState(err error) string {
	var e *Error
	switch {
	case err == nil:
		return "00000"
	case errors.As(err, &e):
		return e.Code
	}
	return err.Error()
}

// cacheOracleDDL is the catalog churn the oracle interleaves: everything
// that used to bump a schema version, and what rolled one back.
var cacheOracleDDL = [][]string{
	{"CREATE INDEX emp_sal ON emp (salary)"},
	{"DROP INDEX emp_sal"},
	{"DROP INDEX emp_dept"},
	{"CREATE INDEX emp_dept ON emp (dept)"},
	{"DROP TABLE dept",
		"CREATE TABLE dept (loc VARCHAR(40), id INTEGER PRIMARY KEY, budget DOUBLE)",
		"INSERT INTO dept VALUES ('east', 1, 10.5), ('west', 2, 20.5), ('hq', 9, 1.5)"},
	{"DROP TABLE dept",
		"CREATE TABLE dept (id INTEGER PRIMARY KEY, dname VARCHAR(40), loc VARCHAR(40))",
		"INSERT INTO dept VALUES (1, 'dept1', 'east'), (2, 'dept2', 'west'), (3, 'dept3', 'north')"},
	{"DROP TABLE emp",
		"CREATE TABLE emp (name VARCHAR(40), id INTEGER PRIMARY KEY, dept INTEGER, salary DOUBLE, note VARCHAR(10))",
		"INSERT INTO emp VALUES ('n01', 1, 2, 1037.5, 'n'), ('n02', 2, 3, 1074.5, NULL)"},
	{"DROP TABLE emp",
		"CREATE TABLE emp (id INTEGER PRIMARY KEY, name VARCHAR(40), dept INTEGER, salary DOUBLE)",
		"CREATE INDEX emp_dept ON emp (dept)",
		"INSERT INTO emp VALUES (1, 'n01', 2, 1037.5), (2, 'n02', 3, 1074.5), (3, 'n03', 4, 1111.5)"},
	{"BEGIN", "CREATE TABLE scratch (x INTEGER)", "DROP INDEX emp_dept",
		"DROP TABLE emp", "CREATE TABLE emp (id INTEGER)", "DROP TABLE dept", "ROLLBACK"},
}

// ordinalSequences are ROADMAP item 5e's three wrong answers: statements
// one digest reads alike and one tree cannot serve.
var ordinalSequences = []string{
	"SELECT name, salary FROM emp WHERE id < 9 ORDER BY 1 DESC",
	"SELECT name, salary FROM emp WHERE id < 9 ORDER BY 2 DESC",
	"SELECT id, name FROM emp WHERE id < 4 ORDER BY 3",
	"SELECT id, name FROM emp WHERE id < 4 ORDER BY 0",
	"SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 2 DESC",
	"SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY 1 DESC",
	"SELECT id, name FROM emp WHERE dept = 2 ORDER BY 1",
	"SELECT id, name FROM emp WHERE dept = 2 ORDER BY 5",
	"SELECT CAST(salary AS VARCHAR(3)), NAME FROM emp WHERE id = 2",
	"SELECT CAST(salary AS VARCHAR(9)), name FROM emp WHERE id = 3",
	`SELECT "NAME" AS "n m" FROM EMP WHERE id = 3`,
}

// TestParseCacheEquivalence walks the corpus of TestPlanCacheByteIdentical
// and the ordinal sequences round after round, with a seeded choice of
// catalog churn before each statement.
func TestParseCacheEquivalence(t *testing.T) {
	corpus := append(append([]string(nil), planCorpus...), ordinalSequences...)
	for seed := int64(1); seed <= 4; seed++ {
		o := newCacheOracle(t, 30)
		r := rand.New(rand.NewSource(seed))
		for round := 0; round < 12; round++ {
			for _, sql := range corpus {
				if r.Intn(3) == 0 {
					for _, ddl := range cacheOracleDDL[r.Intn(len(cacheOracleDDL))] {
						o.exec(t, ddl)
					}
				}
				o.exec(t, sql)
			}
		}
		st := o.cached.db.PlanCacheStats()
		if st.Hits < 5*st.Misses {
			t.Fatalf("seed %d: the repeats were not served from the cache: %+v", seed, st)
		}
		if off := o.fresh.db.PlanCacheStats(); off.Hits+off.Misses+off.Bypasses != 0 {
			t.Fatalf("Parse + ExecStmt touched the cache: %+v", off)
		}
	}
}

// FuzzParseCacheEquivalence is the same oracle over whatever the fuzzer
// writes: a script of statements apart by semicolons, and for each of them
// a byte that picks the catalog churn to run first, or none.
func FuzzParseCacheEquivalence(f *testing.F) {
	// Short scripts: the fuzzer minimizes every input it keeps, one byte at
	// a time.
	corpus := append(append([]string(nil), ordinalSequences...), planCorpus...)
	for i := 0; i+2 <= len(corpus); i += 2 {
		pair := corpus[i] + ";" + corpus[i+1]
		f.Add(pair, []byte{255, byte(i % len(cacheOracleDDL))})
		f.Add(pair+";"+pair, []byte{255, 255, byte((i + 4) % len(cacheOracleDDL)), byte((i + 5) % len(cacheOracleDDL))})
	}
	f.Add("SELECT name FROM emp WHERE id = 1;select NAME from emp where id = 2;SELECT name FROM emp WHERE id = 3", []byte{8})
	f.Add("BEGIN;UPDATE emp SET salary = 1.5 WHERE id = 1;SELECT salary FROM emp WHERE id = 1;ROLLBACK;SELECT salary FROM emp WHERE id = 1", []byte{255, 255, 0})
	f.Fuzz(func(t *testing.T, script string, churn []byte) {
		o := newCacheOracle(t, 6)
		defer o.cached.Close()
		defer o.fresh.Close()
		for i, sql := range strings.Split(script, ";") {
			// Every relation multiplies the rows of a product; a statement
			// listing many would spend the fuzzing budget on one cross join.
			if strings.Count(sql, ",")+strings.Count(strings.ToUpper(sql), "JOIN") > 6 {
				continue
			}
			if len(churn) > 0 {
				if op := int(churn[i%len(churn)]); op < len(cacheOracleDDL) {
					for _, ddl := range cacheOracleDDL[op] {
						o.exec(t, ddl)
					}
				}
			}
			o.exec(t, sql)
		}
	})
}
