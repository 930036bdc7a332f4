package sqldb

import (
	"errors"
	"math/rand"
	"strconv"
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

// exec runs sql with args down both paths and requires one outcome: the
// SQLSTATE of the error (its text may render an extracted literal as ?),
// or the result byte for byte — column names, rows in order, affected-row
// count. Parsed afresh, a text with more ? than args is 07001 unrun.
func (o *cacheOracle) exec(t testing.TB, sql string, args ...Value) {
	t.Helper()
	got, gotErr := o.cached.Exec(sql, args...)
	st, wantErr := Parse(sql)
	var want *Result
	if wantErr == nil && countParams(sql) > len(args) {
		wantErr = &Error{Code: CodeParamCount}
	} else if wantErr == nil {
		want, wantErr = o.fresh.ExecStmt(st, args...)
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

// countParams is the number of ? tokens of a text that lexes.
func countParams(sql string) int {
	toks, _ := lexSQL(sql)
	n := 0
	for _, t := range toks {
		if t.kind == tkParam {
			n++
		}
	}
	return n
}

// oracleArgs splits an oracle statement at its first | into the text and
// its arguments, a comma-separated tail: NULL, an integer, a float, or
// else a string as written.
func oracleArgs(stmt string) (string, []Value) {
	sql, tail, ok := strings.Cut(stmt, "|")
	if !ok {
		return sql, nil
	}
	var args []Value
	for _, a := range strings.Split(tail, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if a == "NULL" {
			args = append(args, Null)
		} else if i, err := strconv.ParseInt(a, 10, 64); err == nil {
			args = append(args, NewInt(i))
		} else if f, err := strconv.ParseFloat(a, 64); err == nil {
			args = append(args, NewFloat(f))
		} else {
			args = append(args, NewString(a))
		}
	}
	return sql, args
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
// writes: a script of statements apart by semicolons, each with the
// arguments of its ? after a | (oracleArgs), and for each of them a byte
// that picks the catalog churn to run first, or none.
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
	// A text of literals and ? alike, its shape shared with texts that
	// place them otherwise; a ? in ORDER BY, which is no ordinal; EXPLAIN
	// with arguments; writes with a NULL argument; too few arguments, and
	// one too many.
	f.Add("SELECT name FROM emp WHERE dept = 2 AND id > ? AND salary < ?|3,1500.5;SELECT name FROM emp WHERE dept = ? AND id > 3 AND salary < ?|2,1500.5;SELECT name FROM emp WHERE dept = 2 AND id > 3 AND salary < 1500.5", []byte{255, 0})
	f.Add("SELECT id, name FROM emp WHERE id < ? ORDER BY ?|5,1;SELECT id, name FROM emp WHERE id < 5 ORDER BY 1;SELECT id, name FROM emp WHERE id < ? ORDER BY ? DESC|5,x", []byte{255})
	f.Add("EXPLAIN SELECT name FROM emp WHERE id = ?|4;EXPLAIN SELECT name FROM emp WHERE dept = ? AND id > 1|2", []byte{0, 255})
	f.Add("INSERT INTO emp VALUES (?, ?, ?, ?)|77,x,NULL,1.5;UPDATE emp SET salary = ? WHERE id = ?|2.5,77;SELECT * FROM emp WHERE id = ?|77", []byte{255})
	f.Add("SELECT name FROM emp WHERE id = ? AND dept = ?|999;DELETE FROM emp WHERE id = 999 AND dept = ?|;SELECT name FROM emp WHERE id = ? AND dept = ?|5;SELECT name FROM emp WHERE id = ?|5,6", []byte{255})
	f.Fuzz(func(t *testing.T, script string, churn []byte) {
		o := newCacheOracle(t, 6)
		defer o.cached.Close()
		defer o.fresh.Close()
		for i, stmt := range strings.Split(script, ";") {
			sql, args := oracleArgs(stmt)
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
			o.exec(t, sql, args...)
		}
	})
}
