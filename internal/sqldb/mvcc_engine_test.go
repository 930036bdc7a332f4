package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newMVCCTestDB(t *testing.T, rows int) (*Database, *Session) {
	t.Helper()
	db := NewDatabase("MVCCTEST")
	s := NewSession(db)
	t.Cleanup(func() { s.Close() })
	if _, err := s.Exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)"); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 1; i <= rows; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO acct VALUES (%d, 100)", i)); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	return db, s
}

func queryInt(t *testing.T, s *Session, sql string) int64 {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("Exec(%q): want 1x1 result, got %dx?", sql, len(res.Rows))
	}
	return res.Rows[0][0].I
}

// TestSnapshotIsolationRepeatableRead: a transaction keeps reading the
// database as of its snapshot even while another session commits over it.
func TestSnapshotIsolationRepeatableRead(t *testing.T) {
	db, s := newMVCCTestDB(t, 2)
	reader := NewSession(db)
	defer reader.Close()

	if err := reader.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, reader, "SELECT bal FROM acct WHERE id = 1"); got != 100 {
		t.Fatalf("initial read = %d, want 100", got)
	}
	mustExec(t, s, "UPDATE acct SET bal = 250 WHERE id = 1")
	mustExec(t, s, "DELETE FROM acct WHERE id = 2")
	mustExec(t, s, "INSERT INTO acct VALUES (3, 300)")

	// The open transaction still sees the world as of its snapshot.
	if got := queryInt(t, reader, "SELECT bal FROM acct WHERE id = 1"); got != 100 {
		t.Fatalf("repeatable read broken: bal = %d, want 100", got)
	}
	if got := queryInt(t, reader, "SELECT COUNT(*) FROM acct"); got != 2 {
		t.Fatalf("snapshot row count = %d, want 2", got)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	// A fresh statement sees the committed state.
	if got := queryInt(t, reader, "SELECT bal FROM acct WHERE id = 1"); got != 250 {
		t.Fatalf("post-commit read = %d, want 250", got)
	}
	if got := queryInt(t, reader, "SELECT COUNT(*) FROM acct"); got != 2 {
		t.Fatalf("post-commit count = %d, want 2 (one deleted, one inserted)", got)
	}
}

// TestReadersDoNotBlockOnOpenWriter: with a write transaction holding
// pending versions, point reads from other sessions complete immediately
// (the heart of the A9 win; under the old engine they blocked on the
// global write lock).
func TestReadersDoNotBlockOnOpenWriter(t *testing.T) {
	db, s := newMVCCTestDB(t, 2)
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE acct SET bal = 999 WHERE id = 1")

	done := make(chan int64, 1)
	go func() {
		r := NewSession(db)
		defer r.Close()
		res, err := r.Exec("SELECT bal FROM acct WHERE id = 1")
		if err != nil {
			done <- -1
			return
		}
		done <- res.Rows[0][0].I
	}()
	select {
	case got := <-done:
		if got != 100 {
			t.Fatalf("concurrent reader saw %d, want pre-txn 100", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reader blocked behind an open write transaction")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 999 {
		t.Fatalf("bal = %d after commit, want 999", got)
	}
}

// TestFirstCommitterWinsPendingConflict: a write to a row another open
// transaction has already written is refused with SQLSTATE 40001.
func TestFirstCommitterWinsPendingConflict(t *testing.T) {
	db, s1 := newMVCCTestDB(t, 1)
	s2 := NewSession(db)
	defer s2.Close()

	if err := s1.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if err := s2.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE acct SET bal = 1 WHERE id = 1")
	_, err := s2.Exec("UPDATE acct SET bal = 2 WHERE id = 1")
	if !IsSerializationFailure(err) {
		t.Fatalf("overlapping write: err = %v, want serialization failure", err)
	}
	if err := s2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s1, "SELECT bal FROM acct WHERE id = 1"); got != 1 {
		t.Fatalf("bal = %d, want winner's 1", got)
	}
	if st := db.TxnStats(); st.Conflicts == 0 {
		t.Fatalf("TxnStats.Conflicts = 0 after a conflict rollback")
	}
}

// TestFirstCommitterWinsCommittedConflict: a transaction whose snapshot
// predates another's committed write to the same row loses even though
// the winner is already gone.
func TestFirstCommitterWinsCommittedConflict(t *testing.T) {
	db, s1 := newMVCCTestDB(t, 1)
	s2 := NewSession(db)
	defer s2.Close()

	if err := s2.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	// Take s2's snapshot before s1 commits.
	queryInt(t, s2, "SELECT bal FROM acct WHERE id = 1")
	mustExec(t, s1, "UPDATE acct SET bal = 500 WHERE id = 1") // auto-commits
	_, err := s2.Exec("UPDATE acct SET bal = 2 WHERE id = 1")
	if !IsSerializationFailure(err) {
		t.Fatalf("write after committed overlap: err = %v, want serialization failure", err)
	}
	if err := s2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s1, "SELECT bal FROM acct WHERE id = 1"); got != 500 {
		t.Fatalf("bal = %d, want 500", got)
	}
}

// TestDisjointWritersBothCommit: transactions writing different rows
// proceed in parallel and both commit.
func TestDisjointWritersBothCommit(t *testing.T) {
	db, s1 := newMVCCTestDB(t, 2)
	s2 := NewSession(db)
	defer s2.Close()

	if err := s1.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if err := s2.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "UPDATE acct SET bal = 111 WHERE id = 1")
	mustExec(t, s2, "UPDATE acct SET bal = 222 WHERE id = 2")
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s1, "SELECT bal FROM acct WHERE id = 1"); got != 111 {
		t.Fatalf("row 1 = %d, want 111", got)
	}
	if got := queryInt(t, s1, "SELECT bal FROM acct WHERE id = 2"); got != 222 {
		t.Fatalf("row 2 = %d, want 222", got)
	}
}

// TestStatementAbortKeepsTransactionConsistent: a failed statement
// inside a transaction rolls back only its own effects.
func TestStatementAbortKeepsTransactionConsistent(t *testing.T) {
	_, s := newMVCCTestDB(t, 1)
	if err := s.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE acct SET bal = 77 WHERE id = 1")
	// Multi-row insert where the second row violates the primary key:
	// the whole statement must vanish, the earlier update must stay.
	if _, err := s.Exec("INSERT INTO acct VALUES (5, 1), (1, 2)"); err == nil {
		t.Fatalf("duplicate-key insert unexpectedly succeeded")
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM acct"); got != 1 {
		t.Fatalf("count = %d after aborted statement, want 1", got)
	}
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 77 {
		t.Fatalf("bal = %d, want earlier statement's 77", got)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 77 {
		t.Fatalf("bal = %d after commit, want 77", got)
	}
}

// TestCommitAtomicVisibility: a transaction writing several rows becomes
// visible all-or-nothing; no reader ever observes a partial commit.
func TestCommitAtomicVisibility(t *testing.T) {
	db, s := newMVCCTestDB(t, 4)
	stop := make(chan struct{})
	var torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewSession(db)
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := r.Exec("SELECT MIN(bal), MAX(bal) FROM acct")
				if err != nil {
					t.Error(err)
					return
				}
				// All four rows always carry the same balance: every
				// writer updates them in one transaction.
				if res.Rows[0][0].I != res.Rows[0][1].I {
					torn.Add(1)
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		if err := s.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, fmt.Sprintf("UPDATE acct SET bal = %d", round))
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads: readers saw a partially applied transaction", n)
	}
}

// TestConcurrentOverlappingWritersAutoCommit: auto-commit increments to
// one row from many goroutines; the engine's internal retry makes every
// increment land exactly once.
func TestConcurrentOverlappingWritersAutoCommit(t *testing.T) {
	db, s := newMVCCTestDB(t, 1)
	const workers, increments = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewSession(db)
			defer w.Close()
			for j := 0; j < increments; j++ {
				if _, err := w.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 1"); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 100+workers*increments {
		t.Fatalf("bal = %d, want %d (lost update)", got, 100+workers*increments)
	}
}

// TestConcurrentOverlappingWritersExplicitTxn: explicit transactions
// racing on one row, application-level retry on serialization failure.
func TestConcurrentOverlappingWritersExplicitTxn(t *testing.T) {
	db, s := newMVCCTestDB(t, 1)
	const workers, increments = 6, 15
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewSession(db)
			defer w.Close()
			for j := 0; j < increments; j++ {
				for {
					if err := w.BeginTxn(); err != nil {
						t.Error(err)
						return
					}
					_, err := w.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 1")
					if err == nil {
						err = w.Commit()
					}
					if err == nil {
						break
					}
					w.Rollback()
					if !IsSerializationFailure(err) {
						t.Errorf("non-retryable error: %v", err)
						return
					}
					conflicts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 100+workers*increments {
		t.Fatalf("bal = %d, want %d (lost update)", got, 100+workers*increments)
	}
	if st := db.TxnStats(); st.Conflicts != uint64(conflicts.Load()) {
		t.Fatalf("TxnStats.Conflicts = %d, application saw %d", st.Conflicts, conflicts.Load())
	}
}

// TestConcurrentDisjointWriters: writers on disjoint rows, with readers
// mixed in, under -race.
func TestConcurrentDisjointWriters(t *testing.T) {
	db, s := newMVCCTestDB(t, 8)
	const increments = 30
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := NewSession(db)
			defer w.Close()
			for j := 0; j < increments; j++ {
				if _, err := w.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", id)); err != nil {
					t.Errorf("row %d: %v", id, err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := NewSession(db)
		defer r.Close()
		for k := 0; k < 100; k++ {
			if _, err := r.Exec("SELECT SUM(bal) FROM acct"); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if got := queryInt(t, s, "SELECT SUM(bal) FROM acct"); got != 8*(100+increments) {
		t.Fatalf("sum = %d, want %d", got, 8*(100+increments))
	}
}

// TestVacuumReclaimsDeadVersions: burned-through versions are reclaimed
// once no snapshot can see them, and live data survives.
func TestVacuumReclaimsDeadVersions(t *testing.T) {
	db, s := newMVCCTestDB(t, 1)
	for i := 0; i < 50; i++ {
		mustExec(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
	}
	mustExec(t, s, "INSERT INTO acct VALUES (2, 5)")
	mustExec(t, s, "DELETE FROM acct WHERE id = 2")

	// Commit-time pruning (settleCommitted) may have reclaimed some
	// already; the sweep must get the rest.
	db.Vacuum()
	tab, err := db.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	tab.mu.RLock()
	chains := 0
	for _, r := range tab.rows {
		for v := r.head; v != nil; v = v.prev {
			chains++
		}
	}
	rows := len(tab.rows)
	tab.mu.RUnlock()
	if rows != 1 {
		t.Fatalf("%d stored rows after vacuum, want 1 (deleted row compacted)", rows)
	}
	if chains != 1 {
		t.Fatalf("%d versions after vacuum, want 1", chains)
	}
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 150 {
		t.Fatalf("bal = %d after vacuum, want 150", got)
	}
	if st := db.TxnStats(); st.VacuumedRows == 0 {
		t.Fatalf("TxnStats.VacuumedRows = 0 after churn")
	}
}

// TestVacuumRespectsLiveSnapshot: versions an open transaction can still
// see are not reclaimed.
func TestVacuumRespectsLiveSnapshot(t *testing.T) {
	db, s := newMVCCTestDB(t, 1)
	reader := NewSession(db)
	defer reader.Close()
	if err := reader.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	queryInt(t, reader, "SELECT bal FROM acct WHERE id = 1") // pin snapshot
	for i := 0; i < 10; i++ {
		mustExec(t, s, "UPDATE acct SET bal = bal + 1 WHERE id = 1")
	}
	db.Vacuum()
	if got := queryInt(t, reader, "SELECT bal FROM acct WHERE id = 1"); got != 100 {
		t.Fatalf("pinned snapshot read %d after vacuum, want 100", got)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	db.Vacuum()
	if got := queryInt(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 110 {
		t.Fatalf("bal = %d, want 110", got)
	}
}

// TestDDLConflictsWithPendingWrites: DROP TABLE refuses to run over
// another transaction's uncommitted rows instead of orphaning them.
func TestDDLConflictsWithPendingWrites(t *testing.T) {
	db, s := newMVCCTestDB(t, 1)
	w := NewSession(db)
	defer w.Close()
	if err := w.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, w, "INSERT INTO acct VALUES (9, 9)")

	_, err := s.Exec("DROP TABLE acct")
	if !IsSerializationFailure(err) {
		t.Fatalf("DROP over pending writes: err = %v, want serialization failure", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := queryInt(t, s, "SELECT COUNT(*) FROM acct"); got != 2 {
		t.Fatalf("count after the refused DROP = %d, want 2", got)
	}
	mustExec(t, s, "DROP TABLE acct")
}

// --- differential property test ---

// oracleDB is the single-threaded model: id -> balance.
type oracleDB map[int64]int64

func (o oracleDB) render() string {
	ids := make([]int64, 0, len(o))
	for id := range o {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d=%d;", id, o[id])
	}
	return sb.String()
}

func renderEngine(t *testing.T, s *Session) string {
	t.Helper()
	res, err := s.Exec("SELECT id, bal FROM acct ORDER BY id")
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%d=%d;", r[0].I, r[1].I)
	}
	return sb.String()
}

// TestDifferentialRandomWorkload drives the MVCC engine and a
// single-threaded oracle through the same randomized statement stream and
// requires byte-identical rendered states after every commit, while
// background readers hammer snapshots of the same table. Transactions
// randomly commit or roll back; rollbacks must leave the oracle state
// untouched.
func TestDifferentialRandomWorkload(t *testing.T) {
	db, s := newMVCCTestDB(t, 0)
	rng := rand.New(rand.NewSource(42))
	oracle := oracleDB{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := NewSession(db)
			defer r.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Exec("SELECT COUNT(*), SUM(bal) FROM acct"); err != nil {
					t.Errorf("background reader: %v", err)
					return
				}
			}
		}()
	}

	nextID := int64(1)
	for round := 0; round < 300; round++ {
		explicit := rng.Intn(3) == 0 // every third round is a multi-statement txn
		if explicit {
			if err := s.BeginTxn(); err != nil {
				t.Fatal(err)
			}
		}
		shadow := oracleDB{}
		for id, v := range oracle {
			shadow[id] = v
		}
		stmts := 1
		if explicit {
			stmts = 1 + rng.Intn(4)
		}
		failed := false
		for k := 0; k < stmts && !failed; k++ {
			switch op := rng.Intn(10); {
			case op < 4: // insert
				id := nextID
				nextID++
				bal := int64(rng.Intn(1000))
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d)", id, bal)); err != nil {
					t.Fatalf("round %d insert: %v", round, err)
				}
				shadow[id] = bal
			case op < 7: // update a random range
				pivot := rng.Int63n(nextID)
				delta := int64(rng.Intn(20)) - 10
				if _, err := s.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id >= %d", delta, pivot)); err != nil {
					t.Fatalf("round %d update: %v", round, err)
				}
				for id := range shadow {
					if id >= pivot {
						shadow[id] += delta
					}
				}
			case op < 9: // delete a random point
				pivot := rng.Int63n(nextID)
				if _, err := s.Exec(fmt.Sprintf("DELETE FROM acct WHERE id = %d", pivot)); err != nil {
					t.Fatalf("round %d delete: %v", round, err)
				}
				delete(shadow, pivot)
			default: // duplicate-key failure: statement-level abort
				if len(shadow) == 0 {
					continue
				}
				var id int64
				for k := range shadow {
					id = k
					break
				}
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO acct VALUES (%d, 0)", id)); err == nil {
					t.Fatalf("round %d: duplicate insert succeeded", round)
				}
			}
		}
		if explicit {
			if rng.Intn(4) == 0 { // roll back: oracle keeps its old state
				if err := s.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				oracle = shadow
			}
		} else {
			oracle = shadow
		}
		if got, want := renderEngine(t, s), oracle.render(); got != want {
			t.Fatalf("round %d: engine diverged from oracle\nengine: %s\noracle: %s", round, got, want)
		}
		if round%60 == 0 {
			db.Vacuum()
		}
	}
	close(stop)
	wg.Wait()
}
