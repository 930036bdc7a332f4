package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"db2www/internal/sqldb/mvcc"
)

// Database is one named in-memory database: a catalog of tables and
// indexes plus the MVCC transaction manager that orders commits.
//
// Concurrency model (snapshot isolation):
//
//   - db.mu guards only the catalog maps. Every statement holds it
//     shared for its duration; DDL holds it exclusive. Readers and
//     writers therefore never block each other — only DDL excludes.
//   - Row data lives in per-table version chains (see catalog.go).
//     Statements latch a table (Table.mu) only for short scan or apply
//     phases, never across expression evaluation.
//   - Every statement resolves rows against a snapshot watermark taken
//     from the mvcc.Manager. Writes create pending versions visible
//     only to their transaction; commit stamps them with one new commit
//     sequence and bumps the per-table version counters (version.go)
//     inside the same critical section, preserving the result-cache
//     invalidation contract.
//   - Write-write conflicts resolve first-committer-wins: the later
//     writer gets a retryable serialization failure (SQLSTATE 40001).
//     Auto-commit statements retry internally; explicit transactions
//     surface the error through sqldriver.
//
// Lock order: db.mu → Table.mu; db.mu → vt.mu. The mvcc manager's
// internal mutex nests under everything and takes nothing.
type Database struct {
	Name string

	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index

	// nowFn supplies the clock for NOW()/CURDATE()/CURTIME(). Defaults
	// to time.Now; tests inject a fixed clock for determinism.
	nowFn func() time.Time

	// vt holds the per-table version counters behind result-cache
	// invalidation; see version.go.
	vt versionTable

	// plans caches parsed statement shapes; see plan.go.
	plans *PlanCache

	// mvcc orders commits and tracks live snapshots.
	mvcc *mvcc.Manager

	conflicts   atomic.Uint64
	vacuumRows  atomic.Uint64
	stmtRetries atomic.Uint64

	// tableRetries counts auto-commit conflict retries per target table
	// (lower-cased name -> *atomic.Uint64): the MVCC health signal that
	// says *where* first-committer-wins races concentrate.
	tableRetries sync.Map

	// vacuum sweep accounting: sweeps run, versions examined, versions
	// reclaimed (vacuumRows above). reclaimed/scanned is the vacuum's
	// efficiency — low values mean sweeps are mostly wasted walks.
	vacuumSweeps  atomic.Uint64
	vacuumScanned atomic.Uint64

	// stmts receives per-digest execution stats; defaults to the shared
	// Statements registry. Tests swap in a private one.
	stmts *StatementStats
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{
		Name:    name,
		tables:  map[string]*Table{},
		indexes: map[string]*Index{},
		mvcc:    mvcc.NewManager(),
		stmts:   Statements,
		plans:   newPlanCache(0),
	}
}

// StatementStats returns the registry this database records statement
// executions into (the shared Statements registry unless overridden).
func (db *Database) StatementStats() *StatementStats { return db.stmts }

// SetStatementStats redirects statement recording to s (nil disables).
// Tests use it to observe a single database in isolation.
func (db *Database) SetStatementStats(s *StatementStats) { db.stmts = s }

// NoteStatementCacheHit records a result-cache hit under the digest and
// normalized shape the cache kept from StatementFacts: an execution the
// engine never ran. The query cache calls this so the statements table
// shows cached and executed traffic side by side.
func (db *Database) NoteStatementCacheHit(digest, norm string) {
	if db.stmts == nil || !obsEnabled() {
		return
	}
	db.stmts.NoteCacheHit(digest, norm, "select")
}

// noteTableRetries bumps the per-table conflict-retry counters after an
// auto-commit statement loses a first-committer-wins race.
func (db *Database) noteTableRetries(targets []string) {
	for _, name := range targets {
		ln := strings.ToLower(name)
		if ln == "" {
			continue
		}
		v, _ := db.tableRetries.LoadOrStore(ln, new(atomic.Uint64))
		v.(*atomic.Uint64).Add(1)
	}
}

// SetClock overrides the clock behind NOW(), CURDATE(), and CURTIME().
// Pass nil to restore the real clock.
func (db *Database) SetClock(now func() time.Time) {
	db.mu.Lock()
	db.nowFn = now
	db.mu.Unlock()
}

// now returns the database clock's current time in UTC.
func (db *Database) now() time.Time {
	if db.nowFn != nil {
		return db.nowFn().UTC()
	}
	return time.Now().UTC()
}

// table looks up a table by name, case-insensitively.
func (db *Database) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, errUndefinedTable(name)
	}
	return t, nil
}

// Table returns the named table's metadata, or an error if absent. The
// returned Table must be treated as read-only by callers.
func (db *Database) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.table(name)
}

// TableNames lists the catalog's table names in sorted order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sortStrings(names)
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TxnStats is a point-in-time summary of transaction activity, shown on
// the gateway's /server-status "Transactions" section.
type TxnStats struct {
	ActiveSnapshots   int           // distinct live snapshots (open txns + running statements)
	OldestSnapshot    uint64        // vacuum watermark
	OldestSnapshotAge time.Duration // how long the oldest live snapshot has been held (0 when none)
	CommitSeq         uint64        // last published commit sequence
	Commits           uint64
	Rollbacks         uint64 // aborts excluding conflicts
	Conflicts         uint64 // first-committer-wins losers
	ConflictRetries   uint64 // auto-commit statements replayed after losing a race
	VacuumedRows      uint64 // row versions reclaimed
	VacuumSweeps      uint64 // background/manual Vacuum() passes
	VacuumScannedRows uint64 // row versions examined by those passes
}

// TxnStats returns current transaction counters and watermarks.
func (db *Database) TxnStats() TxnStats {
	conflicts := db.conflicts.Load()
	return TxnStats{
		ActiveSnapshots:   db.mvcc.ActiveSnapshots(),
		OldestSnapshot:    db.mvcc.OldestSnapshot(),
		OldestSnapshotAge: db.mvcc.OldestSnapshotAge(),
		CommitSeq:         db.mvcc.CommitSeq(),
		Commits:           db.mvcc.Commits(),
		Rollbacks:         db.mvcc.Aborts() - conflicts,
		Conflicts:         conflicts,
		ConflictRetries:   db.stmtRetries.Load(),
		VacuumedRows:      db.vacuumRows.Load(),
		VacuumSweeps:      db.vacuumSweeps.Load(),
		VacuumScannedRows: db.vacuumScanned.Load(),
	}
}

// view is one statement's read context: the database, the transaction
// (nil for plain snapshot reads), and the snapshot watermark rows
// resolve against. All read-path executors hang off view so subqueries
// inherit the statement's snapshot.
type view struct {
	db   *Database
	txn  *mvcc.Txn
	snap uint64

	// ex is non-nil only while an EXPLAIN ANALYZE target executes: the
	// executor hands it the plan it built and times its operators.
	ex *explainRun

	// naive makes planQuery plan the way the statement is written —
	// declaration order, nothing pushed down, sequential scans. Set only
	// by tests (Session.naive), which hold the optimised plan's rows
	// against this one's on the same executor.
	naive bool

	// bind receives what each column reference compiles to, and sum every
	// FROM clause planQuery plans; set only by Check.
	bind Binding
	sum  *PlanSummary
}

// explainRun is one EXPLAIN ANALYZE in flight: root is the plan the
// executor built for the target and ran (the last one, when an auto-commit
// write was retried on a fresh snapshot).
type explainRun struct {
	root stmtPlan
}

// planned hands the statement's plan to a waiting EXPLAIN ANALYZE.
func (vw view) planned(p stmtPlan) {
	if vw.ex != nil {
		vw.ex.root = p
	}
}

// clock reads the time while an EXPLAIN ANALYZE target runs and returns
// the zero time otherwise, keeping clock reads off the normal path.
func (vw view) clock() time.Time {
	if vw.ex == nil {
		return time.Time{}
	}
	return time.Now()
}

// --- transaction state ---

// writeRec is one row-level effect of a transaction: a created version,
// a delete intent on an existing version, or (for UPDATE) both.
type writeRec struct {
	t       *Table
	row     *storedRow
	created *rowVersion
	deleted *rowVersion
}

// txnState carries everything needed to commit or roll back one
// transaction: its mvcc identity, the row-version write set, and the
// undo log for DDL (which is not snapshot-isolated: catalog changes
// apply immediately and are undone structurally on rollback).
type txnState struct {
	txn     *mvcc.Txn
	writes  []writeRec
	ddlUndo []undoRec
	ddlBump []string // tables whose results DDL changed; re-bumped at commit/rollback
	// conflicted records that a statement hit a first-committer-wins
	// conflict, so the session's eventual Rollback counts as a conflict
	// abort rather than a voluntary one.
	conflicted bool
}

// record appends one row effect and adjusts the table's pending-version
// count. Caller holds t.mu exclusively (the same latch ALTER TABLE's
// pending guard reads under), so the count can't tear against DDL.
func (tx *txnState) record(t *Table, row *storedRow, created, deleted *rowVersion) {
	tx.writes = append(tx.writes, writeRec{t: t, row: row, created: created, deleted: deleted})
	var n int64
	if created != nil {
		n++
	}
	if deleted != nil {
		n++
	}
	t.pending.Add(n)
}

// pendingOn counts this transaction's pending units on t; ALTER TABLE
// may proceed only when the table's total pending count equals it.
func (tx *txnState) pendingOn(t *Table) int64 {
	var n int64
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.t != t {
			continue
		}
		if w.created != nil {
			n++
		}
		if w.deleted != nil {
			n++
		}
	}
	return n
}

func (tx *txnState) logDDL(r undoRec) {
	if tx != nil {
		tx.ddlUndo = append(tx.ddlUndo, r)
	}
}

// bumpNames returns the lower-cased names of every table this
// transaction wrote (write set plus DDL), deduplicated. Tables only
// read never appear: a rollback must not invalidate cache entries for
// them.
func (tx *txnState) bumpNames() []string {
	seen := map[string]bool{}
	var names []string
	add := func(n string) {
		ln := strings.ToLower(n)
		if ln != "" && !seen[ln] {
			seen[ln] = true
			names = append(names, ln)
		}
	}
	for i := range tx.writes {
		add(tx.writes[i].t.Name)
	}
	for _, n := range tx.ddlBump {
		add(n)
	}
	return names
}

// begin starts a transaction state at a fresh snapshot.
func (db *Database) begin() *txnState {
	return &txnState{txn: db.mvcc.Begin()}
}

// commitTxn commits: it stamps every written version with one new
// commit sequence, bumps the written tables' version counters, and
// publishes the sequence — all inside vt.mu, the mutex TableVersions
// readers take. A result cache that brackets a computation with
// TableVersions therefore can never pair this commit's data with
// pre-commit versions or vice versa.
func (db *Database) commitTxn(tx *txnState) {
	names := tx.bumpNames()
	if len(tx.writes) == 0 {
		if len(names) > 0 {
			db.bumpVersions(names...)
		}
		db.mvcc.Finish(tx.txn, true)
		mTxnCommit.Add(1)
		return
	}
	db.vt.mu.Lock()
	seq := db.mvcc.NextSeq()
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.created != nil {
			w.created.meta.StampBegin(seq)
		}
		if w.deleted != nil {
			w.deleted.meta.StampEnd(seq)
		}
	}
	db.bumpLocked(names)
	db.mvcc.Publish(seq)
	db.vt.mu.Unlock()
	db.mvcc.Finish(tx.txn, true)
	mTxnCommit.Add(1)
	db.settleCommitted(tx)
}

// rollbackTxn aborts: one status store hides every pending version and
// voids every delete intent; the physical garbage is then unlinked.
// DDL undoes structurally under the exclusive catalog lock. Written
// tables get a conservative version bump (DDL rewrote them; pure DML
// garbage costs at most a cache miss) — tables only read do not.
func (db *Database) rollbackTxn(tx *txnState, conflict bool) {
	db.mvcc.Finish(tx.txn, false)
	db.purgeWrites(tx, 0)
	if len(tx.ddlUndo) > 0 {
		db.mu.Lock()
		db.replayDDLUndo(tx.ddlUndo)
		db.mu.Unlock()
	}
	if names := tx.bumpNames(); len(names) > 0 {
		db.bumpVersions(names...)
	}
	if conflict {
		db.conflicts.Add(1)
		mTxnConflict.Add(1)
	} else {
		mTxnRollback.Add(1)
	}
}

// abortStmt physically undoes the write set's tail (one failed
// statement inside a live transaction), keeping statements atomic.
func (db *Database) abortStmt(tx *txnState, mark int) {
	db.purgeWrites(tx, mark)
	tx.writes = tx.writes[:mark]
}

// purgeWrites unlinks the row versions of tx.writes[from:]: created
// versions leave the chains (and index postings), delete intents are
// voided. Grouped per table so each latch is taken once.
func (db *Database) purgeWrites(tx *txnState, from int) {
	if from >= len(tx.writes) {
		return
	}
	byTable := map[*Table][]int{}
	var order []*Table
	for i := from; i < len(tx.writes); i++ {
		t := tx.writes[i].t
		if _, ok := byTable[t]; !ok {
			order = append(order, t)
		}
		byTable[t] = append(byTable[t], i)
	}
	for _, t := range order {
		t.mu.Lock()
		dead := map[int64]bool{}
		for _, i := range byTable[t] {
			w := &tx.writes[i]
			if w.deleted != nil {
				// CAS: after the abort status store another transaction may
				// have legitimately claimed the version's deleter slot.
				w.deleted.meta.ClearDeleterIf(tx.txn)
				t.pending.Add(-1)
			}
			if w.created != nil {
				if w.row.unlink(w.created) {
					for _, ix := range t.indexes {
						ix.removeVersion(w.row.id, w.created)
					}
				}
				t.pending.Add(-1)
				if w.row.head == nil {
					dead[w.row.id] = true
				}
			}
		}
		t.removeRows(dead)
		t.mu.Unlock()
	}
}

// settleCommitted releases the committed write set's pending counts and
// opportunistically prunes the written rows' chains below the current
// watermark, so hot rows don't wait for the background vacuum.
func (db *Database) settleCommitted(tx *txnState) {
	wm := db.mvcc.OldestSnapshot()
	byTable := map[*Table][]int{}
	var order []*Table
	for i := range tx.writes {
		t := tx.writes[i].t
		if _, ok := byTable[t]; !ok {
			order = append(order, t)
		}
		byTable[t] = append(byTable[t], i)
	}
	pruned := 0
	for _, t := range order {
		t.mu.Lock()
		dead := map[int64]bool{}
		seen := map[*storedRow]bool{}
		for _, i := range byTable[t] {
			w := &tx.writes[i]
			if w.created != nil {
				t.pending.Add(-1)
			}
			if w.deleted != nil {
				t.pending.Add(-1)
			}
			if seen[w.row] {
				continue
			}
			seen[w.row] = true
			pruned += db.pruneChain(t, w.row, wm)
			if w.row.head == nil {
				dead[w.row.id] = true
			}
		}
		t.removeRows(dead)
		t.mu.Unlock()
	}
	if pruned > 0 {
		db.vacuumRows.Add(uint64(pruned))
		mVacuumRows.Add(int64(pruned))
	}
}

// replayDDLUndo reverses a transaction's catalog changes, newest first.
// Caller holds db.mu exclusively.
func (db *Database) replayDDLUndo(undo []undoRec) {
	for i := len(undo) - 1; i >= 0; i-- {
		r := undo[i]
		switch r.kind {
		case undoCreateTable:
			delete(db.tables, strings.ToLower(r.table))
		case undoDropTable:
			db.tables[strings.ToLower(r.table)] = r.droppedTable
			for _, ix := range r.droppedIndexes {
				db.indexes[strings.ToLower(ix.Name)] = ix
			}
		case undoCreateIndex:
			if ix, ok := db.indexes[strings.ToLower(r.index)]; ok {
				delete(db.indexes, strings.ToLower(r.index))
				if t, err := db.table(ix.Table); err == nil {
					for j, tix := range t.indexes {
						if tix == ix {
							t.indexes = append(t.indexes[:j:j], t.indexes[j+1:]...)
							break
						}
					}
				}
			}
		case undoDropIndex:
			ix := r.droppedIndex
			db.indexes[strings.ToLower(ix.Name)] = ix
			if t, err := db.table(ix.Table); err == nil {
				t.indexes = append(t.indexes, ix)
			}
		case undoAlterTable:
			// Replace the altered table with its pre-image snapshot,
			// undoing any rename and re-pointing the index catalog at the
			// snapshot's rebuilt indexes.
			delete(db.tables, strings.ToLower(r.table))
			snap := r.droppedTable
			db.tables[strings.ToLower(r.alterOldName)] = snap
			for _, ix := range snap.indexes {
				db.indexes[strings.ToLower(ix.Name)] = ix
			}
		}
	}
}

// --- DDL undo log ---

type undoKind int

const (
	undoCreateTable undoKind = iota
	undoDropTable
	undoCreateIndex
	undoDropIndex
	undoAlterTable
)

type undoRec struct {
	kind           undoKind
	table          string
	index          string
	droppedTable   *Table
	droppedIndex   *Index
	droppedIndexes []*Index
	alterOldName   string // pre-ALTER table name (RENAME undo)
}

// --- sessions ---

// Session is one client connection to a Database. Sessions are not safe
// for concurrent use; each gateway request (each CGI process in the
// paper's model) owns one session, but many sessions now run genuinely
// in parallel. In auto-commit mode every statement is its own
// transaction (retried internally on serialization conflicts). BeginTxn
// opens an explicit snapshot-isolation transaction: reads see the
// snapshot taken at BeginTxn, writes stay private until Commit, and a
// write-write conflict with a concurrent committer surfaces as a
// retryable SQLSTATE 40001 error.
type Session struct {
	db     *Database
	tx     *txnState
	closed bool

	// lastRetries counts conflict retries of the most recent recorded
	// statement; lastDigest is its statement digest. Sessions are
	// single-goroutine, so plain fields suffice.
	lastRetries int64
	lastDigest  string

	// ex receives the plan while an EXPLAIN ANALYZE target runs; nil in
	// normal execution.
	ex *explainRun

	// naive is handed to every view of this session; see view.naive.
	naive bool
}

// NewSession opens a session on db.
func NewSession(db *Database) *Session {
	return &Session{db: db}
}

// Close releases the session, rolling back any open transaction.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.tx != nil {
		return s.Rollback()
	}
	return nil
}

// BeginTxn starts an explicit snapshot-isolation transaction.
func (s *Session) BeginTxn() error {
	if s.closed {
		return &Error{Code: CodeInvalidTxnState, Message: "session is closed"}
	}
	if s.tx != nil {
		return &Error{Code: CodeInvalidTxnState, Message: "transaction already in progress"}
	}
	s.tx = s.db.begin()
	return nil
}

// Commit commits the explicit transaction, making its writes visible
// atomically and bumping the version counters of written tables.
func (s *Session) Commit() error {
	if s.tx == nil {
		return &Error{Code: CodeInvalidTxnState, Message: "no transaction in progress"}
	}
	tx := s.tx
	s.tx = nil
	s.db.commitTxn(tx)
	return nil
}

// Rollback aborts the explicit transaction. Its row versions vanish
// atomically; DDL is undone structurally. Version counters bump only
// for tables the transaction wrote — cached results over tables it
// merely read stay valid.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return &Error{Code: CodeInvalidTxnState, Message: "no transaction in progress"}
	}
	tx := s.tx
	s.tx = nil
	s.db.rollbackTxn(tx, tx.conflicted)
	return nil
}

// Exec parses and executes one SQL statement, returning its result.
// Params bind to ? placeholders in order.
func (s *Session) Exec(sql string, params ...Value) (*Result, error) {
	p, err := s.prepare(sql, params)
	if err != nil {
		return nil, err
	}
	return s.execPrepared(sql, p)
}

// prepared is one statement resolved for execution: an AST (the plan
// cache's, shared, or a fresh parse) with its bind values. digest/norm are
// set when the plan-cache path already computed them, saving the
// recording path a second lex.
type prepared struct {
	st           Stmt
	params       []Value
	digest, norm string
}

// prepare resolves sql to an executable statement, routing literal-only
// statements through the plan cache. Caller-supplied ? parameters force
// the plain parse path (the statement already is a shape).
func (s *Session) prepare(sql string, params []Value) (*prepared, error) {
	if s.closed {
		return nil, &Error{Code: CodeInvalidTxnState, Message: "session is closed"}
	}
	if len(params) == 0 {
		if p := s.db.prepareCached(sql); p != nil {
			return p, nil
		}
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return &prepared{st: st, params: params}, nil
}

// execPrepared executes p and, when engine observability is on, files
// the execution under sql's digest in the statement stats registry. Only
// paths that still have the SQL text run through here — ExecScript and
// prepared statements execute digest-less.
func (s *Session) execPrepared(sql string, p *prepared) (*Result, error) {
	st, params := p.st, p.params
	if s.db.stmts == nil || !obsEnabled() {
		s.lastDigest = ""
		return s.ExecStmt(st, params...)
	}
	digest, norm := p.digest, p.norm
	if digest == "" {
		digest, norm = DigestSQL(sql)
	}
	s.lastDigest = digest
	s.lastRetries = 0
	start := time.Now()
	res, err := s.ExecStmt(st, params...)
	micros := time.Since(start).Microseconds()
	var rows int64
	if res != nil {
		rows = res.RowsAffected
	}
	s.db.stmts.Record(digest, norm, statementKind(st), micros, rows, s.lastRetries, err != nil)
	if err == nil {
		if x, ok := st.(*ExplainStmt); ok && x.Analyze {
			// File the rendered plan under the *target* statement's digest,
			// where /debug/statements?digest= readers will look for it.
			if innerDigest, innerNorm, ok := digestSQLInner(sql); ok {
				s.db.stmts.SetPlan(innerDigest, innerNorm, planResultText(res))
			}
		}
	}
	return res, err
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(st Stmt, params ...Value) (*Result, error) {
	switch x := st.(type) {
	case *BeginStmt:
		if err := s.BeginTxn(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CommitStmt:
		if err := s.Commit(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *RollbackStmt:
		if err := s.Rollback(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *SelectStmt:
		return s.execRead(x, params)
	case *ExplainStmt:
		return s.execExplain(x, params)
	case *InsertStmt:
		return s.execDML(func(vw view, tx *txnState) (*Result, error) {
			return vw.execInsert(tx, x, params)
		}, x.Table)
	case *UpdateStmt:
		return s.execDML(func(vw view, tx *txnState) (*Result, error) {
			return vw.execUpdate(tx, x, params)
		}, x.Table)
	case *DeleteStmt:
		return s.execDML(func(vw view, tx *txnState) (*Result, error) {
			return vw.execDelete(tx, x, params)
		}, x.Table)
	case *CreateTableStmt:
		return s.execDDL(true, func(tx *txnState) (*Result, error) {
			return s.db.execCreateTable(tx, x)
		}, x.Table)
	case *AlterTableStmt:
		// A rename changes what two names resolve to; bump both.
		return s.execDDL(true, func(tx *txnState) (*Result, error) {
			return s.db.execAlterTable(tx, x)
		}, x.Table, x.RenameTo)
	case *DropTableStmt:
		return s.execDDL(true, func(tx *txnState) (*Result, error) {
			return s.db.execDropTable(tx, x)
		}, x.Table)
	case *CreateIndexStmt:
		// Index DDL changes access paths, never results: no version bump.
		return s.execDDL(false, func(tx *txnState) (*Result, error) {
			return s.db.execCreateIndex(tx, x)
		})
	case *DropIndexStmt:
		return s.execDDL(false, func(tx *txnState) (*Result, error) {
			return s.db.execDropIndex(tx, x)
		})
	default:
		return nil, &Error{Code: CodeFeature,
			Message: fmt.Sprintf("unsupported statement type %T", st)}
	}
}

// reader returns the view a read should resolve against and a release
// function. Inside a transaction that is the transaction's snapshot;
// otherwise a fresh snapshot, registered so vacuum can't reclaim
// versions mid-statement.
func (s *Session) reader() (view, func()) {
	if s.tx != nil {
		return s.writer(s.tx), func() {}
	}
	snap := s.db.mvcc.AcquireSnapshot()
	return view{db: s.db, snap: snap, ex: s.ex, naive: s.naive},
		func() { s.db.mvcc.ReleaseSnapshot(snap) }
}

// writer returns the view of a statement running inside tx.
func (s *Session) writer(tx *txnState) view {
	return view{db: s.db, txn: tx.txn, snap: tx.txn.Snapshot(), ex: s.ex, naive: s.naive}
}

func (s *Session) execRead(sel *SelectStmt, params []Value) (*Result, error) {
	db := s.db
	lockStart := obsNow()
	db.mu.RLock()
	defer db.mu.RUnlock()
	observeLockWait(lockStart)
	vw, release := s.reader()
	defer release()
	execStart := obsNow()
	sp, err := vw.planSelect(sel, params)
	var res *Result
	if err == nil {
		vw.planned(sp)
		res, err = vw.execSelect(sp)
	}
	observeExec(mExecSelect, execStart)
	if err == nil {
		observeRows(res)
	}
	return res, err
}

// execExplain runs EXPLAIN [ANALYZE]. Plain EXPLAIN plans the target
// under the shared catalog lock against the session's read view and
// renders the plan. ANALYZE executes the target — including DML side
// effects — and renders the plan the executor built and ran, with the
// counters it left on the nodes.
func (s *Session) execExplain(x *ExplainStmt, params []Value) (*Result, error) {
	var root stmtPlan
	if x.Analyze {
		switch x.Target.(type) {
		case *SelectStmt, *InsertStmt, *UpdateStmt, *DeleteStmt:
		default:
			return nil, errNotExplainable() // before it runs, not after
		}
		ex := &explainRun{}
		s.ex = ex
		_, err := func() (*Result, error) {
			defer func() { s.ex = nil }()
			return s.ExecStmt(x.Target, params...)
		}()
		if err != nil {
			return nil, err
		}
		root = ex.root
	} else {
		s.db.mu.RLock()
		vw, release := s.reader()
		var err error
		root, err = vw.planStmt(x.Target, params)
		release()
		s.db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	lines := renderPlan(root, x.Analyze)
	res := &Result{Columns: []string{"QUERY PLAN"}, Rows: make([][]Value, len(lines))}
	for i, ln := range lines {
		res.Rows[i] = []Value{NewString(ln)}
	}
	res.RowsAffected = int64(len(res.Rows))
	return res, nil
}

// maxAutoRetries bounds the internal conflict-retry loop for
// auto-commit statements. Each retry runs on a fresh snapshot, so
// progress requires only that some committer wins each round.
const maxAutoRetries = 256

func retryBackoff(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	d := time.Duration(attempt) * 20 * time.Microsecond
	if d > 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	time.Sleep(d)
}

// execDML runs a data-changing statement. Inside an explicit
// transaction the effects stay pending (a failed statement is undone,
// keeping statements atomic). In auto-commit mode the statement is its
// own transaction: committed on success, rolled back and retried on a
// fresh snapshot when it loses a first-committer-wins race.
func (s *Session) execDML(run func(view, *txnState) (*Result, error), targets ...string) (*Result, error) {
	db := s.db
	if s.tx != nil {
		lockStart := obsNow()
		db.mu.RLock()
		defer db.mu.RUnlock()
		observeLockWait(lockStart)
		tx := s.tx
		mark := len(tx.writes)
		execStart := obsNow()
		res, err := run(s.writer(tx), tx)
		observeExec(mExecWrite, execStart)
		if err != nil {
			db.abortStmt(tx, mark)
			if IsSerializationFailure(err) {
				tx.conflicted = true
			}
			return nil, err
		}
		return res, nil
	}
	lockStart := obsNow()
	for attempt := 0; ; attempt++ {
		db.mu.RLock()
		observeLockWait(lockStart)
		lockStart = time.Time{}
		tx := db.begin()
		execStart := obsNow()
		res, err := run(s.writer(tx), tx)
		observeExec(mExecWrite, execStart)
		db.mu.RUnlock()
		if err == nil {
			db.commitTxn(tx)
			return res, nil
		}
		conflict := IsSerializationFailure(err)
		db.rollbackTxn(tx, conflict)
		if conflict && attempt < maxAutoRetries {
			db.stmtRetries.Add(1)
			s.lastRetries++
			if obsEnabled() {
				db.noteTableRetries(targets)
			}
			retryBackoff(attempt)
			continue
		}
		// Conservative contract (pinned by version tests): a failed
		// auto-commit write still bumps its target tables — it may have
		// left partial effects behind in earlier engine generations, and a
		// spurious bump costs a cache miss, never a stale hit.
		db.bumpVersions(targets...)
		return nil, err
	}
}

// execDDL runs a catalog-changing statement under the exclusive catalog
// lock. DDL is not snapshot-isolated: its effects are visible to every
// session immediately (and version counters bump immediately, so result
// caches can't serve results for a shape that no longer exists); a
// transaction's DDL is undone structurally on rollback.
func (s *Session) execDDL(bump bool, run func(*txnState) (*Result, error), targets ...string) (*Result, error) {
	db := s.db
	for attempt := 0; ; attempt++ {
		lockStart := obsNow()
		db.mu.Lock()
		observeLockWait(lockStart)
		execStart := obsNow()
		res, err := run(s.tx)
		observeExec(mExecDDL, execStart)
		if bump {
			// Unconditional, as in the undo-log engine: even a failed DDL
			// statement bumps, trading a cache miss for never a stale hit.
			db.bumpVersions(targets...)
		}
		if err == nil && bump && s.tx != nil {
			s.tx.ddlBump = append(s.tx.ddlBump, targets...)
		}
		db.mu.Unlock()
		if err != nil && IsSerializationFailure(err) {
			if s.tx == nil && attempt < maxAutoRetries {
				s.lastRetries++
				retryBackoff(attempt)
				continue
			}
			if s.tx != nil {
				s.tx.conflicted = true
			}
		}
		return res, err
	}
}

// Query executes a SELECT (or any statement) and returns a row cursor.
func (s *Session) Query(sql string, params ...Value) (*Rows, error) {
	res, err := s.Exec(sql, params...)
	if err != nil {
		return nil, err
	}
	return &Rows{res: res, pos: -1}, nil
}

// ExecScript parses and executes a semicolon-separated script, stopping at
// the first error. It returns the number of statements executed.
func (s *Session) ExecScript(script string) (int, error) {
	stmts, err := ParseAll(script)
	if err != nil {
		return 0, err
	}
	for i, st := range stmts {
		if _, err := s.ExecStmt(st); err != nil {
			return i, err
		}
	}
	return len(stmts), nil
}

// Rows is a forward-only cursor over a materialised result set — the
// row-at-a-time fetch interface the macro engine's %ROW block consumes.
type Rows struct {
	res *Result
	pos int
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.res.Columns }

// Next advances to the next row, returning false at the end.
func (r *Rows) Next() bool {
	if r.pos+1 >= len(r.res.Rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row. Next must have returned true.
func (r *Rows) Row() []Value { return r.res.Rows[r.pos] }

// RowCount returns the total number of rows in the result.
func (r *Rows) RowCount() int { return len(r.res.Rows) }

// Close releases the cursor (a no-op for materialised results; present so
// callers follow the usual acquire/release discipline).
func (r *Rows) Close() error { return nil }
