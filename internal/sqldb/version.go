package sqldb

import (
	"strings"
	"sync"
)

// Table version counters.
//
// Every write that can change what a query over a table would return —
// INSERT, UPDATE, DELETE, CREATE/DROP TABLE — bumps that table's
// version. A result cache layered above the engine records the versions
// of every table a query read alongside the cached rows; on lookup it
// compares the recorded versions against the current ones and treats any
// difference as an invalidation. This makes invalidation a cheap O(tables
// read) comparison at lookup time instead of a broadcast at write time.
//
// Versions are drawn from one database-wide sequence, so a table version
// never repeats — not even across a DROP and re-CREATE of the same name
// (per-table counters would restart at 1 and could collide with a stale
// cached entry).
//
// Under MVCC, bumps happen at commit: a transaction's writes are
// invisible until then, so mid-transaction bumps would only cause
// spurious misses. The bump runs inside the commit critical section,
// under vt.mu itself (bumpLocked), between stamping the written
// versions and publishing the commit sequence — so a cache that
// brackets a computation with TableVersions reads can never observe the
// commit's data paired with pre-commit versions or vice versa. Bumps
// remain conservative where it is cheap to be: a failed auto-commit
// write still bumps its target tables, DDL bumps even on failure, and a
// rollback bumps every table the transaction wrote (never tables it
// only read — see Session.Rollback). A spurious bump costs a cache
// miss; a missing bump would cost a stale hit.
//
// The counters live behind their own mutex, not db.mu, because the cache
// reads them without holding any engine lock.
type versionTable struct {
	mu       sync.Mutex
	seq      uint64
	versions map[string]uint64
}

// TableVersion returns the current version of the named table. A table
// that has never been written (or does not exist) reports 0.
func (db *Database) TableVersion(name string) uint64 {
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	return db.vt.versions[strings.ToLower(name)]
}

// TableVersions returns the current versions of the named tables, in
// order, as one consistent snapshot.
func (db *Database) TableVersions(names []string) []uint64 {
	out := make([]uint64, len(names))
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	for i, n := range names {
		out[i] = db.vt.versions[strings.ToLower(n)]
	}
	return out
}

// bumpVersions advances the version of each named table.
func (db *Database) bumpVersions(names ...string) {
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	db.bumpLocked(names)
}

// bumpLocked advances versions with vt.mu already held; the commit path
// calls it inside its stamp/publish critical section.
func (db *Database) bumpLocked(names []string) {
	if db.vt.versions == nil {
		db.vt.versions = map[string]uint64{}
	}
	for _, n := range names {
		if n == "" {
			continue
		}
		db.vt.seq++
		db.vt.versions[strings.ToLower(n)] = db.vt.seq
	}
}
