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
// Each bump also leaves a change record in the table's ring (changes):
// the version it made, the version it follows, and the images of the rows
// the commit created and deleted, so that a cache can tell which of its
// reads a write can have changed (precision invalidation, qcache). A
// rollback's record of the rows it wrote has no images: no other snapshot
// saw them. A bump that can have changed rows it has no images of — DDL,
// a failed auto-commit write, or a commit of more than maxChangeImages
// images on one table — records the whole table as changed, and drops the
// ring's older records: whoever needs one of them meets the whole-table
// record first.
//
// The counters live behind their own mutex, not db.mu, because the cache
// reads them without holding any engine lock.
type versionTable struct {
	mu       sync.Mutex
	seq      uint64
	versions map[string]uint64
	changes  map[string]*changeRing
}

// The ring of change records is maxChanges deep per table; one record
// holds at most maxChangeImages row images (an UPDATE leaves two a row).
const (
	maxChanges      = 64
	maxChangeImages = 32
)

// Change is the record of one bump of a table's version: version is the
// version it made, prev the one it follows. Its images are the rows a
// commit created and deleted, shared with the table's version chains
// (which never write to a row's values). A change of the whole table has
// no images and no table.
type Change struct {
	version, prev uint64
	t             *Table // the table the images are rows of; nil for the whole table
	imgs          [][]Value
}

// Whole reports whether the change may have changed any row of the table.
func (c *Change) Whole() bool { return c.t == nil }

// Images returns the old and new images of the rows the change wrote.
func (c *Change) Images() [][]Value { return c.imgs }

// changeRing is one table's last maxChanges change records, oldest at
// head once the ring is full.
type changeRing struct {
	recs []Change
	head int
}

func (r *changeRing) add(c Change) {
	if c.t == nil {
		clear(r.recs)
		r.recs, r.head = r.recs[:0], 0
	}
	if len(r.recs) < maxChanges {
		r.recs = append(r.recs, c)
		return
	}
	r.recs[r.head] = c
	r.head = (r.head + 1) % maxChanges
}

// TableVersion returns the current version of the named table. A table
// that has never been written (or does not exist) reports 0.
func (db *Database) TableVersion(name string) uint64 {
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	return db.vt.versions[strings.ToLower(name)]
}

// AppendTableVersions appends the current versions of the named tables to
// dst, in order, as one consistent snapshot.
func (db *Database) AppendTableVersions(dst []uint64, names []string) []uint64 {
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	for _, n := range names {
		dst = append(dst, db.vt.versions[strings.ToLower(n)])
	}
	return dst
}

// Changes returns the change records of the named table after version
// since, up to and including version until, oldest first. ok is false
// when the ring no longer holds the record that follows since: the caller
// must then take every row of the table as changed.
func (db *Database) Changes(table string, since, until uint64) (changes []Change, ok bool) {
	if since == until {
		return nil, true
	}
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	r := db.vt.changes[strings.ToLower(table)]
	if r == nil {
		return nil, false
	}
	n := len(r.recs)
	for i := 0; i < n; i++ {
		c := r.recs[(r.head+i)%n]
		switch {
		case changes == nil && c.prev != since:
			continue
		case changes != nil && c.prev != changes[len(changes)-1].version:
			return nil, false // unreachable: a table's records chain
		}
		changes = append(changes, c)
		if c.version == until {
			return changes, true
		}
	}
	return nil, false
}

// bumpVersions advances the version of each named table, each a change of
// the whole table.
func (db *Database) bumpVersions(names ...string) {
	db.vt.mu.Lock()
	defer db.vt.mu.Unlock()
	for _, n := range names {
		db.bumpLocked(n, nil, nil)
	}
}

// bumpLocked advances one table's version with vt.mu already held (the
// commit path calls it inside its stamp/publish critical section) and
// records the change: the rows imgs of t, or with t nil the whole table.
func (db *Database) bumpLocked(name string, t *Table, imgs [][]Value) {
	if name == "" {
		return
	}
	vt := &db.vt
	if vt.versions == nil {
		vt.versions, vt.changes = map[string]uint64{}, map[string]*changeRing{}
	}
	name = strings.ToLower(name)
	vt.seq++
	r := vt.changes[name]
	if r == nil {
		r = &changeRing{}
		vt.changes[name] = r
	}
	r.add(Change{version: vt.seq, prev: vt.versions[name], t: t, imgs: imgs})
	vt.versions[name] = vt.seq
}
