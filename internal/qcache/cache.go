// Package qcache is a concurrency-safe query-result cache for the
// %EXEC_SQL path: it memoises materialised SELECT results keyed by
// (database, SQL text) so a read-dominated workload — the form/report
// applications the paper targets — stops re-executing identical
// statements between writes.
//
// Four mechanisms keep it correct, bounded and worth its memory:
//
//   - Precision invalidation. Entries are linked under the tables they
//     read, each link at the table version its entries were read at
//     (internal/sqldb bumps a per-table version on every write). The first
//     lookup or fill that sees a table's version move sweeps its link: it
//     reads the table's change records since, and drops the entries whose
//     predicate on that table (sqldb.Predicate) an old or new image of a
//     written row satisfies — every entry under the table on a change of
//     the whole table, or when the records are gone. An entry is served
//     only while it is linked and every one of its links has swept to the
//     table's current version, so a stale hit is impossible.
//
//   - Admission by observed invalidation. A statement shape (its digest)
//     whose fills mostly die unread — its table is written between reads —
//     is refused: executed on the connection, nothing stored. One
//     execution in probeEvery is stored all the same, which is how a shape
//     whose table stops being written comes back.
//
//   - LRU eviction under a byte budget.
//
//   - Single-flight deduplication. N concurrent identical queries execute
//     once: one leader computes while followers wait, then re-check the
//     cache (never trusting an unvalidated hand-me-down result), so a
//     thundering herd after an invalidation costs one execution.
//
// The cache returns the same *core.SQLResult to every hit; results are
// immutable by the DBConn contract, but for the rendered %ROW block a
// later request may leave on one (its render memo). That rides on the
// entry: it is charged to the byte budget when the entry is next served,
// and it leaves with the entry.
package qcache

import (
	"sync"

	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
)

// Admission. A shape with at least admitMinFills fills on its counters, of
// which more than half were wasted — invalidated before their first hit —
// is refused, but for one execution in probeEvery; both counters halve
// when fills reaches decayFills, so the judgement follows the traffic.
const (
	admitMinFills = 8
	probeEvery    = 32
	decayFills    = 64
)

// maxShapes bounds the admission counters: statement text can carry form
// input, so the digests a server sees are not its macros' alone. Past it
// the counters start over.
const maxShapes = 4096

// Source is the database behind a cached connection; *sqldb.Database
// implements it. AppendTableVersions appends one snapshot of the tables'
// versions to dst. Version snapshots must be causally consistent with
// writes — a caller that can observe a write's effects must also observe
// its bump — and a table's version never decreases. Changes returns the
// records of a table's bumps in (since, until], or false when it no longer
// has them all; Predicate compiles a statement's condition on the rows of
// the table a change is of, for its images (nil: every row matches).
type Source interface {
	AppendTableVersions(dst []uint64, tables []string) []uint64
	StatementFacts(sql string) sqldb.Facts
	Changes(table string, since, until uint64) ([]sqldb.Change, bool)
	Predicate(f *sqldb.Facts, ch *sqldb.Change) *sqldb.Predicate
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits          int64 // lookups served from a valid entry
	Misses        int64 // lookups that executed the query to fill an entry
	Dedups        int64 // hits by callers that waited on another's flight
	Stores        int64 // entries written
	Evictions     int64 // entries removed to stay inside the byte budget
	Invalidations int64 // entries a write dropped: an image of a row it wrote satisfied their predicate
	Refused       int64 // executions of a shape admission keeps out: no lookup counted, nothing stored
	Bypasses      int64 // statements that skipped the cache (not a SELECT the engine parses, open txn)
	Uncacheable   int64 // SELECTs executed but not stored (oversize, or raced by a write)
}

// How the cache handled one statement; the sql-exec note of the request
// record prints it as cache=….
const (
	Hit     = "hit"
	Miss    = "miss"    // executed under a flight; stored when nothing raced it
	Refused = "refused" // admission kept the shape out
	Bypass  = "bypass"  // not a cacheable statement, or inside a transaction
)

// Outcome is what Do reports beside the result.
type Outcome struct {
	How string
	// Dedup marks a single-flight follower: the caller waited on another
	// caller's execution of the same statement at least once.
	Dedup bool
	// Digest and Norm are the statement's, kept on the entry: set on a hit,
	// which the engine never saw and so did not record.
	Digest, Norm string
}

type key struct {
	src Source
	sql string
}

type entry struct {
	key   key
	res   *core.SQLResult
	size  int64       // charged to the budget: result, key and memo
	memo  int64       // the result's MemoBytes when the entry was last served
	facts sqldb.Facts // the digest a hit is recorded under, the tables read
	hit   bool        // served at least once
	links []link      // parallel to facts.Tables; one's array when one table
	one   [1]link
	// prev and next place the entry in the LRU, next nil once removed.
	prev, next *entry
}

// link is an entry's place under one table it read: a node of one of the
// table link's lists.
type link struct {
	e          *entry
	l          *tableLink
	in         uint8            // which list holds it: fresh, rest or keyed
	pred       *sqldb.Predicate // bound at the first change the entry meets
	prev, next *link
}

const (
	fresh uint8 = iota
	rest
	keyed
)

// tableLink holds the live entries that read one table, all of them
// valid at the version seen. An entry is fresh until the first change of
// the table it meets binds its predicate; then it is keyed, in the bucket
// of its predicate's equality key, or with no key among the rest. A change
// visits the buckets of its images' keys and the rest, never every entry
// that read the table.
type tableLink struct {
	table       string
	seen        uint64
	fresh, rest *link // heads of two lists
	keyed       map[sqldb.EqKey]*link
	cols        map[int]int // the columns keys are of, with their entries' count
}

func newTableLink(table string, seen uint64) *tableLink {
	return &tableLink{table: table, seen: seen, keyed: map[sqldb.EqKey]*link{}, cols: map[int]int{}}
}

// push puts n at the head of the list *head.
func (n *link) push(head **link) {
	n.prev, n.next = nil, *head
	if n.next != nil {
		n.next.prev = n
	}
	*head = n
}

// unlink takes n out of the list *head.
func (n *link) unlink(head **link) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		*head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev, n.next = nil, nil
}

type tableKey struct {
	src   Source
	table string
}

// shape is one digest's admission counters.
type shape struct{ fills, wasted, skipped int }

// Cache is the query-result cache. The zero value is not usable; use New.
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[key]*entry
	lru     entry // the LRU's sentinel: lru.next is the most recently used
	bytes   int64
	links   map[tableKey]*tableLink
	shapes  map[string]*shape
	flights map[key]bool // statements a leader is executing
	cur     []uint64     // lookupLocked's snapshot of an entry's table versions
	landed  sync.Cond    // broadcast, on mu, when a flight's leader is done
	stats   Stats
}

// New builds a cache holding at most maxBytes of materialised results.
func New(maxBytes int64) *Cache {
	c := &Cache{
		maxBytes: maxBytes,
		entries:  map[key]*entry{},
		links:    map[tableKey]*tableLink{},
		shapes:   map[string]*shape{},
		flights:  map[key]bool{},
	}
	c.landed.L = &c.mu
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// toFront puts e at the front of the LRU, taking it from where it is.
func (c *Cache) toFront(e *entry) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev, c.lru.next = e, e
}

// Do returns the cached result of sql on src if a valid entry exists,
// otherwise executes it with exec — at most once across concurrent callers
// of the same statement — and caches the result when it is safe to do so.
//
// A hit costs a map lookup and one version snapshot: the statement is not
// lexed. Anything else asks src for the statement's facts, which resolve
// it through the engine's plan cache, and hands them to exec, which runs
// the statement they carry without resolving it again: a statement that
// is not a SELECT the engine parses bypasses the cache; a shape admission
// refuses is executed and nothing stored; the rest execute as a flight's
// leader, which snapshots the tables' versions before and after and stores
// the entry only when they match, so a result raced by a concurrent write
// is never recorded (it may reflect either side of it).
func (c *Cache) Do(src Source, sql string, exec func(sqldb.Facts) (*core.SQLResult, error)) (*core.SQLResult, Outcome, error) {
	k := key{src, sql}
	var facts sqldb.Facts
	analyzed, waited := false, false
	for {
		c.mu.Lock()
		if e := c.lookupLocked(k); e != nil {
			c.stats.Hits++
			mHits.Inc()
			if waited {
				c.stats.Dedups++
				mDedups.Inc()
			}
			res, out := e.res, Outcome{How: Hit, Dedup: waited, Digest: e.facts.Digest, Norm: e.facts.Norm}
			c.mu.Unlock()
			return res, out, nil
		}
		if c.flights[k] {
			// Another caller is executing this statement. Wait, then loop
			// to re-check the cache: a stored entry is validated against
			// current table versions, and if the leader could not store
			// (error, write race) this caller leads its own flight.
			// Followers never serve an unvalidated result.
			for c.flights[k] {
				c.landed.Wait()
			}
			c.mu.Unlock()
			waited = true
			continue
		}
		if !analyzed {
			c.mu.Unlock()
			facts, analyzed = src.StatementFacts(sql), true
			if !facts.Cacheable {
				c.addStat(&c.stats.Bypasses, mBypasses)
				res, err := exec(facts)
				return res, Outcome{How: Bypass}, err
			}
			continue
		}
		if c.refuseLocked(facts.Digest) {
			c.stats.Refused++
			mRefused.Inc()
			c.mu.Unlock()
			res, err := exec(facts)
			return res, Outcome{How: Refused}, err
		}
		c.stats.Misses++
		mMisses.Inc()
		c.flights[k] = true
		c.mu.Unlock()
		res, err := c.lead(k, facts, exec)
		return res, Outcome{How: Miss, Dedup: waited}, err
	}
}

// land ends k's flight and wakes its followers. lead defers it, so that a
// panic under the leader lands the flight too: a flight left registered
// would keep every later caller of the statement waiting for ever.
func (c *Cache) land(k key) {
	c.mu.Lock()
	delete(c.flights, k)
	c.landed.Broadcast()
	c.mu.Unlock()
}

// lead runs the query as the single flight leader, stores the result
// when the version snapshots bracket it cleanly, and lands the flight.
func (c *Cache) lead(k key, facts sqldb.Facts, exec func(sqldb.Facts) (*core.SQLResult, error)) (*core.SQLResult, error) {
	defer c.land(k)
	n := len(facts.Tables)
	vs := k.src.AppendTableVersions(make([]uint64, 0, 2*n), facts.Tables)
	res, err := exec(facts)
	if err != nil {
		return nil, err
	}
	vs = k.src.AppendTableVersions(vs, facts.Tables)
	before, after := vs[:n], vs[n:]
	c.mu.Lock()
	defer c.mu.Unlock()
	// A write that landed while the query ran leaves the result's position
	// relative to it unknown: serve it, don't store it.
	if !versionsEqual(before, after) || !c.storeLocked(k, res, facts, after) {
		c.stats.Uncacheable++
		mUncacheable.Inc()
	}
	return res, nil
}

// lookupLocked returns the valid entry under k. It is where a table's
// version is seen to move: each link of the entry whose table moved is
// swept, which may drop the entry itself. c.mu held.
func (c *Cache) lookupLocked(k key) *entry {
	e, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.cur = k.src.AppendTableVersions(c.cur[:0], e.facts.Tables)
	for i := range e.links {
		if l := e.links[i].l; c.cur[i] != l.seen {
			c.sweepLocked(k.src, l, c.cur[i])
		}
	}
	// Linked, and every link swept to the current version: no write since
	// the entry was read can have changed its result.
	if e.next == nil {
		return nil
	}
	c.toFront(e)
	e.hit = true
	// The render memo a request may have left on the result since the entry
	// was last served (core.SQLResult.MemoBytes) is charged here.
	if m := int64(e.res.MemoBytes()); m != e.memo {
		c.bytes += m - e.memo
		e.size += m - e.memo
		e.memo = m
		c.evictLocked()
	}
	return e
}

// sweepLocked brings l from the version it has seen to v: it reads the
// table's changes in between and drops every entry whose predicate an
// image of a change satisfies — every entry under l on a change of the
// whole table, or when the changes are no longer on record. c.mu held.
func (c *Cache) sweepLocked(src Source, l *tableLink, v uint64) {
	changes, ok := src.Changes(l.table, l.seen, v)
	l.seen = v
	if !ok {
		c.dropLinkLocked(l)
		return
	}
	for i := range changes {
		ch := &changes[i]
		if ch.Whole() {
			c.dropLinkLocked(l)
			return
		}
		if len(ch.Images()) == 0 {
			continue
		}
		c.bindLocked(src, l, ch)
		for _, img := range ch.Images() {
			for col := range l.cols {
				if k, ok := sqldb.ImageKey(img, col); ok {
					c.dropMatchingLocked(l.keyed[k], ch, img)
				}
			}
			c.dropMatchingLocked(l.rest, ch, img)
		}
	}
}

// bindLocked moves l's fresh entries to the rest or to a bucket, with
// their predicates compiled for ch's images. c.mu held.
func (c *Cache) bindLocked(src Source, l *tableLink, ch *sqldb.Change) {
	for l.fresh != nil {
		n := l.fresh
		n.unlink(&l.fresh)
		n.pred = src.Predicate(&n.e.facts, ch)
		k, ok := n.pred.Key()
		if !ok {
			n.in = rest
			n.push(&l.rest)
			continue
		}
		n.in = keyed
		head := l.keyed[k]
		n.push(&head)
		l.keyed[k] = head
		l.cols[k.Column()]++
	}
}

// dropMatchingLocked drops the entries of the list at n whose predicate
// img, an image of ch, satisfies; with ch nil, all of them. c.mu held.
func (c *Cache) dropMatchingLocked(n *link, ch *sqldb.Change, img []sqldb.Value) {
	for n != nil {
		next := n.next // dropping the entry takes n out of the list
		if ch == nil || n.pred.Matches(ch, img) {
			c.invalidateLocked(n.e)
		}
		n = next
	}
}

// dropLinkLocked drops every entry that read l's table. c.mu held.
func (c *Cache) dropLinkLocked(l *tableLink) {
	c.dropMatchingLocked(l.fresh, nil, nil)
	c.dropMatchingLocked(l.rest, nil, nil)
	for _, n := range l.keyed {
		c.dropMatchingLocked(n, nil, nil)
	}
}

// invalidateLocked drops an entry a write overtook; one nobody was served
// from is a wasted fill of its shape. c.mu held.
func (c *Cache) invalidateLocked(e *entry) {
	c.removeLocked(e)
	c.stats.Invalidations++
	mInvalidations.Inc()
	if sh := c.shapes[e.facts.Digest]; !e.hit && sh != nil && sh.wasted < sh.fills {
		sh.wasted++
	}
}

// refuseLocked reports whether this execution of the shape stays out of
// the cache. c.mu held.
func (c *Cache) refuseLocked(digest string) bool {
	sh := c.shapes[digest]
	if sh == nil || sh.fills < admitMinFills || 2*sh.wasted <= sh.fills {
		return false
	}
	if sh.skipped++; sh.skipped == probeEvery {
		sh.skipped = 0
		return false
	}
	return true
}

// storeLocked inserts an entry read at versions, links it under its
// tables, counts the fill and evicts from the LRU tail until the byte
// budget holds. It reports false for a result that cannot be kept: larger
// than the whole budget, or read before a write some lookup has already
// seen. c.mu held.
func (c *Cache) storeLocked(k key, res *core.SQLResult, facts sqldb.Facts, versions []uint64) bool {
	size := int64(res.SizeBytes() + len(k.sql))
	if size > c.maxBytes {
		return false
	}
	e := &entry{key: k, res: res, size: size, facts: facts}
	if e.links = e.one[:]; len(facts.Tables) != 1 {
		e.links = make([]link, len(facts.Tables))
	}
	for i, t := range facts.Tables {
		l := c.links[tableKey{k.src, t}]
		if l == nil {
			l = newTableLink(t, versions[i])
			c.links[tableKey{k.src, t}] = l
		}
		if versions[i] < l.seen {
			return false
		}
		if versions[i] > l.seen {
			c.sweepLocked(k.src, l, versions[i])
		}
		e.links[i] = link{e: e, l: l}
	}
	if old, ok := c.entries[k]; ok {
		c.removeLocked(old)
	}
	c.toFront(e)
	c.entries[k] = e
	for i := range e.links {
		n := &e.links[i]
		n.push(&n.l.fresh)
	}
	c.bytes += size
	c.stats.Stores++
	mStores.Inc()

	sh := c.shapes[facts.Digest]
	if sh == nil {
		if len(c.shapes) >= maxShapes {
			c.shapes = map[string]*shape{}
		}
		sh = &shape{}
		c.shapes[facts.Digest] = sh
	}
	if sh.fills++; sh.fills == decayFills {
		sh.fills, sh.wasted = sh.fills/2, sh.wasted/2
	}
	c.evictLocked()
	return true
}

// evictLocked removes entries from the LRU tail until the byte budget
// holds. c.mu held.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		c.removeLocked(c.lru.prev)
		c.stats.Evictions++
		mEvictions.Inc()
	}
}

// removeLocked unlinks an entry from the map, the LRU and its tables.
// c.mu held.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	for i := range e.links {
		switch n, l := &e.links[i], e.links[i].l; n.in {
		case fresh:
			n.unlink(&l.fresh)
		case rest:
			n.unlink(&l.rest)
		case keyed:
			k, _ := n.pred.Key()
			head := l.keyed[k]
			if n.unlink(&head); head == nil {
				delete(l.keyed, k)
			} else {
				l.keyed[k] = head
			}
			if l.cols[k.Column()]--; l.cols[k.Column()] == 0 {
				delete(l.cols, k.Column())
			}
		}
	}
	c.bytes -= e.size
}

// NoteBypass counts a statement that went straight to the database
// without asking Do: one on a session with a transaction open, whose
// reads may see uncommitted data that must never leak into the cache.
func (c *Cache) NoteBypass() { c.addStat(&c.stats.Bypasses, mBypasses) }

func (c *Cache) addStat(p *int64, m *obs.Counter) {
	c.mu.Lock()
	*p++
	c.mu.Unlock()
	m.Inc()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the budgeted size of all live entries.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Flush drops every entry and the per-table links (the counters,
// admission's among them, are kept).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[key]*entry{}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.links = map[tableKey]*tableLink{}
	c.bytes = 0
}

func versionsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
