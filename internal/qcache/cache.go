// Package qcache is a concurrency-safe query-result cache for the
// %EXEC_SQL path: it memoises materialised SELECT results keyed by
// (database, SQL text, bound parameters) so a read-dominated workload —
// the form/report applications the paper targets — stops re-executing
// identical statements between writes.
//
// Three mechanisms keep it correct and bounded:
//
//   - Table-version invalidation. Every entry records the version of each
//     table the query read (internal/sqldb bumps a per-table counter on
//     every write). A lookup re-reads the current versions and discards
//     the entry on any difference, so staleness is detected at read time
//     with an O(tables) comparison instead of a write-time broadcast.
//
//   - LRU eviction under a byte budget, with an optional TTL as a second
//     bound for deployments that prefer time-based freshness.
//
//   - Single-flight deduplication. N concurrent identical queries execute
//     once: one leader computes while followers wait, then re-check the
//     cache (never trusting an unvalidated hand-me-down result), so a
//     thundering herd after an invalidation costs one execution.
//
// The cache returns the same *core.SQLResult to every hit; results are
// immutable by the DBConn contract.
package qcache

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"time"

	"db2www/internal/core"
)

// VersionSource reports current table versions; *sqldb.Database
// implements it. Snapshots must be causally consistent with writes: a
// caller that can observe a write's effects must also observe its bump.
type VersionSource interface {
	TableVersions(tables []string) []uint64
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits          int64 // lookups served from a valid entry
	Misses        int64 // lookups that executed the query
	Dedups        int64 // hits by callers that waited on another's flight
	Stores        int64 // entries written
	Evictions     int64 // entries removed to stay inside the byte budget
	Invalidations int64 // entries discarded on a table-version mismatch
	Expirations   int64 // entries discarded past their TTL
	Bypasses      int64 // statements that skipped the cache (writes, open txn)
	Uncacheable   int64 // SELECTs executed but not stored (non-deterministic, oversize, or raced by a write)
}

// HitRatio returns hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entry struct {
	key      string
	res      *core.SQLResult
	size     int64
	expires  time.Time // zero means no TTL
	tables   []string
	versions []uint64
	elem     *list.Element
}

type flight struct {
	done chan struct{}
}

// Cache is the query-result cache. The zero value is not usable; use New.
type Cache struct {
	maxBytes int64
	ttl      time.Duration

	mu      sync.Mutex
	now     func() time.Time
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*flight
	stats   Stats
}

// New builds a cache holding at most maxBytes of materialised results
// (0 or negative means unbounded) whose entries expire after ttl
// (0 means no TTL).
func New(maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		ttl:      ttl,
		now:      time.Now,
		entries:  map[string]*entry{},
		lru:      list.New(),
		flights:  map[string]*flight{},
	}
}

// SetClock overrides the TTL clock (tests). Pass nil to restore time.Now.
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	c.now = now
}

// Do returns the cached result for key if a valid entry exists, otherwise
// executes compute — at most once across concurrent callers of the same
// key — and caches the result when it is safe to do so.
//
// analyze classifies the statement (called once, by the flight leader):
// the tables it reads and whether it may be cached at all. compute runs
// the statement against the real connection. src supplies table versions;
// the leader snapshots them before and after compute and stores the entry
// only when they match, so a result raced by a concurrent write is never
// recorded (it may reflect either side of the write).
func (c *Cache) Do(key string, src VersionSource,
	analyze func() (tables []string, cacheable bool),
	compute func() (*core.SQLResult, error)) (*core.SQLResult, error) {
	res, _, err := c.DoTracked(key, src, analyze, compute)
	return res, err
}

// DoTracked is Do, additionally reporting whether this caller was a
// single-flight follower — it waited on another caller's execution of
// the same key at least once. The flight recorder marks such statements
// dedup so a request's record shows which of its queries were
// coalesced.
func (c *Cache) DoTracked(key string, src VersionSource,
	analyze func() (tables []string, cacheable bool),
	compute func() (*core.SQLResult, error)) (*core.SQLResult, bool, error) {

	waited := false
	for {
		c.mu.Lock()
		if res, ok := c.lookupLocked(key, src); ok {
			c.stats.Hits++
			mHits.Inc()
			if waited {
				c.stats.Dedups++
				mDedups.Inc()
			}
			c.mu.Unlock()
			return res, waited, nil
		}
		f, inFlight := c.flights[key]
		if inFlight {
			// Another caller is executing this key. Wait, then loop to
			// re-check the cache: a stored entry is validated against
			// current table versions, and if the leader could not store
			// (error, write race, uncacheable) this caller leads its own
			// flight. Followers never serve an unvalidated result.
			c.mu.Unlock()
			<-f.done
			waited = true
			continue
		}
		c.stats.Misses++
		mMisses.Inc()
		f = &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		res, err := c.leaderExec(key, src, analyze, compute)
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
		return res, waited, err
	}
}

// leaderExec runs the query as the single flight leader and stores the
// result when the version snapshots bracket it cleanly.
func (c *Cache) leaderExec(key string, src VersionSource,
	analyze func() ([]string, bool),
	compute func() (*core.SQLResult, error)) (*core.SQLResult, error) {

	tables, cacheable := analyze()
	if !cacheable || src == nil {
		res, err := compute()
		if err == nil {
			c.addStat(&c.stats.Uncacheable)
			mUncacheable.Inc()
		}
		return res, err
	}
	before := src.TableVersions(tables)
	res, err := compute()
	if err != nil {
		return nil, err
	}
	after := src.TableVersions(tables)
	if !versionsEqual(before, after) {
		// A write landed while we executed; the result's position
		// relative to it is unknown. Serve it, don't store it.
		c.addStat(&c.stats.Uncacheable)
		mUncacheable.Inc()
		return res, nil
	}
	c.store(key, res, tables, after)
	return res, nil
}

// lookupLocked returns a valid entry's result, discarding the entry when
// it has expired or any table it read has since changed. c.mu held.
func (c *Cache) lookupLocked(key string, src VersionSource) (*core.SQLResult, bool) {
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(e)
		c.stats.Expirations++
		mExpirations.Inc()
		return nil, false
	}
	if src != nil && !versionsEqual(e.versions, src.TableVersions(e.tables)) {
		c.removeLocked(e)
		c.stats.Invalidations++
		mInvalidations.Inc()
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	return e.res, true
}

// store inserts (or replaces) an entry and evicts from the LRU tail until
// the byte budget holds. An entry larger than the whole budget is not
// stored at all.
func (c *Cache) store(key string, res *core.SQLResult, tables []string, versions []uint64) {
	size := int64(res.SizeBytes() + len(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size > c.maxBytes {
		c.stats.Uncacheable++
		mUncacheable.Inc()
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	e := &entry{key: key, res: res, size: size, tables: tables, versions: versions}
	if c.ttl > 0 {
		e.expires = c.now().Add(c.ttl)
	}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	c.stats.Stores++
	mStores.Inc()
	for c.maxBytes > 0 && c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.stats.Evictions++
		mEvictions.Inc()
	}
}

// removeLocked unlinks an entry. c.mu held.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.size
}

// NoteBypass counts a statement that went straight to the database:
// a write, or any statement inside an open transaction (whose reads may
// see uncommitted data that must never leak into the cache).
func (c *Cache) NoteBypass() {
	c.addStat(&c.stats.Bypasses)
	mBypasses.Inc()
}

func (c *Cache) addStat(p *int64) {
	c.mu.Lock()
	*p++
	c.mu.Unlock()
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

// StatusRows renders the counters and the live size for the
// /server-status "Query cache" section.
func (c *Cache) StatusRows() [][2]string {
	c.mu.Lock()
	st, entries, bytes := c.stats, len(c.entries), c.bytes
	c.mu.Unlock()
	return [][2]string{
		{"Hits", strconv.FormatInt(st.Hits, 10)},
		{"Misses", strconv.FormatInt(st.Misses, 10)},
		{"Hit ratio", fmt.Sprintf("%.3f", st.HitRatio())},
		{"Deduplicated", strconv.FormatInt(st.Dedups, 10)},
		{"Stores", strconv.FormatInt(st.Stores, 10)},
		{"Evictions", strconv.FormatInt(st.Evictions, 10)},
		{"Invalidations", strconv.FormatInt(st.Invalidations, 10)},
		{"Expirations", strconv.FormatInt(st.Expirations, 10)},
		{"Bypasses", strconv.FormatInt(st.Bypasses, 10)},
		{"Uncacheable", strconv.FormatInt(st.Uncacheable, 10)},
		{"Entries", strconv.Itoa(entries)},
		{"Bytes", strconv.FormatInt(bytes, 10)},
	}
}

// Flush drops every entry (counters are kept).
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*entry{}
	c.lru.Init()
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
