package qcache

import "db2www/internal/obs"

// What the caches of the process have done, counted where Stats counts it:
// Stats is one cache's own view (tests and experiments read it around a
// run), these are what /metrics and /server-status serve.
var (
	mHits = obs.Default.Counter("db2www_qcache_hits_total",
		"query-cache lookups served from a valid entry")
	mMisses = obs.Default.Counter("db2www_qcache_misses_total",
		"query-cache lookups that executed the query to fill an entry")
	mDedups = obs.Default.Counter("db2www_qcache_dedups_total",
		"query-cache hits by callers that waited on another caller's flight")
	mStores = obs.Default.Counter("db2www_qcache_stores_total",
		"query-cache entries written")
	mEvictions = obs.Default.Counter("db2www_qcache_evictions_total",
		"query-cache entries removed to stay inside the byte budget")
	mInvalidations = obs.Default.Counter("db2www_qcache_invalidations_total",
		"query-cache entries a write dropped: an image of a row it wrote satisfied their predicate")
	mRefused = obs.Default.Counter("db2www_qcache_refused_total",
		"SELECTs of a shape admission keeps out of the query cache: executed, not looked up, not stored")
	mBypasses = obs.Default.Counter("db2www_qcache_bypasses_total",
		"statements that skipped the query cache (writes, open transaction)")
	mUncacheable = obs.Default.Counter("db2www_qcache_uncacheable_total",
		"SELECTs executed but not stored (oversize, or raced by a write)")
)

// RegisterMetrics exports what c holds — its live entries and the bytes
// charged to its budget — refreshed on every scrape. gatewayd calls it for
// the cache in front of its database.
func RegisterMetrics(c *Cache) {
	entries := obs.Default.Gauge("db2www_qcache_entries", "live query-cache entries")
	bytes := obs.Default.Gauge("db2www_qcache_bytes",
		"bytes charged to the query-cache budget: results, keys and render memos")
	obs.Default.OnScrape(func() {
		entries.Set(int64(c.Len()))
		bytes.Set(c.Bytes())
	})
}
