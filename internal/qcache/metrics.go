package qcache

import "db2www/internal/obs"

// Prometheus counters mirroring the Stats fields. Stats stays the
// programmatic per-cache snapshot (experiments diff it around a run);
// these registry counters are the process-wide operational view that
// /metrics exposes, incremented at the same sites.
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
		"query-cache entries discarded on a table-version mismatch")
	mRefused = obs.Default.Counter("db2www_qcache_refused_total",
		"SELECTs of a shape admission keeps out of the query cache: executed, not looked up, not stored")
	mBypasses = obs.Default.Counter("db2www_qcache_bypasses_total",
		"statements that skipped the query cache (writes, open transaction)")
	mUncacheable = obs.Default.Counter("db2www_qcache_uncacheable_total",
		"SELECTs executed but not stored (non-deterministic, oversize, or raced by a write)")
)
