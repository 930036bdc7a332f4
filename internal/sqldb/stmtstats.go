package sqldb

import (
	"sort"
	"strconv"
	"sync"
)

// StatementStats is a pg_stat_statements-style registry: per-digest call
// counts, latency aggregates, row counts, cache hits, and MVCC conflict
// retries. Cardinality is capped: once cap distinct digests exist, new
// shapes fold into a single "_other" bucket (the same shape-explosion
// defence as the SLO engine's 64-macro cap), so a macro that interpolates
// unparameterized literals cannot grow the registry without bound —
// normalization already collapses literal-only variation, the cap catches
// genuinely distinct shapes.
type StatementStats struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*stmtEntry
}

// DefaultStmtCap is the number of distinct statement shapes tracked before
// new shapes fold into the "_other" bucket.
const DefaultStmtCap = 64

// maxStmtText is how much of a shape's normalized text the registry keeps:
// the digest is of the whole text, but an entry must not pin a statement
// of any size (obs.Trace.StartSQL keeps the request record's by the same
// rule).
const maxStmtText = 500

// OtherDigest is the digest of the overflow bucket that absorbs statement
// shapes beyond the registry's cardinality cap.
const OtherDigest = "_other"

// stmtMicroBuckets are the log-spaced latency bucket upper bounds (in
// microseconds) each entry histograms its calls into for the p99 estimate.
var stmtMicroBuckets = [numStmtBuckets]int64{
	10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
}

const numStmtBuckets = 19

type stmtEntry struct {
	digest      string
	text        string // normalized statement, first shape seen wins, cut at maxStmtText
	kind        string
	calls       int64
	errors      int64
	rows        int64
	cacheHits   int64
	retries     int64
	totalMicros int64
	minMicros   int64
	maxMicros   int64
	buckets     [numStmtBuckets]int64 // cumulative-style on read
	lastPlan    string
}

// StmtStat is one registry row in exported form.
type StmtStat struct {
	Digest          string  `json:"digest"`
	Statement       string  `json:"statement"`
	Kind            string  `json:"kind"`
	Calls           int64   `json:"calls"`
	Errors          int64   `json:"errors"`
	Rows            int64   `json:"rows"`
	CacheHits       int64   `json:"cache_hits"`
	ConflictRetries int64   `json:"conflict_retries"`
	TotalMicros     int64   `json:"total_micros"`
	MinMicros       int64   `json:"min_micros"`
	MaxMicros       int64   `json:"max_micros"`
	MeanMicros      float64 `json:"mean_micros"`
	P99Micros       int64   `json:"p99_micros"`
	LastPlan        string  `json:"last_plan,omitempty"`
}

// NewStatementStats returns a registry tracking at most cap distinct
// digests (plus the overflow bucket). cap <= 0 means DefaultStmtCap.
func NewStatementStats(cap int) *StatementStats {
	if cap <= 0 {
		cap = DefaultStmtCap
	}
	return &StatementStats{cap: cap, entries: map[string]*stmtEntry{}}
}

// Statements is the process-wide registry every Database records into by
// default. A shared registry means a process sees one statement table
// across all its embedded databases, mirroring how
// pg_stat_statements is cluster-wide rather than per-database.
var Statements = NewStatementStats(DefaultStmtCap)

// entry returns the bucket for digest, creating it or falling back to
// "_other" when the cap is reached. Callers hold s.mu.
func (s *StatementStats) entry(digest, text, kind string) *stmtEntry {
	if e, ok := s.entries[digest]; ok {
		return e
	}
	if len(s.entries) >= s.cap {
		digest, text, kind = OtherDigest, "(statements beyond the top-"+strconv.Itoa(s.cap)+" cap)", "other"
		if e, ok := s.entries[digest]; ok {
			return e
		}
	}
	if len(text) > maxStmtText {
		text = text[:maxStmtText] + "…" // a copy
	}
	e := &stmtEntry{digest: digest, text: text, kind: kind}
	s.entries[digest] = e
	return e
}

// Record accumulates one engine execution of the statement shape.
func (s *StatementStats) Record(digest, text, kind string, micros, rows int64, retries int64, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(digest, text, kind)
	e.calls++
	if failed {
		e.errors++
	}
	e.rows += rows
	e.retries += retries
	e.totalMicros += micros
	if e.calls == 1 || micros < e.minMicros {
		e.minMicros = micros
	}
	if micros > e.maxMicros {
		e.maxMicros = micros
	}
	for i, bound := range stmtMicroBuckets {
		if micros <= bound {
			e.buckets[i]++
			break
		}
	}
}

// NoteCacheHit counts a query-cache hit for the shape: an execution the
// engine never saw because the cache answered it.
func (s *StatementStats) NoteCacheHit(digest, text, kind string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entry(digest, text, kind).cacheHits++
}

// SetPlan stores the most recent EXPLAIN ANALYZE rendering for the shape.
func (s *StatementStats) SetPlan(digest, text, plan string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entry(digest, text, "").lastPlan = plan
}

func (e *stmtEntry) export() StmtStat {
	st := StmtStat{
		Digest:          e.digest,
		Statement:       e.text,
		Kind:            e.kind,
		Calls:           e.calls,
		Errors:          e.errors,
		Rows:            e.rows,
		CacheHits:       e.cacheHits,
		ConflictRetries: e.retries,
		TotalMicros:     e.totalMicros,
		MinMicros:       e.minMicros,
		MaxMicros:       e.maxMicros,
		LastPlan:        e.lastPlan,
	}
	if e.calls > 0 {
		st.MeanMicros = float64(e.totalMicros) / float64(e.calls)
		st.P99Micros = e.p99()
	}
	return st
}

// p99 estimates the 99th-percentile latency from the bucket counts: the
// upper bound of the first bucket whose cumulative count covers 99% of
// calls, or the observed maximum for the over-range tail.
func (e *stmtEntry) p99() int64 {
	target := (e.calls*99 + 99) / 100 // ceil(0.99 * calls)
	var cum int64
	for i, n := range e.buckets {
		cum += n
		if cum >= target {
			return stmtMicroBuckets[i]
		}
	}
	return e.maxMicros
}

// Snapshot exports every row, busiest first, with "_other" always last.
func (s *StatementStats) Snapshot() []StmtStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StmtStat, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.export())
	}
	sort.Slice(out, func(i, j int) bool {
		if (out[i].Digest == OtherDigest) != (out[j].Digest == OtherDigest) {
			return out[j].Digest == OtherDigest
		}
		if out[i].Calls != out[j].Calls {
			return out[i].Calls > out[j].Calls
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Get returns the row for one digest.
func (s *StatementStats) Get(digest string) (StmtStat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[digest]
	if !ok {
		return StmtStat{}, false
	}
	return e.export(), true
}

// Len reports the number of distinct digests currently tracked (including
// the overflow bucket once it exists).
func (s *StatementStats) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Reset drops every row. Tests use it to isolate runs against the shared
// registry.
func (s *StatementStats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[string]*stmtEntry{}
}
