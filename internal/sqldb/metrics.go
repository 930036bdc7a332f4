package sqldb

import (
	"time"

	"db2www/internal/obs"
)

// Registry series for the embedded engine: execution latency by
// statement kind, time spent acquiring the database readers-writer lock
// (the contention signal for the one-big-lock design), and rows returned.
var (
	mExecSelect = obs.Default.Histogram("db2www_sqldb_exec_seconds",
		"statement execution time inside the embedded engine, by statement kind",
		nil, "kind", "select")
	mExecWrite = obs.Default.Histogram("db2www_sqldb_exec_seconds",
		"statement execution time inside the embedded engine, by statement kind",
		nil, "kind", "write")
	mExecDDL = obs.Default.Histogram("db2www_sqldb_exec_seconds",
		"statement execution time inside the embedded engine, by statement kind",
		nil, "kind", "ddl")
	mLockWait = obs.Default.Histogram("db2www_sqldb_lock_wait_seconds",
		"time spent acquiring the database readers-writer lock", nil)
	mRowsReturned = obs.Default.Counter("db2www_sqldb_rows_returned_total",
		"rows returned by SELECT statements")

	// Transaction outcomes under MVCC: auto-commit statements count as
	// transactions too; "conflict" is a first-committer-wins loser
	// (SQLSTATE 40001), counted separately from voluntary rollbacks.
	mTxnCommit = obs.Default.Counter("db2www_sqldb_txn_total",
		"transactions finished, by outcome", "outcome", "commit")
	mTxnRollback = obs.Default.Counter("db2www_sqldb_txn_total",
		"transactions finished, by outcome", "outcome", "rollback")
	mTxnConflict = obs.Default.Counter("db2www_sqldb_txn_total",
		"transactions finished, by outcome", "outcome", "conflict")
	mVacuumRows = obs.Default.Counter("db2www_sqldb_vacuum_rows_total",
		"row versions reclaimed by vacuum and commit-time pruning")

	// mChainLength is the MVCC health histogram: version-chain lengths
	// observed by vacuum sweeps. A distribution drifting right means
	// writers outrun pruning (usually a pinned old snapshot).
	mChainLength = obs.Default.Histogram("db2www_sqldb_version_chain_length",
		"row version chain lengths observed by vacuum sweeps",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
)

// RegisterMetrics exports db's statement registry, per-table access and
// storage counters, and transaction and MVCC health gauges to the obs
// registry, refreshed on every scrape. Call once per exported database
// (gatewayd calls it for the in-process engine); registering twice would
// double the scrape work for identical output.
func RegisterMetrics(db *Database) {
	obs.Default.OnScrape(func() {
		for _, st := range db.StatementStats().Snapshot() {
			l := []string{"digest", st.Digest}
			obs.Default.Gauge("db2www_sqldb_stmt_calls",
				"statement executions by digest", l...).Set(st.Calls)
			obs.Default.Gauge("db2www_sqldb_stmt_rows",
				"rows returned or affected by digest", l...).Set(st.Rows)
			obs.Default.Gauge("db2www_sqldb_stmt_total_micros",
				"total engine microseconds by digest", l...).Set(st.TotalMicros)
			obs.Default.Gauge("db2www_sqldb_stmt_p99_micros",
				"estimated p99 latency in microseconds by digest", l...).Set(st.P99Micros)
			obs.Default.Gauge("db2www_sqldb_stmt_cache_hits",
				"query-cache hits by digest", l...).Set(st.CacheHits)
			obs.Default.Gauge("db2www_sqldb_stmt_conflict_retries",
				"MVCC conflict retries by digest", l...).Set(st.ConflictRetries)
		}
		for _, ts := range db.TableStatsSnapshot() {
			l := []string{"table", ts.Name}
			obs.Default.Gauge("db2www_sqldb_table_seq_scans",
				"sequential scans per table", l...).Set(ts.SeqScans)
			obs.Default.Gauge("db2www_sqldb_table_index_scans",
				"index-routed scans per table", l...).Set(ts.IndexScans)
			obs.Default.Gauge("db2www_sqldb_table_rows_read",
				"rows returned by scans per table", l...).Set(ts.RowsRead)
			obs.Default.Gauge("db2www_sqldb_table_rows_inserted",
				"rows inserted per table", l...).Set(ts.RowsInserted)
			obs.Default.Gauge("db2www_sqldb_table_rows_updated",
				"rows updated per table", l...).Set(ts.RowsUpdated)
			obs.Default.Gauge("db2www_sqldb_table_rows_deleted",
				"rows deleted per table", l...).Set(ts.RowsDeleted)
			obs.Default.Gauge("db2www_sqldb_table_conflict_retries",
				"auto-commit conflict retries per table", l...).Set(int64(ts.ConflictRetries))
			obs.Default.Gauge("db2www_sqldb_table_max_chain",
				"deepest version chain per table", l...).Set(int64(ts.MaxChain))
			obs.Default.Gauge("db2www_sqldb_table_live_rows",
				"rows a fresh snapshot sees per table", l...).Set(int64(ts.Rows))
			obs.Default.Gauge("db2www_sqldb_table_versions",
				"row versions held per table, pending ones included", l...).Set(int64(ts.Versions))
			for _, ix := range ts.Indexes {
				obs.Default.Gauge("db2www_sqldb_index_scans",
					"scans served per index", "table", ts.Name, "index", ix.Name).Set(ix.Scans)
			}
		}
		pc := db.PlanCacheStats()
		// The plan cache holds parses, not plans (plan.go); the series keep
		// their names.
		obs.Default.Gauge("db2www_sqldb_plan_cache_hits",
			"parse cache hits: statements whose shape was parsed before").Set(int64(pc.Hits))
		obs.Default.Gauge("db2www_sqldb_plan_cache_misses",
			"parse cache misses: statement shapes parsed for the first time").Set(int64(pc.Misses))
		obs.Default.Gauge("db2www_sqldb_plan_cache_bypasses",
			"statements the parse cache does not take (DDL, EXPLAIN, a shape that does not parse)").Set(int64(pc.Bypasses))
		obs.Default.Gauge("db2www_sqldb_plan_cache_size",
			"statement shapes whose parse is cached").Set(int64(pc.Size))
		st := db.TxnStats()
		obs.Default.Gauge("db2www_sqldb_txn_active_snapshots",
			"distinct live MVCC snapshots: open transactions and running statements").Set(int64(st.ActiveSnapshots))
		obs.Default.Gauge("db2www_sqldb_txn_watermark",
			"commit sequence of the oldest live snapshot, below which vacuum reclaims").Set(int64(st.OldestSnapshot))
		obs.Default.Gauge("db2www_sqldb_txn_commit_seq",
			"last published commit sequence").Set(int64(st.CommitSeq))
		obs.Default.Gauge("db2www_sqldb_txn_conflict_retries",
			"auto-commit statements replayed after losing a first-committer-wins race").Set(int64(st.ConflictRetries))
		obs.Default.Gauge("db2www_sqldb_vacuum_sweeps",
			"vacuum passes, background and manual").Set(int64(st.VacuumSweeps))
		obs.Default.FloatGauge("db2www_sqldb_oldest_snapshot_age_seconds",
			"age of the oldest live MVCC snapshot").Set(st.OldestSnapshotAge.Seconds())
		ratio := 0.0
		if st.VacuumScannedRows > 0 {
			ratio = float64(st.VacuumedRows) / float64(st.VacuumScannedRows)
		}
		obs.Default.FloatGauge("db2www_sqldb_vacuum_reclaim_ratio",
			"versions reclaimed (sweeps + commit-time pruning) per version scanned by sweeps").Set(ratio)
	})
}

// obsEnabled reports whether engine observability recording is on; the
// statement registry and MVCC telemetry gate on it so the A7 ablation
// can measure the fully-instrumented engine against the bare one.
func obsEnabled() bool { return obs.Enabled() }

// obsNow returns the wall clock when observability is enabled, else the
// zero time; the observe helpers no-op on zero, so the disabled path
// costs one atomic load and no clock reads.
func obsNow() time.Time {
	if !obs.Enabled() {
		return time.Time{}
	}
	return time.Now()
}

// observeLockWait records the time since the caller started waiting for
// the database lock.
func observeLockWait(start time.Time) {
	if start.IsZero() {
		return
	}
	mLockWait.Observe(time.Since(start).Seconds())
}

// observeExec records one statement execution in h.
func observeExec(h *obs.Histogram, start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// observeRows counts a SELECT's result rows.
func observeRows(res *Result) {
	if res != nil && len(res.Rows) > 0 {
		mRowsReturned.Add(int64(len(res.Rows)))
	}
}
