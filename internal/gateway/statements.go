package gateway

import (
	"encoding/json"
	"net/http"
	"strconv"

	"db2www/internal/sqldb"
)

// StatementsHandler serves the embedded engine's statement stats
// registry over HTTP:
//
//	GET /debug/statements             → JSON list, busiest digest first
//	GET /debug/statements?n=10        → cap the list
//	GET /debug/statements?digest=<d>  → one digest's full row, including
//	                                    its last EXPLAIN ANALYZE plan
//
// The digests are the same values the flight recorder's SQL records
// carry (digest=...), so a slow request's kept record links straight to
// its statement's aggregate profile.
func StatementsHandler(db *sqldb.Database) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		stats := db.StatementStats()
		if digest := req.URL.Query().Get("digest"); digest != "" {
			st, ok := stats.Get(digest)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error": "no statement with digest " + digest,
				})
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
			return
		}
		rows := stats.Snapshot()
		if s := req.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(rows) {
				rows = rows[:n]
			}
		}
		// The list view omits the stored plans: they are multi-line and
		// belong to the per-digest detail.
		for i := range rows {
			rows[i].LastPlan = ""
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"statements": rows,
			"tracked":    stats.Len(),
			"plan_cache": db.PlanCacheStats(),
		})
	})
}
