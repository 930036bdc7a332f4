package flight

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// recordSummary is the list view: enough to pick a trace, without the
// full waterfall, variable and SQL payload.
type recordSummary struct {
	TraceID     string `json:"trace_id"`
	Time        string `json:"time"`
	Method      string `json:"method"`
	Path        string `json:"path"`
	Macro       string `json:"macro,omitempty"`
	Status      int    `json:"status"`
	TotalMicros int64  `json:"total_micros"`
	Decision    string `json:"decision"`
	Spans       int    `json:"spans"`
	SQL         int    `json:"sql"`
}

// Handler serves the recorder over HTTP:
//
//	GET /debug/flight            → JSON list of kept records, newest first
//	GET /debug/flight?n=50       → cap the list
//	GET /debug/flight?trace=<id> → one full record (404 if not retained)
//
// The trace IDs are the X-Trace-Id values the gateway echoes on every
// response, so a client can go straight from a slow response to its
// flight record.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if r == nil {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"error": "flight recorder disabled",
			})
			return
		}
		if id := req.URL.Query().Get("trace"); id != "" {
			rec := r.Get(id)
			if rec == nil {
				w.WriteHeader(http.StatusNotFound)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error": "no retained record for trace " + id,
				})
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rec)
			return
		}
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		recs := r.Records(n)
		out := struct {
			Count   int             `json:"count"`
			Records []recordSummary `json:"records"`
		}{Count: len(recs), Records: make([]recordSummary, len(recs))}
		for i, rec := range recs {
			out.Records[i] = recordSummary{
				TraceID:     rec.ID,
				Time:        rec.Begun.UTC().Format("2006-01-02T15:04:05.000Z"),
				Method:      rec.Method,
				Path:        rec.Path,
				Macro:       rec.Macro,
				Status:      rec.Status,
				TotalMicros: rec.Total.Microseconds(),
				Decision:    rec.Decision,
				Spans:       len(rec.Spans),
				SQL:         len(rec.SQL),
			}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
}
