package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"db2www/internal/gateway"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
)

// Config is the scale of a gate's run. The zero value is full scale, what
// BenchmarkA7_RequestRecord runs and, with a longer soak,
// BenchmarkA12_HistoryStore.
type Config struct {
	Rows     int   // urldb size (default 500)
	Requests int   // buys five block pairs for every 50 (default 200: 20 pairs)
	Seed     int64 // dataset seed (default 1)
	// Soak is A12's sustained-traffic phase duration (default 3s).
	Soak time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 500
	}
	if c.Requests == 0 {
		c.Requests = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// appendixAReportURL is the report request the overhead ablations serve:
// a substring-LIKE full scan with the query cache off, so the work the
// instrumentation brackets is real.
const appendixAReportURL = "http://server/cgi-bin/db2www/urlquery.d2w/report" +
	"?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"

// blockTime is how long one block of pairedBlocks serves traffic. It is a
// stretch of time and not a count of requests: what an always-on layer
// costs does not depend on what a request costs, so "one block per 50
// requests" became a shorter block every time the request got cheaper.
const blockTime = 35 * time.Millisecond

// pairedOverhead is what pairedBlocks measured: the median pair's mean
// request time on each side, how many requests that pair's on block
// served, and how many all on blocks served.
type pairedOverhead struct {
	OffMicros, OnMicros float64
	BlockRequests       int
	OnRequests          int
}

// pairedBlocks is the one estimator of the off/on ablations. The same
// request is served in adjacent (off, on) blocks of blockTime each, and
// the pair with the median on − off is the result. The sides alternate in
// adjacent blocks rather than in back-to-back full runs because scheduler
// and GC drift moves single-run means by ~10 %, far more than the effects
// under measurement: the pairing cancels any drift slower than a block,
// and a spike landing in one block poisons one pair instead of a whole
// side's mean. (Best-of-N means per side and median-of-round-means both
// proved looser: the former's minima come from different rounds and
// inherit their relative luck, the latter still averages spikes into
// every round.) enter puts the process on a block's side; it runs inside
// the timed section, so what a side pays once per block (A12's scrape) is
// amortized into the block mean exactly as it would amortize into
// served-request latency. Every block starts from a collected heap,
// outside the timed section, so that the two blocks of a pair see the
// same number of GC cycles.
func pairedBlocks(pairs int, request func() error, enter func(on bool)) (pairedOverhead, error) {
	runBlock := func(on bool) (micros float64, n int, err error) {
		runtime.GC()
		start := time.Now()
		enter(on)
		for n == 0 || time.Since(start) < blockTime {
			if err := request(); err != nil {
				return 0, 0, err
			}
			n++
		}
		return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), n, nil
	}
	type pair struct {
		off, on float64
		onN     int
	}
	var out pairedOverhead
	measured := make([]pair, 0, pairs)
	for i := -1; i < pairs; i++ { // pair −1 warms each side's code path
		off, _, err := runBlock(false)
		if err != nil {
			return out, err
		}
		on, onN, err := runBlock(true)
		if err != nil {
			return out, err
		}
		if i >= 0 {
			measured = append(measured, pair{off, on, onN})
			out.OnRequests += onN
		}
	}
	sort.Slice(measured, func(i, j int) bool {
		return measured[i].on-measured[i].off < measured[j].on-measured[j].off
	})
	med := measured[len(measured)/2]
	out.OffMicros, out.OnMicros, out.BlockRequests = med.off, med.on, med.onN
	return out, nil
}

// allocsPerRequest counts the heap allocations of n requests.
func allocsPerRequest(n int, request func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := request(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// RecordOverhead is one request's row of A7.
type RecordOverhead struct {
	Request        string
	Rows           int
	OffMicros      float64
	OnMicros       float64
	OverheadMicros float64
	OffAllocs      float64
	OnAllocs       float64
	// What the on side left behind: spans on the traces in the ring,
	// records the tail sampler kept of the OnRequests it saw, macros the
	// SLO windows track (they see every request, kept or not).
	SpansPerTrace float64
	OnRequests    int
	KeptRecords   int
	SLOMacros     int
}

// RecordAblation is A7's result: what a request pays for
// being described — its record filled, sampled, put in the ring and
// counted in the SLO windows, and the metrics and engine statistics that
// obs.SetEnabled gates with it — on gatewayd's default wiring.
type RecordAblation struct {
	Pairs          int
	Requests       []RecordOverhead
	DigestsTracked int
}

// maxRecordOverheadMicros is the acceptance bound A7 enforces on every
// request it measures: everything on may cost this much more than
// everything off. It is an amount and not a share: the layers cost a
// fixed amount per request, so every change that makes the request
// itself cheaper raises the share without the layer having changed.
const maxRecordOverheadMicros = 25.0

// pointLookupRows is the size of the benchmark's point_lookup dataset.
const pointLookupRows = 2000

// RunA7 measures the request record end to end: obs.SetEnabled(false)
// against everything on, through what gatewayd hands its listener with
// default flags (gateway.NewServer, the constructor cmd/gatewayd calls),
// on the Appendix A report and on the benchmark's point_lookup request —
// the one where the fixed cost of a request is the request.
func RunA7(cfg Config) (*RecordAblation, error) {
	cfg = cfg.withDefaults()
	defer obs.SetEnabled(true)
	sqldb.Statements.Reset()
	out := &RecordAblation{Pairs: 5 * max(cfg.Requests/50, 1)}
	for _, rq := range []struct {
		name   string
		macros string
		rows   int
		url    func(*sqldb.Database) (string, error)
	}{
		{"appendixa_report", corpusMacros(), cfg.Rows,
			func(*sqldb.Database) (string, error) { return appendixAReportURL, nil }},
		{"point_lookup", pointLookupMacros(), pointLookupRows, pointLookupURL},
	} {
		row, err := recordOverhead(rq.macros, rq.rows, cfg.Seed, rq.url, out.Pairs)
		if err != nil {
			return nil, fmt.Errorf("A7 %s: %w", rq.name, err)
		}
		row.Request = rq.name
		out.Requests = append(out.Requests, row)
	}
	out.DigestsTracked = sqldb.Statements.Len()
	return out, nil
}

// pointLookupMacros is the benchmark's urldb macro directory.
func pointLookupMacros() string { return filepath.Join(RepoRoot(), "benchmark", "macros", "urldb") }

// pointLookupURL is the detail request of one urldb row.
func pointLookupURL(db *sqldb.Database) (string, error) {
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT MIN(url) FROM urldb")
	if err != nil {
		return "", err
	}
	return "http://server/cgi-bin/db2www/detail.d2w/report?U=" + url.QueryEscape(res.Rows[0][0].String()), nil
}

func recordOverhead(macros string, rows int, seed int64, target func(*sqldb.Database) (string, error), pairs int) (RecordOverhead, error) {
	row := RecordOverhead{Rows: rows}
	srv, err := gateway.NewServer(gatewaydConfig(macros, rows, seed))
	if err != nil {
		return row, err
	}
	defer srv.Close()
	root := srv.Handler()
	rawURL, err := target(srv.DB)
	if err != nil {
		return row, err
	}
	req := httptest.NewRequest("GET", rawURL, nil)
	request := func() error {
		rec := httptest.NewRecorder()
		root.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", rec.Code)
		}
		return nil
	}
	res, err := pairedBlocks(pairs, request, obs.SetEnabled)
	if err != nil {
		return row, err
	}
	row.OffMicros, row.OnMicros, row.OverheadMicros = res.OffMicros, res.OnMicros, res.OnMicros-res.OffMicros
	row.OnRequests = res.OnRequests
	obs.SetEnabled(false)
	if row.OffAllocs, err = allocsPerRequest(200, request); err != nil {
		return row, err
	}
	obs.SetEnabled(true)
	if row.OnAllocs, err = allocsPerRequest(200, request); err != nil {
		return row, err
	}
	traces := srv.Traces.Snapshot()
	for _, t := range traces {
		row.SpansPerTrace += float64(len(t.Spans)) / float64(len(traces))
	}
	row.KeptRecords = len(srv.Flight.Records(0))
	row.SLOMacros = len(srv.Flight.SLO().Snapshot())
	return row, nil
}

// Check is A7's gate.
func (r *RecordAblation) Check() error {
	for _, q := range r.Requests {
		if q.OverheadMicros > maxRecordOverheadMicros {
			return fmt.Errorf("A7: the request record costs %s %.1f µs, over the %.0f µs budget",
				q.Request, q.OverheadMicros, maxRecordOverheadMicros)
		}
	}
	if r.DigestsTracked == 0 {
		return fmt.Errorf("A7: no statement digests tracked — the stats registry never recorded")
	}
	return nil
}
