// Package flight is the gateway's flight recorder: it decides, after a
// request has finished, whether its record (the obs.Trace the request's
// goroutine filled: span waterfall, variable dereferences with depth, the
// fully-substituted SQL of every %SQL section with row counts and cache
// decisions) is worth keeping — a tail-based sampler keeps every error
// and slow request and samples the healthy tail — and holds the kept
// ones in a bounded in-memory ring and an optional rotating JSONL sink.
//
// Where internal/obs answers "is p99 up?", this package answers "which
// macro, which %SQL section, and which variable chain did it": aggregate
// metrics say that something regressed, a kept record shows the one
// request that did. On top of the recorder sits an SLO engine
// (multi-window burn rates per macro) and an anomaly trigger that
// captures pprof snapshots when a burn-rate threshold trips or a 5xx
// burst lands.
//
// The package depends only on internal/obs and the standard library, and
// every entry point is nil-safe so instrumented code never branches on
// "is the flight recorder on".
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"db2www/internal/obs"
)

// Retention decisions, in the order the sampler checks them. A record is
// never silently absent: the access log carries the decision for every
// request, so a missing /debug/flight record is distinguishable from a
// dropped one.
const (
	KeptError   = "kept:error"   // 5xx response: always retained
	KeptSlow    = "kept:slow"    // total over the slow threshold: always retained
	KeptSampled = "kept:sampled" // healthy request inside the sample rate
	Dropped     = "dropped"      // healthy request outside the sample rate
)

// Config configures a Recorder.
type Config struct {
	// SampleRate is the keep probability for healthy requests, in [0, 1].
	SampleRate float64
	// SlowThreshold marks requests slow (always kept): gatewayd's
	// -slow-threshold. 0 means the default (200ms); negative keeps every
	// request.
	SlowThreshold time.Duration
	// Dir, when non-empty, enables the JSONL sink (and pprof captures)
	// under this directory.
	Dir string
	// SLO configures the burn-rate engine.
	SLO SLOConfig
	// Metrics, when non-nil, receives db2www_flight_* counters.
	Metrics *obs.Registry
}

// What every recorder runs with; in-package tests change them.
var (
	ringSize           = 256     // kept records held in memory
	maxFileBytes int64 = 8 << 20 // flight.jsonl rotates past this size
	// burnThreshold is the 5m availability burn rate that trips a pprof
	// capture: the classic fast-burn page.
	burnThreshold = 10.0
	// burst5xx 5xx within burstWindow trip a capture too.
	burst5xx    = 10
	burstWindow = 10 * time.Second
	// pprofMinInterval rate-limits captures.
	pprofMinInterval = 5 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 200 * time.Millisecond
	} else if c.SlowThreshold < 0 {
		c.SlowThreshold = 0
	}
	return c
}

// Recorder owns the retention pipeline: sampler → ring → JSONL sink,
// feeding the SLO engine and the anomaly trigger with every request
// (kept or not — sampling applies to records, objectives see all
// traffic). A nil *Recorder no-ops everywhere, so disabled wiring costs
// one nil check.
type Recorder struct {
	sampler Sampler
	slo     *SLO
	anomaly *anomaly

	ring *obs.Ring
	sink *jsonlSink // nil without a Dir; a closed sink drops what it is given

	mKept    func(reason string) // nil when Metrics unset
	mDropped *obs.Counter
}

// New builds a Recorder. If cfg.Dir is set it is created and the JSONL
// sink opened; a sink that cannot open is an error (better to fail the
// flag than silently record nothing).
func New(cfg Config) (*Recorder, error) {
	cfg = cfg.withDefaults()
	r := &Recorder{
		sampler: Sampler{Rate: cfg.SampleRate, SlowThreshold: cfg.SlowThreshold},
		slo:     NewSLO(cfg.SLO),
		ring:    obs.NewRing(ringSize),
		anomaly: newAnomaly(cfg.Dir, cfg.Metrics),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("flight: create dir: %w", err)
		}
		sink, err := newJSONLSink(filepath.Join(cfg.Dir, "flight.jsonl"), maxFileBytes, cfg.Metrics)
		if err != nil {
			return nil, err
		}
		r.sink = sink
	}
	if reg := cfg.Metrics; reg != nil {
		const keptHelp = "flight records retained, by decision reason"
		kept := map[string]*obs.Counter{
			KeptError:   reg.Counter("db2www_flight_kept_total", keptHelp, "reason", "error"),
			KeptSlow:    reg.Counter("db2www_flight_kept_total", keptHelp, "reason", "slow"),
			KeptSampled: reg.Counter("db2www_flight_kept_total", keptHelp, "reason", "sampled"),
		}
		r.mKept = func(reason string) {
			if c := kept[reason]; c != nil {
				c.Inc()
			}
		}
		r.mDropped = reg.Counter("db2www_flight_dropped_total", "flight records dropped by the tail sampler")
	}
	return r, nil
}

// SLO exposes the recorder's burn-rate engine for /metrics export.
func (r *Recorder) SLO() *SLO {
	if r == nil {
		return nil
	}
	return r.slo
}

// SlowThreshold reports the slow cut-off the sampler uses.
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.sampler.SlowThreshold
}

// Observe ingests one finished request: feeds the SLO windows and the
// anomaly trigger, runs the tail sampler, writes the retention decision
// onto the record, and — when kept — puts the record in the ring and
// hands it to the sink, which is where it is first formatted. The caller
// has finished the record and publishes it to nobody before this
// returns. The decision is also returned (Dropped for a nil recorder,
// and for a nil record: a request nobody described is not counted).
func (r *Recorder) Observe(tr *obs.Trace) string {
	if r == nil || tr == nil {
		return Dropped
	}
	r.slo.Observe(tr.Macro, tr.Status, tr.Total)
	r.anomaly.note(tr.Status, tr.Macro, r.slo)

	tr.Decision = r.sampler.Decide(tr.Status, tr.Total, tr.ID)
	if tr.Decision == Dropped {
		if r.mDropped != nil {
			r.mDropped.Inc()
		}
		return Dropped
	}
	if r.mKept != nil {
		r.mKept(tr.Decision)
	}
	r.ring.Add(tr)
	r.sink.write(tr)
	return tr.Decision
}

// Records returns up to n kept records, newest first. n <= 0 means all.
func (r *Recorder) Records(n int) []*obs.Trace {
	if r == nil {
		return nil
	}
	recs := r.ring.Snapshot()
	if n > 0 && n < len(recs) {
		recs = recs[:n]
	}
	return recs
}

// Get returns the kept record for a trace ID, or nil.
func (r *Recorder) Get(traceID string) *obs.Trace {
	// Newest first, so a recycled trace ID resolves to its latest use.
	for _, rec := range r.Records(0) {
		if rec.ID == traceID {
			return rec
		}
	}
	return nil
}

// Close flushes and closes the JSONL sink. The recorder stays usable
// (ring only) after Close.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	return r.sink.close()
}

// jsonlSink appends records to <path> and rotates it to <path>.1 when
// it exceeds maxBytes — close, rename, reopen, so a crash at any point
// leaves either the old complete file or a fresh one, never a torn
// rename. One level of rotation: flight.jsonl + flight.jsonl.1 bound
// disk to ~2× the cap.
type jsonlSink struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        *os.File
	size     int64

	mRotations *obs.Counter
	mErrors    *obs.Counter
}

func newJSONLSink(path string, maxBytes int64, reg *obs.Registry) (*jsonlSink, error) {
	s := &jsonlSink{path: path, maxBytes: maxBytes}
	if reg != nil {
		s.mRotations = reg.Counter("db2www_flight_rotations_total", "flight JSONL sink rotations")
		s.mErrors = reg.Counter("db2www_flight_sink_errors_total", "flight JSONL sink write/rotate errors")
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *jsonlSink) open() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("flight: open sink: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("flight: stat sink: %w", err)
	}
	s.f, s.size = f, st.Size()
	return nil
}

// write appends one record as one line in one Write, so a crash tears at
// most the last line; errors are counted, not returned — losing a flight
// record must never fail the request it describes.
func (s *jsonlSink) write(rec *obs.Trace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		var n int
		n, err = s.f.Write(append(line, '\n'))
		s.size += int64(n)
	}
	if err != nil && s.mErrors != nil {
		s.mErrors.Inc()
	}
	if s.size >= s.maxBytes {
		s.rotateLocked()
	}
}

func (s *jsonlSink) rotateLocked() {
	s.f.Close()
	s.f = nil
	if err := os.Rename(s.path, s.path+".1"); err != nil {
		if s.mErrors != nil {
			s.mErrors.Inc()
		}
		// fall through: reopen (appending to the oversized file) beats
		// dropping all future records.
	} else if s.mRotations != nil {
		s.mRotations.Inc()
	}
	if err := s.open(); err != nil && s.mErrors != nil {
		s.mErrors.Inc()
	}
}

func (s *jsonlSink) close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
