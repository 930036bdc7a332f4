package history

import (
	"testing"
	"time"

	"db2www/internal/obs"
)

// testClock is a manually-advanced clock for driving scrapes without
// wall-time sleeps.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(1996, time.June, 4, 10, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *testClock) tick(s *Store, d time.Duration) {
	c.advance(d)
	s.Scrape()
}

func newTestStore(t *testing.T, cfg Config) (*Store, *testClock) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := New(cfg)
	clk := newTestClock()
	s.SetClock(clk.now)
	return s, clk
}

func TestScrapeStoresCountersAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("demo_total", "demo")
	g := reg.Gauge("demo_gauge", "demo")
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})

	c.Add(3)
	g.Set(7)
	clk.tick(s, time.Second)
	c.Add(2)
	g.Set(5)
	clk.tick(s, time.Second)

	pts := s.Samples("demo_total", 0)
	if len(pts) != 2 || pts[0].V != 3 || pts[1].V != 5 {
		t.Fatalf("counter samples = %+v", pts)
	}
	pts = s.Samples("demo_gauge", 0)
	if len(pts) != 2 || pts[1].V != 5 {
		t.Fatalf("gauge samples = %+v", pts)
	}
	if v, ok := s.Last("demo_gauge"); !ok || v != 5 {
		t.Fatalf("Last = %v %v", v, ok)
	}
	if s.Scrapes() != 2 {
		t.Fatalf("scrapes = %d", s.Scrapes())
	}
}

func TestRateFromCumulativeCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("reqs_total", "demo")
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})

	clk.tick(s, time.Second) // value 0
	c.Add(10)
	clk.tick(s, 2*time.Second) // +10 over 2s → 5/s
	c.Add(30)
	clk.tick(s, time.Second) // +30 over 1s → 30/s

	pts := s.Rate("reqs_total", 0)
	if len(pts) != 2 {
		t.Fatalf("rate points = %+v", pts)
	}
	if pts[0].V != 5 || pts[1].V != 30 {
		t.Fatalf("rates = %v, %v; want 5, 30", pts[0].V, pts[1].V)
	}
}

func TestRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("wrap_total", "demo")
	// Retention 5s at 1s interval → 5 samples per ring.
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: 5 * time.Second})

	for i := 1; i <= 12; i++ {
		c.Inc()
		clk.tick(s, time.Second)
	}
	pts := s.Samples("wrap_total", 0)
	if len(pts) != 5 {
		t.Fatalf("retained %d samples, want 5 (ring capacity)", len(pts))
	}
	// Oldest-first ordering across the wrap: the last 5 scrapes saw
	// values 8..12.
	for i, p := range pts {
		if want := float64(8 + i); p.V != want {
			t.Fatalf("pts[%d] = %v, want %v (oldest-first after wrap)", i, p.V, want)
		}
		if i > 0 && !pts[i-1].T.Before(p.T) {
			t.Fatalf("timestamps not ascending across wrap: %v then %v", pts[i-1].T, p.T)
		}
	}
	// Rate across the wrap stays 1/s everywhere.
	for _, p := range s.Rate("wrap_total", 0) {
		if p.V != 1 {
			t.Fatalf("rate across wrap = %v, want 1", p.V)
		}
	}
}

func TestSyntheticRequestSeries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("db2www_http_requests_total", "h", "code", "200").Add(7)
	reg.Counter("db2www_http_requests_total", "h", "code", "404").Add(2)
	reg.Counter("db2www_http_requests_total", "h", "code", "500").Add(1)
	reg.Counter("db2www_http_requests_total", "h", "code", "502").Add(1)
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	clk.tick(s, time.Second)

	if v, ok := s.Last(SeriesRequests); !ok || v != 11 {
		t.Fatalf("%s = %v %v, want 11", SeriesRequests, v, ok)
	}
	if v, ok := s.Last(Series5xx); !ok || v != 2 {
		t.Fatalf("%s = %v %v, want 2", Series5xx, v, ok)
	}
}

func TestWindowRestrictsSamples(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "demo")
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		clk.tick(s, time.Second)
	}
	// now = last scrape time; a 3s window keeps samples at now-3s..now
	// inclusive — four scrapes.
	pts := s.Samples("g", 3*time.Second)
	if len(pts) != 4 {
		t.Fatalf("windowed samples = %d, want 4", len(pts))
	}
	if pts[0].V != 6 {
		t.Fatalf("window start value = %v, want 6", pts[0].V)
	}
}

func TestDerivAndMaxAcross(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.FloatGauge("burn", "demo", "macro", "a")
	g2 := reg.FloatGauge("burn", "demo", "macro", "b")
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	g.Set(1)
	g2.Set(4)
	clk.tick(s, time.Second)
	g.Set(5)
	g2.Set(2)
	clk.tick(s, 2*time.Second)

	if v, ok := s.Deriv(`burn{macro="a"}`, time.Minute); !ok || v != 2 {
		t.Fatalf("Deriv = %v %v, want 2 (Δ4 over 2s)", v, ok)
	}
	pts := s.MaxAcross("burn{", time.Minute)
	if len(pts) != 2 || pts[0].V != 4 || pts[1].V != 5 {
		t.Fatalf("MaxAcross = %+v, want [4 5]", pts)
	}
}

func TestStepAlign(t *testing.T) {
	base := time.Date(1996, time.June, 4, 10, 0, 0, 0, time.UTC)
	pts := []Point{
		{T: base.Add(1 * time.Second), V: 1},
		{T: base.Add(4 * time.Second), V: 2},
		{T: base.Add(11 * time.Second), V: 3},
		{T: base.Add(14 * time.Second), V: 4},
		{T: base.Add(21 * time.Second), V: 5},
	}
	got := stepAlign(pts, 10*time.Second)
	if len(got) != 3 {
		t.Fatalf("stepAlign kept %d points, want 3: %+v", len(got), got)
	}
	for i, want := range []float64{2, 4, 5} {
		if got[i].V != want {
			t.Fatalf("step bucket %d = %v, want %v (last sample per step)", i, got[i].V, want)
		}
		if got[i].T != got[i].T.Truncate(10*time.Second) {
			t.Fatalf("step bucket %d timestamp %v not aligned", i, got[i].T)
		}
	}
}

func TestStartAndCloseScrapeLoop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "demo").Add(1)
	s := New(Config{Registry: reg, Interval: 5 * time.Millisecond, Retention: time.Second})
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Scrapes() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	if s.Scrapes() < 2 {
		t.Fatalf("scrape loop took no scrapes")
	}
	// An unstarted store's Close must not hang either.
	New(Config{Registry: obs.NewRegistry()}).Close()
}

func TestSelfMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "demo").Add(1)
	s, clk := newTestStore(t, Config{Registry: reg, Interval: time.Second, Retention: time.Minute})
	clk.tick(s, time.Second)
	snap := reg.Snapshot()
	if snap["db2www_history_scrapes_total"] != 1 {
		t.Fatalf("scrapes self-metric = %v", snap["db2www_history_scrapes_total"])
	}
	if snap["db2www_history_series"] < 3 { // c_total + 2 synthetic
		t.Fatalf("series self-metric = %v", snap["db2www_history_series"])
	}
	if snap["db2www_history_samples_total"] < 3 {
		t.Fatalf("samples self-metric = %v", snap["db2www_history_samples_total"])
	}
}
