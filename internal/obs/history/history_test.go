package history

import (
	"testing"
	"time"

	"db2www/internal/obs"
)

// testClock is a manually-advanced clock for driving scrapes without
// wall-time sleeps.
type testClock struct{ t time.Time }

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
	clk := &testClock{t: time.Date(1996, time.June, 4, 10, 0, 0, 0, time.UTC)}
	s.now = clk.now
	return s, clk
}

// override sets a package variable for the duration of a test.
func override[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// values returns the series' samples in the window, oldest first.
func values(s *Store, key string, window time.Duration) []float64 {
	var out []float64
	for _, smp := range s.window(key, window) {
		out = append(out, smp.v)
	}
	return out
}

func TestScrapeStoresCountersAndGauges(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("demo_total", "demo")
	g := reg.Gauge("demo_gauge", "demo")
	s, clk := newTestStore(t, Config{Registry: reg})

	c.Add(3)
	g.Set(7)
	clk.tick(s, time.Second)
	c.Add(2)
	g.Set(5)
	clk.tick(s, time.Second)

	if v := values(s, "demo_total", 0); len(v) != 2 || v[0] != 3 || v[1] != 5 {
		t.Fatalf("counter samples = %v", v)
	}
	if v := values(s, "demo_gauge", 0); len(v) != 2 || v[1] != 5 {
		t.Fatalf("gauge samples = %v", v)
	}
	if v, ok := s.last("demo_gauge"); !ok || v != 5 {
		t.Fatalf("last = %v %v", v, ok)
	}
	if n := reg.Snapshot()["db2www_history_scrapes_total"]; n != 2 {
		t.Fatalf("scrapes = %v", n)
	}
}

func TestRateFromCumulativeCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("reqs_total", "demo")
	s, clk := newTestStore(t, Config{Registry: reg})

	clk.tick(s, time.Second) // value 0
	c.Add(10)
	clk.tick(s, 2*time.Second) // +10 over 2s → 5/s
	c.Add(30)
	clk.tick(s, time.Second) // +30 over 1s → 30/s

	if r := s.rates("reqs_total", 0); len(r) != 2 || r[0] != 5 || r[1] != 30 {
		t.Fatalf("rates = %v; want [5 30]", r)
	}
}

func TestRingWraparound(t *testing.T) {
	override(t, &retention, 5*interval) // 5 samples per ring
	reg := obs.NewRegistry()
	c := reg.Counter("wrap_total", "demo")
	s, clk := newTestStore(t, Config{Registry: reg})

	for i := 1; i <= 12; i++ {
		c.Inc()
		clk.tick(s, time.Second)
	}
	snap := s.window("wrap_total", 0)
	if len(snap) != 5 {
		t.Fatalf("retained %d samples, want 5 (ring capacity)", len(snap))
	}
	// Oldest-first ordering across the wrap: the last 5 scrapes saw
	// values 8..12.
	for i, smp := range snap {
		if want := float64(8 + i); smp.v != want {
			t.Fatalf("sample %d = %v, want %v (oldest-first after wrap)", i, smp.v, want)
		}
		if i > 0 && !snap[i-1].t.Before(smp.t) {
			t.Fatalf("timestamps not ascending across wrap: %v then %v", snap[i-1].t, smp.t)
		}
	}
	// Rate across the wrap stays 1/s everywhere.
	for _, r := range s.rates("wrap_total", 0) {
		if r != 1 {
			t.Fatalf("rate across wrap = %v, want 1", r)
		}
	}
}

func TestSyntheticRequestSeries(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("db2www_http_requests_total", "h", "code", "200").Add(7)
	reg.Counter("db2www_http_requests_total", "h", "code", "404").Add(2)
	reg.Counter("db2www_http_requests_total", "h", "code", "500").Add(1)
	reg.Counter("db2www_http_requests_total", "h", "code", "502").Add(1)
	s, clk := newTestStore(t, Config{Registry: reg})
	clk.tick(s, time.Second)

	if v, ok := s.last(Series5xx); !ok || v != 2 {
		t.Fatalf("%s = %v %v, want 2", Series5xx, v, ok)
	}
}

func TestWindowRestrictsSamples(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "demo")
	s, clk := newTestStore(t, Config{Registry: reg})
	for i := 0; i < 10; i++ {
		g.Set(int64(i))
		clk.tick(s, time.Second)
	}
	// now = last scrape time; a 3s window keeps samples at now-3s..now
	// inclusive — four scrapes.
	if v := values(s, "g", 3*time.Second); len(v) != 4 || v[0] != 6 {
		t.Fatalf("windowed samples = %v, want [6 7 8 9]", v)
	}
}

func TestStartAndCloseScrapeLoop(t *testing.T) {
	override(t, &interval, 5*time.Millisecond)
	reg := obs.NewRegistry()
	reg.Counter("c_total", "demo").Add(1)
	s := New(Config{Registry: reg})
	s.Start()
	scrapes := func() float64 { return reg.Snapshot()["db2www_history_scrapes_total"] }
	deadline := time.Now().Add(2 * time.Second)
	for scrapes() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	if scrapes() < 2 {
		t.Fatalf("scrape loop took no scrapes")
	}
	// An unstarted store's Close must not hang either.
	New(Config{Registry: obs.NewRegistry()}).Close()
}

func TestSelfMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("c_total", "demo").Add(1)
	s, clk := newTestStore(t, Config{Registry: reg})
	clk.tick(s, time.Second)
	snap := reg.Snapshot()
	if snap["db2www_history_scrapes_total"] != 1 {
		t.Fatalf("scrapes self-metric = %v", snap["db2www_history_scrapes_total"])
	}
	if snap["db2www_history_series"] < 2 { // c_total + the synthetic 5xx sum
		t.Fatalf("series self-metric = %v", snap["db2www_history_series"])
	}
	if snap["db2www_history_samples_total"] < 2 {
		t.Fatalf("samples self-metric = %v", snap["db2www_history_samples_total"])
	}
}
