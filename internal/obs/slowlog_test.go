package obs_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"db2www/internal/flight"
	"db2www/internal/obs"
)

// The slow log is the flight recorder's kept:slow record: these tests pin
// that a Trace over the cut-off reaches flight.jsonl with everything the
// slow log's line carried, in the JSON form this package gives a Trace.

func slowSink(t *testing.T, threshold time.Duration) (*flight.Recorder, func() string) {
	t.Helper()
	dir := t.TempDir()
	rec, err := flight.New(flight.Config{SlowThreshold: threshold, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec, func() string {
		t.Helper()
		out, err := os.ReadFile(filepath.Join(dir, "flight.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
}

func TestSlowLogThreshold(t *testing.T) {
	rec, file := slowSink(t, 100*time.Millisecond)

	fast := obs.NewTrace("fast1")
	fast.Finish(200, 50*time.Millisecond)
	if d := rec.Observe(fast); d != flight.Dropped {
		t.Fatalf("fast request: %s, want dropped at sample rate 0", d)
	}

	slow := obs.NewTrace("slow1")
	slow.Method, slow.Path = "GET", "/cgi-bin/db2www/urlquery.d2w/report"
	e := slow.StartSQL("Q1", "SELECT url FROM urldb")
	e.Cache = "miss"
	slow.EndSQL(e, time.Now(), time.Millisecond, 500, nil)
	slow.Finish(200, 250*time.Millisecond)
	if d := rec.Observe(slow); d != flight.KeptSlow {
		t.Fatalf("slow request: %s, want kept:slow", d)
	}
	out := file()
	for _, want := range []string{
		`"trace_id":"slow1"`, `"status":200`, `"total_micros":250000`, `"decision":"kept:slow"`,
		`"method":"GET","path":"/cgi-bin/db2www/urlquery.d2w/report"`,
		`"name":"sql-exec:Q1"`, `"note":"rows=500 cache=miss sql=\"SELECT url FROM urldb\""`,
		`"sql":"SELECT url FROM urldb","rows":500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("kept:slow line missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, "fast1") || strings.Count(out, "\n") != 1 {
		t.Errorf("want one line, the slow request's:\n%s", out)
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var rec *flight.Recorder
	if d := rec.Observe(obs.NewTrace("x")); d != flight.Dropped {
		t.Fatalf("nil recorder: %s", d)
	}
	real, file := slowSink(t, -1)
	if d := real.Observe(nil); d != flight.Dropped || file() != "" {
		t.Fatalf("nil trace: %s, file %q", d, file())
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	rec, file := slowSink(t, -1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr := obs.NewTrace(obs.NewTraceID())
				tr.Finish(200, time.Millisecond)
				rec.Observe(tr)
			}
		}()
	}
	wg.Wait()
	out := file()
	if got := strings.Count(out, "\n"); got != 400 {
		t.Errorf("lines = %d, want 400", got)
	}
	if got := strings.Count(out, `"decision":"kept:slow"`); got != 400 {
		t.Errorf("kept:slow lines = %d, want 400 whole ones", got)
	}
}
