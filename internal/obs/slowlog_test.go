package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe strings.Builder for log assertions.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestSlowLogThreshold(t *testing.T) {
	var buf syncBuffer
	l := NewSlowLog(&buf, 100*time.Millisecond)
	l.SetClock(func() time.Time { return time.Date(1996, 6, 4, 12, 0, 0, 0, time.UTC) })

	fast := NewTrace("fast1")
	fast.Finish(200, 50*time.Millisecond)
	if l.Record(fast) {
		t.Fatal("fast request must not be logged")
	}

	slow := NewTrace("slow1")
	slow.Method, slow.Path = "GET", "/cgi-bin/db2www/urlquery.d2w/report"
	e := slow.StartSQL("Q1", "SELECT url FROM urldb")
	e.Cache = "miss"
	slow.EndSQL(e, time.Now(), time.Millisecond, 500, nil)
	slow.Finish(200, 250*time.Millisecond)
	if !l.Record(slow) {
		t.Fatal("slow request must be logged")
	}
	out := buf.String()
	for _, want := range []string{
		"trace=slow1", "status=200", "total=250ms",
		"GET /cgi-bin/db2www/urlquery.d2w/report",
		"sql-exec:Q1=", `[rows=500 cache=miss sql="SELECT url FROM urldb"]`,
		"1996-06-04T12:00:00Z",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow log missing %q:\n%s", want, out)
		}
	}
	if l.Count() != 1 {
		t.Errorf("count = %d", l.Count())
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	if l.Record(NewTrace("x")) || l.Count() != 0 || l.Threshold() != 0 {
		t.Fatal("nil slow log must no-op")
	}
	real := NewSlowLog(&syncBuffer{}, time.Second)
	if real.Record(nil) {
		t.Fatal("nil trace must no-op")
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewSlowLog(&buf, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr := NewTrace(NewTraceID())
				tr.Finish(200, time.Millisecond)
				l.Record(tr)
			}
		}()
	}
	wg.Wait()
	if l.Count() != 400 {
		t.Errorf("count = %d, want 400", l.Count())
	}
	if got := strings.Count(buf.String(), "\n"); got != 400 {
		t.Errorf("lines = %d, want 400", got)
	}
}
