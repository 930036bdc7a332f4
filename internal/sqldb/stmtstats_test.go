package sqldb

import (
	"fmt"
	"sync"
	"testing"

	"db2www/internal/obs"
)

func TestStatementStatsCap(t *testing.T) {
	s := NewStatementStats(3)
	for i := 0; i < 5; i++ {
		s.Record(fmt.Sprintf("d%d", i), fmt.Sprintf("SELECT %d", i), "select", 10, 1, 0, false)
	}
	if got := s.Len(); got != 4 { // 3 real shapes + the overflow bucket
		t.Fatalf("Len() = %d, want 4 (cap 3 plus %q)", got, OtherDigest)
	}
	other, ok := s.Get(OtherDigest)
	if !ok {
		t.Fatalf("no %q bucket after overflowing the cap", OtherDigest)
	}
	if other.Calls != 2 {
		t.Errorf("overflow bucket has %d calls, want 2", other.Calls)
	}
	// Cache hits on a brand-new shape past the cap also fold into _other.
	s.NoteCacheHit("d99", "SELECT 99", "select")
	if other, _ = s.Get(OtherDigest); other.CacheHits != 1 {
		t.Errorf("overflow bucket has %d cache hits, want 1", other.CacheHits)
	}
	// Known shapes keep accumulating under their own digest past the cap.
	s.Record("d0", "SELECT 0", "select", 10, 1, 0, false)
	if st, _ := s.Get("d0"); st.Calls != 2 {
		t.Errorf("d0 has %d calls after second record, want 2", st.Calls)
	}

	snap := s.Snapshot()
	if snap[len(snap)-1].Digest != OtherDigest {
		t.Errorf("Snapshot does not sort %q last: %v", OtherDigest, snap)
	}
}

func TestStatementStatsAggregates(t *testing.T) {
	s := NewStatementStats(0)
	for i := 0; i < 99; i++ {
		s.Record("fast", "SELECT 1", "select", 5, 1, 0, false)
	}
	s.Record("fast", "SELECT 1", "select", 30_000, 1, 2, true)
	st, ok := s.Get("fast")
	if !ok {
		t.Fatal("digest not tracked")
	}
	if st.Calls != 100 || st.Errors != 1 || st.Rows != 100 || st.ConflictRetries != 2 {
		t.Errorf("calls=%d errors=%d rows=%d retries=%d, want 100/1/100/2",
			st.Calls, st.Errors, st.Rows, st.ConflictRetries)
	}
	if st.MinMicros != 5 || st.MaxMicros != 30_000 {
		t.Errorf("min=%d max=%d, want 5/30000", st.MinMicros, st.MaxMicros)
	}
	if want := float64(99*5+30_000) / 100; st.MeanMicros != want {
		t.Errorf("mean=%f, want %f", st.MeanMicros, want)
	}
	// 99 of 100 calls land in the ≤10µs bucket, so p99 is that bucket's
	// upper bound; the one slow call is the over-p99 tail.
	if st.P99Micros != 10 {
		t.Errorf("p99=%d, want 10", st.P99Micros)
	}

	// A latency beyond the last bucket bound falls back to the observed max.
	s.Record("huge", "SELECT 2", "select", 99_999_999, 0, 0, false)
	if st, _ = s.Get("huge"); st.P99Micros != 99_999_999 {
		t.Errorf("over-range p99=%d, want the observed max", st.P99Micros)
	}

	s.Reset()
	if s.Len() != 0 {
		t.Errorf("Len() = %d after Reset, want 0", s.Len())
	}
}

// TestStatementStatsConcurrentWorkload drives an A9-style mixed workload
// (concurrent readers and writers on one table, MVCC conflicts and all)
// against a private registry and checks that every execution is accounted
// for. Run under -race this also exercises concurrent Record/Snapshot.
func TestStatementStatsConcurrentWorkload(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	db := NewDatabase("STRESS")
	stats := NewStatementStats(8)
	db.SetStatementStats(stats)

	setup := NewSession(db)
	if _, err := setup.Exec("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)"); err != nil {
		t.Fatal(err)
	}
	const accounts = 64
	for i := 0; i < accounts; i++ {
		if _, err := setup.Exec(fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, 100)", i)); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	const (
		readers = 4
		writers = 2
		iters   = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sess := NewSession(db)
			defer sess.Close()
			for i := 0; i < iters; i++ {
				id := (seed*31 + i*7) % accounts
				if _, err := sess.Exec(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sess := NewSession(db)
			defer sess.Close()
			for i := 0; i < iters; i++ {
				id := (seed*17 + i*5) % accounts
				if _, err := sess.Exec(fmt.Sprintf("UPDATE acct SET bal = bal + 1 WHERE id = %d", id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// A scraper hammers the read side while the workload runs, the same
	// access pattern /metrics and /debug/statements produce.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				stats.Snapshot()
				stats.Len()
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Literals normalize away, so the whole workload is 4 shapes: CREATE,
	// INSERT, SELECT, UPDATE — comfortably under the cap of 8.
	if got := stats.Len(); got != 4 {
		for _, st := range stats.Snapshot() {
			t.Logf("digest %s calls=%d %q", st.Digest, st.Calls, st.Statement)
		}
		t.Fatalf("tracked %d digests, want 4", got)
	}
	var total int64
	for _, st := range stats.Snapshot() {
		total += st.Calls
	}
	if want := int64(1 + accounts + readers*iters + writers*iters); total != want {
		t.Errorf("recorded %d calls, want %d (every execution accounted for)", total, want)
	}
	d, _ := DigestSQL("UPDATE acct SET bal = bal + 1 WHERE id = 0")
	st, ok := stats.Get(d)
	if !ok {
		t.Fatalf("update shape %s not tracked", d)
	}
	if st.Calls != writers*iters {
		t.Errorf("update shape has %d calls, want %d", st.Calls, writers*iters)
	}
	if st.Errors != 0 {
		t.Errorf("update shape recorded %d errors (auto-commit should retry conflicts internally)", st.Errors)
	}
}
