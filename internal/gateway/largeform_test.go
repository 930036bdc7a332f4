package gateway

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLargeSearchesAreNotPinned: Appendix A reports, each POSTed with a
// distinct search string of 900 KB, leave no more of the heap in use than
// the query cache's budget and a margin. Each report's SQL text is as long
// as its search string; the query cache charges the texts it keeps to its
// budget, and nothing behind it may keep one beyond that budget.
func TestLargeSearchesAreNotPinned(t *testing.T) {
	const budget, posts, margin = 8 << 20, 100, 24 << 20
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "testdata", "macros")
	cfg.Dataset = "urldb:50:1"
	cfg.QCacheBytes = budget
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	filler := strings.Repeat("q", 900<<10)
	post := func(i int) {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf("SEARCH=%d%s&USE_URL=yes", i, filler)
		req := httptest.NewRequest("POST", "http://localhost/cgi-bin/db2www/urlquery.d2w/report", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("post %d: status %d\n%.500s", i, rec.Code, rec.Body)
		}
	}
	inUse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	post(0)
	before := inUse()
	for i := 1; i <= posts; i++ {
		post(i)
	}
	grown := int64(inUse()) - int64(before)
	t.Logf("%d posts: heap in use grew by %.1f MB; the query cache holds %.1f MB", posts, float64(grown)/1e6, float64(srv.QCache.Bytes())/1e6)
	if grown > budget+margin {
		t.Errorf("%d posts of 900 KB searches left %.1f MB more of the heap in use, over the query cache's %d MiB and a margin of %d MiB",
			posts, float64(grown)/1e6, budget>>20, margin>>20)
	}
}
