package gateway

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// equivOp is one request of a connection's sequence.
type equivOp struct{ path, body string }

// Each of the equivConns connections owns every equivConns-th customer of
// orders:40:10:1 and its ten products, reads only those and ships only
// those: whatever the interleaving, its pages are a function of its own
// sequence.
const (
	equivConns     = 4
	equivCustomers = 40
	equivProducts  = 10 // per customer
	equivOpsAConn  = 250
)

// equivSequence derives connection conn's requests from the seed: the
// benchmark's orders.d2w operations (product search, spend report, ship
// with its read-back) on the connection's own customers, and Appendix A
// searches, which nobody writes under.
func equivSequence(seed int64, conn int) []equivOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	form := func(kv ...string) string {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Add(kv[i], kv[i+1])
		}
		return v.Encode()
	}
	ops := make([]equivOp, equivOpsAConn)
	for i := range ops {
		c := conn + equivConns*rng.Intn(equivCustomers/equivConns) // the customer's index
		custid := fmt.Sprint(10000 + c*100)
		switch n := rng.Intn(10); {
		case n < 2:
			ops[i] = equivOp{"/cgi-bin/db2www/orders.d2w/report", form("sqlcmd", "products", "cust_inp", custid)}
		case n < 4:
			prefix := []string{"bik", "hel", "loc", "ten", "rop", "sto", "pac", "boo"}[rng.Intn(8)]
			ops[i] = equivOp{"/cgi-bin/db2www/orders.d2w/report", form("sqlcmd", "products", "cust_inp", custid, "prod_inp", prefix)}
		case n < 6:
			ops[i] = equivOp{"/cgi-bin/db2www/orders.d2w/report", form("sqlcmd", "spend", "cust_inp", custid)}
		case n < 8:
			prodid := fmt.Sprint(c*equivProducts + 1 + rng.Intn(equivProducts))
			ops[i] = equivOp{"/cgi-bin/db2www/orders.d2w/report", form("sqlcmd", "ship", "prod_id", prodid)}
		default:
			term := []string{"ib", "www", "data", "zzzz"}[rng.Intn(4)]
			box := []string{"USE_URL", "USE_TITLE"}[rng.Intn(2)]
			ops[i] = equivOp{"/cgi-bin/db2www/urlquery.d2w/report", form("SEARCH", term, box, "yes", "DBFIELDS", "title")}
		}
	}
	return ops
}

// equivReplay runs every connection's sequence on its own goroutine
// against a server built from cfg and returns the pages.
func equivReplay(t *testing.T, cfg ServerConfig, seqs [][]equivOp) (pages [][]string, srv *Server) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	pages = make([][]string, len(seqs))
	var wg sync.WaitGroup
	for conn, ops := range seqs {
		wg.Add(1)
		go func(conn int, ops []equivOp) {
			defer wg.Done()
			for _, op := range ops {
				req := httptest.NewRequest("POST", "http://localhost"+op.path, strings.NewReader(op.body))
				req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("conn %d: %s %s: status %d", conn, op.path, op.body, rec.Code)
					return
				}
				pages[conn] = append(pages[conn], rec.Body.String())
			}
		}(conn, ops)
	}
	wg.Wait()
	return pages, srv
}

// TestCachedEqualsUncachedUnderWrites: the server gatewayd builds by
// default, query cache in front of the engine, against the same server
// with -qcache-bytes 0, on identical datasets and identical
// per-connection request sequences that write beside their reads — every
// page byte for byte, in both transaction modes. What admission makes of
// that traffic is read off the cache afterwards.
func TestCachedEqualsUncachedUnderWrites(t *testing.T) {
	root := repoRoot(t)
	macros := t.TempDir()
	for _, src := range []string{"benchmark/macros/orders/orders.d2w", "testdata/macros/urlquery.d2w"} {
		text, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(src)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(macros, filepath.Base(src)), text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make([][]equivOp, equivConns)
	for conn := range seqs {
		seqs[conn] = equivSequence(24, conn)
	}
	for _, txn := range []string{"auto", "single"} {
		cfg := DefaultServerConfig()
		cfg.Macros = macros
		cfg.Dataset = fmt.Sprintf("orders:%d:%d:1,urldb:200:1", equivCustomers, equivProducts)
		cfg.Txn = txn

		plain := cfg
		plain.QCacheBytes = 0
		want, srv := equivReplay(t, plain, seqs)
		srv.Close() // the next server registers the same database name
		got, srv := equivReplay(t, cfg, seqs)
		if t.Failed() {
			return
		}
		for conn := range seqs {
			for i := range seqs[conn] {
				if got[conn][i] != want[conn][i] {
					t.Fatalf("-txn %s, conn %d, request %d (%s): the cached server's page differs\ncached:\n%s\nuncached:\n%s",
						txn, conn, i, seqs[conn][i].body, got[conn][i], want[conn][i])
				}
			}
		}
		st := srv.QCache.Stats()
		t.Logf("-txn %s: %+v, %d entries", txn, st, srv.QCache.Len())
		if txn == "single" {
			// Every statement ran inside its request's transaction.
			if st.Bypasses == 0 || st.Hits+st.Misses+st.Refused != 0 {
				t.Errorf("-txn single: %+v, want every statement a bypass", st)
			}
			continue
		}
		if st.Hits == 0 || st.Invalidations == 0 || st.Refused == 0 {
			t.Errorf("-txn auto: %+v, want hits, invalidations and refusals", st)
		}
		// Eight Appendix A texts stay; what read products left with its
		// table but for the probes since the last ship.
		if n := srv.QCache.Len(); n > 64 {
			t.Errorf("-txn auto: %d entries live after the run, want at most 64", n)
		}
		srv.Close()
	}
}
