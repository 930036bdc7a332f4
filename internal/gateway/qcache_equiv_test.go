package gateway

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"db2www/internal/sqldb"
)

// equivOp is one step of a connection's sequence: a request, or with sql
// set, statements run through a session of the server's database between
// requests.
type equivOp struct {
	path, body string
	sql        []string
}

// Each of the equivConns connections owns every equivConns-th customer of
// orders:40:10:1 and its ten products, reads only those, ships only those
// and writes only those and the products it inserts: whatever the
// interleaving, its pages are a function of its own sequence.
const (
	equivConns     = 4
	equivCustomers = 40
	equivProducts  = 10 // per customer
	equivOpsAConn  = 250
)

// equivSequence derives connection conn's requests from the seed: the
// benchmark's orders.d2w operations (product search, spend report, ship
// with its read-back) on the connection's own customers, Appendix A
// searches, which nobody writes under, and writes beside the macros that
// make rows newly match or unmatch what a search read: a product renamed
// (its prefix changes), moved to another customer, inserted or deleted,
// and an update rolled back.
func equivSequence(seed int64, conn int) []equivOp {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
	form := func(kv ...string) string {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Add(kv[i], kv[i+1])
		}
		return v.Encode()
	}
	prefixes := []string{"bik", "hel", "loc", "ten", "rop", "sto", "pac", "boo"}
	kinds := []string{"bikes", "helmets", "locks", "tents", "ropes", "stoves", "packs", "boots"}
	customer := func() int { return conn + equivConns*rng.Intn(equivCustomers/equivConns) } // the customer's index
	custid := func(c int) string { return fmt.Sprint(10000 + c*100) }
	var inserted []int // prodids this connection inserted and has not deleted
	next := 100000 + conn*10000
	ops := make([]equivOp, equivOpsAConn)
	for i := range ops {
		c := customer()
		prodid := c*equivProducts + 1 + rng.Intn(equivProducts)
		switch n := rng.Intn(12); {
		case n < 2:
			ops[i] = equivOp{path: "/cgi-bin/db2www/orders.d2w/report", body: form("sqlcmd", "products", "cust_inp", custid(c))}
		case n < 4:
			ops[i] = equivOp{path: "/cgi-bin/db2www/orders.d2w/report", body: form("sqlcmd", "products", "cust_inp", custid(c), "prod_inp", prefixes[rng.Intn(8)])}
		case n < 6:
			ops[i] = equivOp{path: "/cgi-bin/db2www/orders.d2w/report", body: form("sqlcmd", "spend", "cust_inp", custid(c))}
		case n < 8:
			ops[i] = equivOp{path: "/cgi-bin/db2www/orders.d2w/report", body: form("sqlcmd", "ship", "prod_id", fmt.Sprint(prodid))}
		case n < 10:
			term := []string{"ib", "www", "data", "zzzz"}[rng.Intn(4)]
			box := []string{"USE_URL", "USE_TITLE"}[rng.Intn(2)]
			ops[i] = equivOp{path: "/cgi-bin/db2www/urlquery.d2w/report", body: form("SEARCH", term, box, "yes", "DBFIELDS", "title")}
		default:
			name := kinds[rng.Intn(8)] + " " + []string{"pro", "kids", "road"}[rng.Intn(3)]
			var sql string
			switch w := rng.Intn(5); {
			case w == 0:
				sql = fmt.Sprintf("UPDATE products SET product_name = '%s' WHERE prodid = %d", name, prodid)
			case w == 1:
				sql = fmt.Sprintf("UPDATE products SET custid = %s WHERE prodid = %d", custid(customer()), prodid)
			case w == 2 || w == 3 && len(inserted) == 0:
				next++
				inserted = append(inserted, next)
				sql = fmt.Sprintf("INSERT INTO products VALUES (%d, %s, '%s', 9.5, 3)", next, custid(c), name)
			case w == 3:
				sql = fmt.Sprintf("DELETE FROM products WHERE prodid = %d", inserted[0])
				inserted = inserted[1:]
			default:
				ops[i] = equivOp{sql: []string{"BEGIN",
					fmt.Sprintf("UPDATE products SET product_name = '%s', custid = %s WHERE prodid = %d", name, custid(customer()), prodid),
					fmt.Sprintf("INSERT INTO products VALUES (%d, %s, '%s', 1, 1)", next+1, custid(c), name),
					"ROLLBACK"}}
				continue
			}
			ops[i] = equivOp{sql: []string{sql}}
		}
	}
	return ops
}

// equivServe serves one request and returns the page; "" after a failure
// it reports.
func equivServe(t *testing.T, h http.Handler, op equivOp) string {
	req := httptest.NewRequest("POST", "http://localhost"+op.path, strings.NewReader(op.body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Errorf("%s %s: status %d", op.path, op.body, rec.Code)
		return ""
	}
	return rec.Body.String()
}

// equivReplay runs every connection's sequence on its own goroutine
// against a server built from cfg and returns the pages; a step of
// statements leaves what they answered.
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
			s := sqldb.NewSession(srv.DB)
			defer s.Close()
			for _, op := range ops {
				if op.sql == nil {
					pages[conn] = append(pages[conn], equivServe(t, h, op))
					continue
				}
				var out strings.Builder
				for _, q := range op.sql {
					res, err := s.Exec(q)
					if err != nil {
						t.Errorf("conn %d: %s: %v", conn, q, err)
						return
					}
					fmt.Fprintf(&out, "%s: %d\n", q, res.RowsAffected)
				}
				pages[conn] = append(pages[conn], out.String())
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
		if st.Hits == 0 || st.Invalidations == 0 {
			t.Errorf("-txn auto: %+v, want hits and invalidations", st)
		}
		// What the entries still live say is what the engine answers now:
		// each read of the run served from the cache, then executed.
		h := srv.Handler()
		for conn := range seqs {
			for _, op := range seqs[conn] {
				if op.sql != nil || strings.Contains(op.body, "ship") {
					continue
				}
				cached := equivServe(t, h, op)
				srv.QCache.Flush()
				if direct := equivServe(t, h, op); cached != direct {
					t.Fatalf("-txn auto, after the run: %s: the cached page differs from the engine's\ncached:\n%s\nexecuted:\n%s",
						op.body, cached, direct)
				}
			}
		}
		srv.Close()
	}
}

// TestOrdersMixHitsUnderShips replays a seeded orders_mixed mix — 60 %
// product searches over 200 customers and eight prefixes, 20 % spend
// reports, 20 % ships of one of 4 000 products with their read-back —
// through the server gatewayd builds by default and through the same
// server with -qcache-bytes 0, and requires every page byte for byte. A
// ship changes one product's quantity, so it drops only the cached reads
// that product's row satisfies: at least half of the product searches
// must be served from the cache (with whole-table invalidation every ship
// dropped every read of products, and admission refused the searches).
func TestOrdersMixHitsUnderShips(t *testing.T) {
	const requests = 16000
	rng := rand.New(rand.NewSource(46))
	prefixes := []string{"bik", "hel", "loc", "ten", "rop", "sto", "pac", "boo"}
	ops := make([]equivOp, requests)
	search := make([]bool, requests)
	for i := range ops {
		custid := fmt.Sprint(10000 + 100*rng.Intn(200))
		f := url.Values{}
		switch n := rng.Intn(10); {
		case n < 6:
			f.Add("sqlcmd", "products")
			f.Add("cust_inp", custid)
			f.Add("prod_inp", prefixes[rng.Intn(len(prefixes))])
			search[i] = true
		case n < 8:
			f.Add("sqlcmd", "spend")
			f.Add("cust_inp", custid)
		default:
			f.Add("sqlcmd", "ship")
			f.Add("prod_id", fmt.Sprint(1+rng.Intn(4000)))
		}
		ops[i] = equivOp{path: "/cgi-bin/db2www/orders.d2w/report", body: f.Encode()}
	}
	cfg := DefaultServerConfig()
	cfg.Macros = filepath.Join(repoRoot(t), "benchmark", "macros", "orders")
	cfg.Dataset = "orders:200:20:1"
	replay := func(cfg ServerConfig) (pages []string, searchHits int64) {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		for i, op := range ops {
			var before int64
			if srv.QCache != nil {
				before = srv.QCache.Stats().Hits
			}
			pages = append(pages, equivServe(t, h, op))
			if search[i] && srv.QCache != nil {
				searchHits += srv.QCache.Stats().Hits - before
			}
		}
		return pages, searchHits
	}
	plain := cfg
	plain.QCacheBytes = 0
	want, _ := replay(plain)
	got, hits := replay(cfg)
	for i := range ops {
		if got[i] != want[i] {
			t.Fatalf("request %d (%s): the cached server's page differs\ncached:\n%s\nuncached:\n%s",
				i, ops[i].body, got[i], want[i])
		}
	}
	searches := 0
	for _, s := range search {
		if s {
			searches++
		}
	}
	ratio := float64(hits) / float64(searches)
	t.Logf("%d of %d product searches served from the cache (%.2f)", hits, searches, ratio)
	if ratio < 0.5 {
		t.Errorf("product-search hit ratio %.2f, want at least 0.5", ratio)
	}
}

// txnMacros are two macros over urldb: count reads how many titles are
// DIRTY, and dirty opens a transaction with the SQL text BEGIN, writes
// every title DIRTY, reads the same count inside the transaction and
// rolls it back.
var txnMacros = map[string]string{
	"count.d2w": `%define{DATABASE = "CELDIAL"%}
%SQL(count){
SELECT COUNT(*) FROM urldb WHERE title = 'DIRTY'
%SQL_REPORT{%ROW{n=$(V1)
%}%}
%}
%HTML_REPORT{%EXEC_SQL(count)%}
`,
	"dirty.d2w": `%define{DATABASE = "CELDIAL"%}
%SQL(begin){
BEGIN
%}
%SQL(dirty){
UPDATE urldb SET title = 'DIRTY'
%}
%SQL(count){
SELECT COUNT(*) FROM urldb WHERE title = 'DIRTY'
%SQL_REPORT{%ROW{n=$(V1)
%}%}
%}
%SQL(rollback){
ROLLBACK
%}
%HTML_REPORT{%EXEC_SQL(begin)%EXEC_SQL(dirty)%EXEC_SQL(count)%EXEC_SQL(rollback)%}
`,
}

// TestTransactionOpenedBySQLTextBypassesTheCache: a transaction a macro
// opens with the SQL text BEGIN is the session's, and the cache asks the
// session. Inside it the macro's read sees its own write, not an entry
// another macro cached; its read is not stored, so after the rollback
// every read sees the rows as they were. Both orders — the read cached
// first, and the transaction first — print, page by page, what a server
// with -qcache-bytes 0 prints.
func TestTransactionOpenedBySQLTextBypassesTheCache(t *testing.T) {
	macros := t.TempDir()
	for name, text := range txnMacros {
		if err := os.WriteFile(filepath.Join(macros, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const count, dirty = "/cgi-bin/db2www/count.d2w/report", "/cgi-bin/db2www/dirty.d2w/report"
	for _, order := range [][]string{{count, dirty, count, dirty, count}, {dirty, count, dirty, count}} {
		pages := map[int64][]string{}
		for _, qcacheBytes := range []int64{0, 64 << 20} {
			cfg := DefaultServerConfig()
			cfg.Macros = macros
			cfg.Dataset = "urldb:500:1"
			cfg.QCacheBytes = qcacheBytes
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range order {
				pages[qcacheBytes] = append(pages[qcacheBytes], get(t, srv.Handler(), path))
			}
			srv.Close() // the next server registers the same database name
		}
		for i, path := range order {
			want := "n=0\n"
			if path == dirty {
				want = "n=500\n"
			}
			if !strings.Contains(pages[0][i], want) {
				t.Fatalf("order %v, request %d (%s): the uncached page lacks %q:\n%s", order, i+1, path, want, pages[0][i])
			}
			if got := pages[64<<20][i]; got != pages[0][i] {
				t.Errorf("order %v, request %d (%s): the cached server's page differs\ncached:\n%s\nuncached:\n%s",
					order, i+1, path, got, pages[0][i])
			}
		}
	}
}
