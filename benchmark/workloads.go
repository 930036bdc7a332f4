package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"db2www/internal/cgi"
	"db2www/internal/sqldb"
	datasets "db2www/internal/workload"
)

const cgiPrefix = "/cgi-bin/db2www/"

// request is one distinct read request of a workload. The oracle fills
// sum and rows from the page the in-process stack renders for it.
type request struct {
	method string
	path   string // with the query string, for a GET
	body   string // form-encoded, for a POST
	sum    [sha256.Size]byte
	rows   int
}

// op is one operation a simulated browser performs: a read request of
// the workload's space, or — ship > 0 — the shipping of one product.
type op struct {
	req  *request
	ship int
}

func (o op) request() request {
	if o.ship == 0 {
		return *o.req
	}
	f := cgi.NewForm()
	f.Add("sqlcmd", "ship")
	f.Add("prod_id", strconv.Itoa(o.ship))
	return request{method: "POST", path: cgiPrefix + "orders.d2w/report", body: f.Encode()}
}

// workload is one traffic mix. README.md says why each exists.
type workload struct {
	name    string
	dataset string // gatewayd -dataset
	macros  string // directory under benchmark/macros
	// exact says a page is a function of its request alone, so it must
	// equal the oracle's byte for byte. Where writes change the pages
	// (orders_mixed) the checks are the ones in check.
	exact bool
	// inprocPerSecond × --seconds is the number of requests of each
	// in-process pass of the traced run: a count, not a duration, so that
	// the per-request counts repeat exactly for a seed.
	inprocPerSecond int
	// space lists the distinct read requests, given the loaded dataset.
	space func(db *sqldb.Database) ([]request, error)
	// generator returns the operation sequence of one connection: a pure
	// function of the seed and the connection's index.
	generator func(rng *rand.Rand, conn int, space []request) func() op
}

var workloads = []*workload{
	{
		name: "appendixa_search", dataset: "urldb:500:1", macros: "urldb", exact: true,
		inprocPerSecond: 100,
		space:           appendixASpace,
		generator:       appendixAGenerator,
	},
	{
		name: "big_report", dataset: "urldb:2000:1", macros: "urldb", exact: true,
		inprocPerSecond: 10,
		space: func(*sqldb.Database) ([]request, error) {
			return []request{urlqueryRequest("", nil, []string{"$(hidden_a)", "$(hidden_b)"})}, nil
		},
		generator: func(_ *rand.Rand, _ int, space []request) func() op {
			return func() op { return op{req: &space[0]} }
		},
	},
	{
		name: "point_lookup", dataset: "urldb:2000:1", macros: "urldb", exact: true,
		inprocPerSecond: 100,
		space:           pointLookupSpace,
		generator: func(rng *rand.Rand, _ int, space []request) func() op {
			return func() op { return op{req: &space[rng.Intn(len(space))]} }
		},
	},
	{
		name: "orders_mixed", dataset: "orders:200:20:1", macros: "orders",
		inprocPerSecond: 100,
		space:           ordersSpace,
		generator:       ordersGenerator,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// connRand seeds one connection's generator from the run's seed.
func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(conn)))
}

// urlqueryRequest is the Appendix A form as a browser submits it: the
// DBFIELDS options carry $(hidden_a)/$(hidden_b), the paper's
// information-hiding idiom, which the report request dereferences.
func urlqueryRequest(search string, checkboxes, fields []string) request {
	f := cgi.NewForm()
	f.Add("SEARCH", search)
	for _, c := range checkboxes {
		f.Add(c, "yes")
	}
	for _, d := range fields {
		f.Add("DBFIELDS", d)
	}
	return request{method: "POST", path: cgiPrefix + "urlquery.d2w/report", body: f.Encode()}
}

// appendixAForms are the ways the checkboxes and the field list of the
// Appendix A form are filled in; the first is the form's default.
var appendixAForms = []struct{ checkboxes, fields []string }{
	{[]string{"USE_URL", "USE_TITLE"}, []string{"$(hidden_a)"}},
	{[]string{"USE_TITLE", "USE_DESC"}, []string{"$(hidden_a)", "$(hidden_b)"}},
	{[]string{"USE_URL"}, nil},
	{[]string{"USE_URL", "USE_TITLE", "USE_DESC"}, []string{"$(hidden_b)"}},
}

// searchFragments are the distinct terms workload.SearchTerms draws from.
func searchFragments() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range datasets.SearchTerms(4096, 1) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// appendixASpace is every fragment under every form: 40 SQL texts, which
// fit the plan cache's exact-text map.
func appendixASpace(*sqldb.Database) ([]request, error) {
	var space []request
	for _, term := range searchFragments() {
		for _, f := range appendixAForms {
			space = append(space, urlqueryRequest(term, f.checkboxes, f.fields))
		}
	}
	return space, nil
}

// appendixAGenerator draws the search term with the skew of
// workload.SearchTerms and the default form half of the time.
func appendixAGenerator(rng *rand.Rand, _ int, space []request) func() op {
	index := map[string]int{}
	for i, term := range searchFragments() {
		index[term] = i * len(appendixAForms)
	}
	terms := datasets.SearchTerms(8192, rng.Int63())
	i := 0
	return func() op {
		term := terms[i%len(terms)]
		i++
		form := 0
		if rng.Intn(2) == 1 {
			form = 1 + rng.Intn(len(appendixAForms)-1)
		}
		return op{req: &space[index[term]+form]}
	}
}

// pointLookupSpace is one detail request per urldb row.
func pointLookupSpace(db *sqldb.Database) ([]request, error) {
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT url FROM urldb ORDER BY url")
	if err != nil {
		return nil, err
	}
	space := make([]request, len(res.Rows))
	for i, row := range res.Rows {
		f := cgi.NewForm()
		f.Add("U", row[0].String())
		space[i] = request{method: "GET", path: cgiPrefix + "detail.d2w/report?" + f.Encode()}
	}
	return space, nil
}

// productPrefixes begin the product names workload.Orders generates.
var productPrefixes = []string{"bik", "hel", "loc", "ten", "rop", "sto", "pac", "boo"}

func ordersRequest(sqlcmd, custid, prefix string) request {
	f := cgi.NewForm()
	f.Add("sqlcmd", sqlcmd)
	f.Add("cust_inp", custid)
	if prefix != "" {
		f.Add("prod_inp", prefix)
	}
	return request{method: "POST", path: cgiPrefix + "orders.d2w/report", body: f.Encode()}
}

// ordersSpace is a product search per customer and prefix, followed by
// one spend report per customer (ordersGenerator relies on the order).
func ordersSpace(db *sqldb.Database) ([]request, error) {
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT custid FROM customers ORDER BY custid")
	if err != nil {
		return nil, err
	}
	var space []request
	for _, row := range res.Rows {
		for _, p := range productPrefixes {
			space = append(space, ordersRequest("products", row[0].String(), p))
		}
	}
	for _, row := range res.Rows {
		space = append(space, ordersRequest("spend", row[0].String(), ""))
	}
	return space, nil
}

// ordersGenerator mixes 60 % product searches, 20 % spend reports and
// 20 % ships. Connection c ships only products with prodid ≡ c (mod 2),
// so each connection knows the quantity its next ship must report.
func ordersGenerator(rng *rand.Rand, conn int, space []request) func() op {
	customers := len(space) / (len(productPrefixes) + 1)
	searches := customers * len(productPrefixes)
	products := customers * 20 // orders:200:20:1
	return func() op {
		switch n := rng.Intn(10); {
		case n < 6:
			return op{req: &space[rng.Intn(searches)]}
		case n < 8:
			return op{req: &space[searches+rng.Intn(customers)]}
		default:
			// prodids run from 1 to products; 2..products-1 holds as many
			// of either parity.
			return op{ship: 2 + conn%2 + 2*rng.Intn(products/2-1)}
		}
	}
}

// initialQuantities reads every product's quantity from a freshly
// loaded orders dataset.
func initialQuantities(db *sqldb.Database) (map[int]int, error) {
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT prodid, qty FROM products")
	if err != nil {
		return nil, err
	}
	qty := make(map[int]int, len(res.Rows))
	for _, row := range res.Rows {
		id, _ := row[0].AsInt()
		q, _ := row[1].AsInt()
		qty[int(id)] = int(q)
	}
	return qty, nil
}

// checker decides whether a page is the right answer to an operation.
// One checker serves one connection: it counts the ships the connection
// has made, which no other connection makes.
type checker struct {
	w       *workload
	initial map[int]int // prodid → quantity in the loaded dataset
	shipped map[int]int // prodid → ships by this connection
}

func newChecker(w *workload, initial map[int]int) *checker {
	return &checker{w: w, initial: initial, shipped: map[int]int{}}
}

var (
	ordersTitle    = []byte("<TITLE>Order Search Result</TITLE>")
	oneRowAffected = []byte("<P>1 row(s) affected.</P>")
	productRow     = []byte("<TR><TD>")
	spendRow       = []byte("<LI>")
)

// markerRows counts the rows of an orders report.
func markerRows(body []byte) int {
	return bytes.Count(body, productRow) + bytes.Count(body, spendRow)
}

// check returns nil when status and body answer o correctly. A ship
// counts as made whatever the answer, since the server may have applied it.
func (c *checker) check(o op, status int, body []byte) error {
	if o.ship > 0 {
		c.shipped[o.ship]++
	}
	if status != 200 {
		return fmt.Errorf("status %d", status)
	}
	switch {
	case o.ship > 0:
		now := fmt.Sprintf("<P>Product %d now has qty %d.</P>", o.ship, c.initial[o.ship]+c.shipped[o.ship])
		if !bytes.Contains(body, oneRowAffected) || !bytes.Contains(body, []byte(now)) {
			return fmt.Errorf("ship %d: page lacks %q — a lost or doubled update", o.ship, now)
		}
	case c.w.exact:
		if sha256.Sum256(body) != o.req.sum {
			return fmt.Errorf("%s %s %s: page differs from the oracle's", o.req.method, o.req.path, o.req.body)
		}
	default:
		// Quantities on the page move with the ships; title and row count do not.
		if !bytes.Contains(body, ordersTitle) {
			return fmt.Errorf("%s: page lacks its title", o.req.body)
		}
		if got := markerRows(body); got != o.req.rows {
			return fmt.Errorf("%s: %d rows, the oracle has %d", o.req.body, got, o.req.rows)
		}
		if n := bytes.Count(body, productRow); n > 0 && !bytes.Contains(body, []byte(fmt.Sprintf("<P>%d product(s).</P>", n))) {
			return fmt.Errorf("%s: row count line disagrees with %d rendered rows", o.req.body, n)
		}
	}
	return nil
}
