// Package workload builds the deterministic synthetic datasets and query
// mixes the experiments run against. The paper evaluated DB2 WWW
// Connection on internal IBM databases we cannot have; these generators
// produce schema-compatible stand-ins (the urldb table of Appendix A and
// the customers/products schema of Section 3.1.3) with seeded
// pseudo-random content, so every run of every experiment sees identical
// data.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"db2www/internal/sqldb"
)

// hostWords and pathWords seed the synthetic URL space.
var hostWords = []string{
	"ibm", "almaden", "watson", "ncsa", "uiuc", "eso", "cern", "acme",
	"globex", "initech", "stanford", "mit", "berkeley", "software",
	"research", "sigmod", "vldb", "gateway", "mosaic", "netscape",
}

var titleWords = []string{
	"Home", "Page", "Database", "Research", "Laboratory", "Product",
	"Family", "Support", "Download", "Index", "Server", "Gateway",
	"Connection", "Guide", "Reference", "Overview", "Tutorial", "News",
	"Archive", "Catalog",
}

var descWords = []string{
	"information", "about", "relational", "databases", "world", "wide",
	"web", "access", "query", "forms", "reports", "hypertext", "markup",
	"language", "common", "interface", "applications", "data", "systems",
	"internet",
}

// URLDB creates and populates the Appendix A urldb table with n rows in
// database db, plus the primary-key index on url. Content is
// deterministic in seed.
func URLDB(db *sqldb.Database, n int, seed int64) error {
	s := sqldb.NewSession(db)
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE urldb (
  url VARCHAR(255) NOT NULL PRIMARY KEY,
  title VARCHAR(255),
  description VARCHAR(1024))`); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		url := fmt.Sprintf("http://www.%s%d.%s.com/%s",
			pick(rng, hostWords), i, pick(rng, hostWords), pick(rng, descWords))
		title := sqldb.NewString(titlePhrase(rng))
		desc := sqldb.NewString(descPhrase(rng))
		// ~5% of rows have NULL titles or descriptions, exercising the
		// conditional-variable (D2/D3) machinery.
		if rng.Intn(20) == 0 {
			title = sqldb.Null
		}
		if rng.Intn(20) == 1 {
			desc = sqldb.Null
		}
		if _, err := s.Exec("INSERT INTO urldb VALUES (?, ?, ?)",
			sqldb.NewString(url), title, desc); err != nil {
			return err
		}
	}
	return nil
}

// URLDBHeap declares urldb_heap, urldb's rows in a table without its key:
// the same predicate on it is the full scan an index saves, measured
// through SQL alone (A5).
func URLDBHeap(db *sqldb.Database) error {
	s := sqldb.NewSession(db)
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE urldb_heap (
  url VARCHAR(255) NOT NULL,
  title VARCHAR(255),
  description VARCHAR(1024))`); err != nil {
		return err
	}
	all, err := s.Exec("SELECT url, title, description FROM urldb")
	if err != nil {
		return err
	}
	for _, row := range all.Rows {
		if _, err := s.Exec("INSERT INTO urldb_heap VALUES (?, ?, ?)", row...); err != nil {
			return err
		}
	}
	return nil
}

// Orders creates the Section 3.1.3 schema: customers and products with a
// secondary index on custid, populated deterministically.
func Orders(db *sqldb.Database, customers, productsPerCustomer int, seed int64) error {
	s := sqldb.NewSession(db)
	defer s.Close()
	script := `
CREATE TABLE customers (
  custid INTEGER NOT NULL PRIMARY KEY,
  name VARCHAR(64) NOT NULL,
  city VARCHAR(64));
CREATE TABLE products (
  prodid INTEGER NOT NULL PRIMARY KEY,
  custid INTEGER NOT NULL,
  product_name VARCHAR(64) NOT NULL,
  price DOUBLE NOT NULL,
  qty INTEGER NOT NULL);
CREATE INDEX products_custid ON products (custid);
CREATE INDEX products_name ON products (product_name);
`
	if _, err := s.ExecScript(script); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	kinds := []string{"bikes", "helmets", "locks", "tents", "ropes", "stoves", "packs", "boots"}
	styles := []string{"mountain", "road", "kids", "pro", "classic", "deluxe", "basic", "touring"}
	prodID := 0
	for c := 0; c < customers; c++ {
		custid := 10000 + c*100
		name := capitalize(pick(rng, hostWords)) + " " + pick(rng, []string{"Inc", "Corp", "Ltd", "LLC"})
		city := capitalize(pick(rng, descWords))
		if _, err := s.Exec("INSERT INTO customers VALUES (?, ?, ?)",
			sqldb.NewInt(int64(custid)), sqldb.NewString(name), sqldb.NewString(city)); err != nil {
			return err
		}
		for p := 0; p < productsPerCustomer; p++ {
			prodID++
			pname := pick(rng, kinds) + " " + pick(rng, styles)
			price := float64(rng.Intn(100000)) / 100
			qty := rng.Intn(50) + 1
			if _, err := s.Exec("INSERT INTO products VALUES (?, ?, ?, ?, ?)",
				sqldb.NewInt(int64(prodID)), sqldb.NewInt(int64(custid)),
				sqldb.NewString(pname), sqldb.NewFloat(price), sqldb.NewInt(int64(qty))); err != nil {
				return err
			}
		}
	}
	return nil
}

func pick(rng *rand.Rand, words []string) string {
	return words[rng.Intn(len(words))]
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func titlePhrase(rng *rand.Rand) string {
	n := 2 + rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = pick(rng, titleWords)
	}
	return strings.Join(parts, " ")
}

func descPhrase(rng *rand.Rand) string {
	n := 4 + rng.Intn(8)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = pick(rng, descWords)
	}
	return strings.Join(parts, " ")
}

// SearchTerms returns a deterministic slice of search strings with the
// skew a real query log shows: popular short fragments dominate.
func SearchTerms(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	base := []string{"ibm", "data", "web", "re", "in", "gate", "net", "soft", "a", "s"}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(base)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = base[zipf.Uint64()]
	}
	return out
}
