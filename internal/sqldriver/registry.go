// Package sqldriver is the registry of database names: a macro's DATABASE
// variable, a baseline's configured database and the benchmark's stack all
// name an in-memory sqldb.Database registered here.
//
// The paper's DB2 WWW Connection talks to "a wide variety of DBMS" through
// a narrow dynamic-SQL surface. Here that portability point is
// core.DBProvider: a foreign DBMS is another provider, and the gateway's
// own provider holds engine sessions directly. Every SQL client of the
// embedded engine takes the same one path — Lookup the name, run its
// statements on a sqldb.Session of the database:
//
//	sqldriver.Register("CELDIAL", sqldb.NewDatabase("CELDIAL"))
//	db, ok := sqldriver.Lookup("CELDIAL")
//	res, err := sqldb.NewSession(db).Exec("SELECT url FROM urldb")
package sqldriver

import (
	"strings"
	"sync"

	"db2www/internal/sqldb"
)

var (
	mu       sync.RWMutex
	registry = map[string]*sqldb.Database{}
)

// Register makes db reachable by name, case-insensitively, through Lookup.
// Registering a name twice replaces the earlier database.
func Register(name string, db *sqldb.Database) {
	mu.Lock()
	defer mu.Unlock()
	registry[strings.ToUpper(name)] = db
}

// Unregister removes a previously registered database.
func Unregister(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(registry, strings.ToUpper(name))
}

// Lookup returns the registered database for name.
func Lookup(name string) (*sqldb.Database, bool) {
	mu.RLock()
	defer mu.RUnlock()
	db, ok := registry[strings.ToUpper(name)]
	return db, ok
}
