// Package sqldriver exposes the embedded sqldb engine through Go's
// standard database/sql interface under the driver name "db2www".
//
// The paper's DB2 WWW Connection talks to "a wide variety of DBMS" through
// a narrow dynamic-SQL surface. Here that portability point is
// core.DBProvider: a foreign DBMS is another provider, and the gateway's
// own provider holds engine sessions directly. This package is a
// conforming database/sql driver over the embedded engine — what the
// related-work baselines, the Scan-loop oracle of the provider's tests and
// any *sql.DB caller use — plus the registry that names databases for
// both routes. Databases are in-memory and registered by name:
//
//	db := sqldb.NewDatabase("CELDIAL")
//	sqldriver.Register("CELDIAL", db)
//	conn, err := sql.Open("db2www", "CELDIAL")
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"db2www/internal/sqldb"
)

// DriverName is the name the engine registers under in database/sql.
const DriverName = "db2www"

var (
	mu       sync.RWMutex
	registry = map[string]*sqldb.Database{}
)

// Register makes db reachable by name: as the DSN of sql.Open(DriverName,
// name) and as a macro's DATABASE through Lookup.
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

// IsRetryable reports whether err is a serialization failure (SQLSTATE
// 40001): the statement or transaction lost a first-committer-wins race
// under snapshot isolation and will likely succeed if retried from the
// start on a fresh snapshot. Gateways should replay the transaction
// rather than surfacing the error to the browser. The check survives
// wrapping (errors.As) and the database/sql layer, which returns engine
// errors unmodified.
func IsRetryable(err error) bool {
	return sqldb.IsSerializationFailure(err)
}

// Open is a convenience wrapper around sql.Open that also verifies the
// database exists.
func Open(name string) (*sql.DB, error) {
	if _, ok := Lookup(name); !ok {
		return nil, fmt.Errorf("sqldriver: database %q is not registered", name)
	}
	return sql.Open(DriverName, name)
}

func init() {
	sql.Register(DriverName, &Driver{})
}

// Driver implements driver.Driver.
type Driver struct{}

// Open opens a connection to the registered database named by dsn.
// The DSN may carry a "name?user=...&password=..." suffix; credentials are
// accepted and ignored (the engine has no user catalog), mirroring how the
// paper's macros carry DATABASE/userid variables.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	name := dsn
	if i := strings.IndexByte(dsn, '?'); i >= 0 {
		name = dsn[:i]
	}
	db, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sqldriver: database %q is not registered", name)
	}
	return &conn{sess: sqldb.NewSession(db)}, nil
}

type conn struct {
	sess *sqldb.Session
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	st, n, err := sqldb.ParseParams(query)
	if err != nil {
		return nil, err
	}
	return &stmt{conn: c, parsed: st, numInput: n}, nil
}

func (c *conn) Close() error { return c.sess.Close() }

func (c *conn) Begin() (driver.Tx, error) {
	if err := c.sess.BeginTxn(); err != nil {
		return nil, err
	}
	return &tx{sess: c.sess}, nil
}

// exec is the one-shot path: a context already cancelled is refused at
// the door, the arguments become engine values, the session runs the text.
func (c *conn) exec(ctx context.Context, query string, args []driver.NamedValue) (*sqldb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	return c.sess.ExecContext(ctx, query, params...)
}

// ExecContext lets database/sql skip Prepare for one-shot statements.
func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	res, err := c.exec(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return result{res}, nil
}

// QueryContext lets database/sql skip Prepare for one-shot queries.
func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	res, err := c.exec(ctx, query, args)
	if err != nil {
		return nil, err
	}
	return &rows{res: res, pos: -1}, nil
}

type stmt struct {
	conn     *conn
	parsed   sqldb.Stmt
	numInput int
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return s.numInput }

// exec runs the prepared statement under ctx, like conn.exec: the trace
// and the obs.SQLExec entry a request put on ctx reach the engine through
// db.PrepareContext + stmt.QueryContext as they do through db.QueryContext.
func (s *stmt) exec(ctx context.Context, args []driver.NamedValue) (*sqldb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	return s.conn.sess.ExecStmtContext(ctx, s.parsed, params...)
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	res, err := s.exec(ctx, args)
	if err != nil {
		return nil, err
	}
	return result{res}, nil
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	res, err := s.exec(ctx, args)
	if err != nil {
		return nil, err
	}
	return &rows{res: res, pos: -1}, nil
}

// Exec and Query complete driver.Stmt; database/sql calls the context
// forms above.
func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.TODO(), positional(args))
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.TODO(), positional(args))
}

func positional(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

type tx struct {
	sess *sqldb.Session
}

func (t *tx) Commit() error   { return t.sess.Commit() }
func (t *tx) Rollback() error { return t.sess.Rollback() }

type result struct {
	res *sqldb.Result
}

func (r result) LastInsertId() (int64, error) { return r.res.LastInsertID, nil }
func (r result) RowsAffected() (int64, error) { return r.res.RowsAffected, nil }

type rows struct {
	res *sqldb.Result
	pos int
}

func (r *rows) Columns() []string { return r.res.Columns }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos+1 >= len(r.res.Rows) {
		return io.EOF
	}
	r.pos++
	for i, v := range r.res.Rows[r.pos] {
		switch v.T {
		case sqldb.TNull:
			dest[i] = nil
		case sqldb.TInt:
			dest[i] = v.I
		case sqldb.TFloat:
			dest[i] = v.F
		case sqldb.TString:
			dest[i] = v.S
		case sqldb.TBool:
			dest[i] = v.B
		}
	}
	return nil
}

// namedToValues converts database/sql's arguments into engine values.
func namedToValues(args []driver.NamedValue) ([]sqldb.Value, error) {
	out := make([]sqldb.Value, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("sqldriver: named parameters are not supported")
		}
		v, err := toValue(a.Value)
		if err != nil {
			return nil, err
		}
		out[a.Ordinal-1] = v
	}
	return out, nil
}

func toValue(a driver.Value) (sqldb.Value, error) {
	switch x := a.(type) {
	case nil:
		return sqldb.Null, nil
	case int64:
		return sqldb.NewInt(x), nil
	case float64:
		return sqldb.NewFloat(x), nil
	case bool:
		return sqldb.NewBool(x), nil
	case string:
		return sqldb.NewString(x), nil
	case []byte:
		return sqldb.NewString(string(x)), nil
	case time.Time:
		return sqldb.NewString(x.UTC().Format(time.RFC3339)), nil
	default:
		return sqldb.Null, fmt.Errorf("sqldriver: unsupported parameter type %T", a)
	}
}
