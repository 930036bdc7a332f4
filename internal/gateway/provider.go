// Package gateway implements the server half of the reproduction: the
// DB2WWW CGI application (macro resolution + engine invocation, the boxes
// labelled "DB2WWW" in Figures 4–6) and an HTTP front end implementing
// the /cgi-bin/db2www/{macro}/{cmd} URL scheme of Section 4, with both an
// in-process fast path and a true fork/exec subprocess path.
package gateway

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"sync"

	"db2www/internal/core"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// SQLProvider implements core.DBProvider over database/sql. The macro's
// DATABASE variable selects a registered database; LOGIN/PASSWORD are
// accepted and passed through to the driver DSN (the embedded engine has
// no user catalog, mirroring how DB2WWW deferred authentication to the
// DBMS and web server).
type SQLProvider struct {
	mu   sync.Mutex
	pool map[string]*sql.DB
}

// NewSQLProvider returns an empty provider; databases are resolved
// through the sqldriver registry on first use.
func NewSQLProvider() *SQLProvider {
	return &SQLProvider{pool: map[string]*sql.DB{}}
}

// Connect opens a connection to the named database.
func (p *SQLProvider) Connect(database, login, password string) (core.DBConn, error) {
	if database == "" {
		return nil, fmt.Errorf("gateway: macro does not define the DATABASE variable")
	}
	p.mu.Lock()
	db, ok := p.pool[strings.ToUpper(database)]
	if !ok {
		if _, registered := sqldriver.Lookup(database); !registered {
			p.mu.Unlock()
			return nil, fmt.Errorf("gateway: unknown database %q", database)
		}
		dsn := database
		if login != "" {
			dsn += "?user=" + login + "&password=" + password
		}
		var err error
		db, err = sql.Open(sqldriver.DriverName, dsn)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.pool[strings.ToUpper(database)] = db
	}
	p.mu.Unlock()
	conn, err := db.Conn(context.Background())
	if err != nil {
		return nil, err
	}
	return &sqlConn{conn: conn}, nil
}

// Close releases all pooled databases.
func (p *SQLProvider) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for name, db := range p.pool {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
		delete(p.pool, name)
	}
	return first
}

// sqlConn adapts one *sql.Conn (plus an optional open transaction) to
// core.DBConn.
type sqlConn struct {
	conn *sql.Conn
	tx   *sql.Tx
}

func (c *sqlConn) Begin() error {
	if c.tx != nil {
		return errors.New("gateway: transaction already open")
	}
	tx, err := c.conn.BeginTx(context.Background(), nil)
	if err != nil {
		return err
	}
	c.tx = tx
	return nil
}

func (c *sqlConn) Commit() error {
	if c.tx == nil {
		return errors.New("gateway: no open transaction")
	}
	err := c.tx.Commit()
	c.tx = nil
	return err
}

func (c *sqlConn) Rollback() error {
	if c.tx == nil {
		return errors.New("gateway: no open transaction")
	}
	err := c.tx.Rollback()
	c.tx = nil
	return err
}

func (c *sqlConn) Close() error {
	if c.tx != nil {
		_ = c.tx.Rollback()
		c.tx = nil
	}
	return c.conn.Close()
}

// Execute runs one dynamically assembled SQL statement and materialises
// the result in the engine's string-oriented shape.
func (c *sqlConn) Execute(sqlText string) (*core.SQLResult, error) {
	return c.ExecuteContext(context.Background(), sqlText)
}

// ExecuteContext is Execute carrying the request context, so statement
// execution rides the same trace/cancellation scope as the HTTP request
// that assembled it. The result is fetched as one block: the driver
// connection under c.conn — the one an open c.tx runs on — hands over the
// engine's rows whole, and the fields are bound from them in one backing
// array. A statement is a query when its result has columns (SELECT, and
// EXPLAIN, whose plan is rows like any other).
func (c *sqlConn) ExecuteContext(ctx context.Context, sqlText string) (*core.SQLResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var res *sqldb.Result
	err := c.conn.Raw(func(driverConn any) (err error) {
		res, err = sqldriver.Execute(ctx, driverConn, sqlText)
		return err
	})
	if err != nil {
		return nil, err
	}
	n := len(res.Columns)
	if n == 0 {
		return &core.SQLResult{RowsAffected: res.RowsAffected}, nil
	}
	out := &core.SQLResult{Columns: res.Columns, RowsAffected: int64(len(res.Rows))}
	if len(res.Rows) == 0 {
		return out, nil
	}
	out.Rows = make([][]core.Field, len(res.Rows))
	fields := make([]core.Field, n*len(res.Rows))
	for i, vals := range res.Rows {
		row := fields[i*n : (i+1)*n : (i+1)*n]
		for j, v := range vals {
			switch v.T {
			case sqldb.TNull:
				row[j].Null = true
			case sqldb.TString: // nearly every cell: no call, the string shared
				row[j].S = v.S
			default:
				row[j].S = v.String()
			}
		}
		out.Rows[i] = row
	}
	return out, nil
}
