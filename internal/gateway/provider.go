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
	"strconv"
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
// that assembled it.
func (c *sqlConn) ExecuteContext(ctx context.Context, sqlText string) (*core.SQLResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	query := func(q string) (*sql.Rows, error) {
		if c.tx != nil {
			return c.tx.QueryContext(ctx, q)
		}
		return c.conn.QueryContext(ctx, q)
	}
	exec := func(q string) (sql.Result, error) {
		if c.tx != nil {
			return c.tx.ExecContext(ctx, q)
		}
		return c.conn.ExecContext(ctx, q)
	}
	if isQueryStatement(sqlText) {
		rows, err := query(sqlText)
		if err != nil {
			return nil, err
		}
		defer rows.Close()
		cols, err := rows.Columns()
		if err != nil {
			return nil, err
		}
		res := &core.SQLResult{Columns: cols}
		// One scan buffer serves every row, and the rows are carved out
		// of shared chunks that start small (a point lookup allocates a
		// few fields) and double up to maxChunkRows.
		n := len(cols)
		raw := make([]any, n)
		ptrs := make([]any, n)
		for i := range raw {
			ptrs[i] = &raw[i]
		}
		var chunk []core.Field
		chunkRows := 4
		for rows.Next() {
			if err := rows.Scan(ptrs...); err != nil {
				return nil, err
			}
			if len(chunk) < n {
				chunk = make([]core.Field, n*chunkRows)
				chunkRows = min(2*chunkRows, maxChunkRows)
			}
			row := chunk[:n:n]
			chunk = chunk[n:]
			for i, v := range raw {
				row[i] = toField(v)
			}
			res.Rows = append(res.Rows, row)
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		res.RowsAffected = int64(len(res.Rows))
		return res, nil
	}
	r, err := exec(sqlText)
	if err != nil {
		return nil, err
	}
	n, _ := r.RowsAffected()
	return &core.SQLResult{RowsAffected: n}, nil
}

// maxChunkRows bounds how many result rows share one backing array.
const maxChunkRows = 256

// isQueryStatement reports whether the statement produces a result set:
// after the comments the engine's lexer skips, it begins with SELECT or
// with EXPLAIN, whose plan is rows like any other.
func isQueryStatement(sqlText string) bool {
	kw := sqldb.HeadKeyword(sqlText)
	return kw == "SELECT" || kw == "EXPLAIN"
}

// toField converts a database/sql scan value to the engine's Field.
func toField(v any) core.Field {
	switch x := v.(type) {
	case nil:
		return core.Field{Null: true}
	case []byte:
		return core.Field{S: string(x)}
	case string:
		return core.Field{S: x}
	case int64:
		return core.Field{S: strconv.FormatInt(x, 10)}
	case float64:
		return core.Field{S: sqldb.NewFloat(x).String()}
	case bool:
		if x {
			return core.Field{S: "TRUE"}
		}
		return core.Field{S: "FALSE"}
	default:
		return core.Field{S: fmt.Sprint(x)}
	}
}
