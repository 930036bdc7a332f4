// Package gateway implements the server half of the reproduction: the
// DB2WWW CGI application (macro resolution + engine invocation, the boxes
// labelled "DB2WWW" in Figures 4–6) and an HTTP front end implementing
// the /cgi-bin/db2www/{macro}/{cmd} URL scheme of Section 4, with both an
// in-process fast path and a true fork/exec subprocess path.
package gateway

import (
	"context"
	"fmt"

	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/qcache"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// SQLProvider implements core.DBProvider over the embedded engine: a
// connection is one sqldb.Session. The macro's DATABASE variable selects a
// database registered with sqldriver.Register; LOGIN/PASSWORD are accepted
// and ignored (the engine has no user catalog, mirroring how DB2WWW
// deferred authentication to the DBMS and web server).
type SQLProvider struct {
	// Cache, when set, is the query-result cache every connection answers
	// its SELECTs from while its session has no transaction open;
	// NewServer sets it when -qcache-bytes is above 0. The engine has no
	// per-user row visibility (credentials pass through to the DBMS
	// untouched), so an entry's key needs only the database and the
	// statement text — which, in the macro model, already embeds every
	// bound input after substitution.
	Cache *qcache.Cache
}

// NewSQLProvider returns the provider without a query cache; databases
// are resolved through the sqldriver registry on every Connect.
func NewSQLProvider() *SQLProvider { return &SQLProvider{} }

// Connect opens a session on the named database.
func (p *SQLProvider) Connect(database, login, password string) (core.DBConn, error) {
	if database == "" {
		return nil, fmt.Errorf("gateway: macro does not define the DATABASE variable")
	}
	db, ok := sqldriver.Lookup(database)
	if !ok {
		return nil, fmt.Errorf("gateway: unknown database %q", database)
	}
	return &sqlConn{sess: sqldb.NewSession(db), db: db, cache: p.Cache}, nil
}

// sqlConn adapts one engine session to core.DBConn. Transaction state and
// its errors (SQLSTATE 25000) are the session's own; so is what the cache
// asks of it, whether a transaction is open.
type sqlConn struct {
	sess  *sqldb.Session
	db    *sqldb.Database // the session's: the cache's version source
	cache *qcache.Cache   // nil: no query cache
}

func (c *sqlConn) Begin() error    { return c.sess.BeginTxn() }
func (c *sqlConn) Commit() error   { return c.sess.Commit() }
func (c *sqlConn) Rollback() error { return c.sess.Rollback() }
func (c *sqlConn) Close() error    { return c.sess.Close() }

// Execute runs one dynamically assembled SQL statement and materialises
// the result in the engine's string-oriented shape.
func (c *sqlConn) Execute(sqlText string) (*core.SQLResult, error) {
	return c.ExecuteContext(context.Background(), sqlText)
}

// ExecuteContext is Execute carrying the request context, so statement
// execution rides the same trace/cancellation scope as the HTTP request
// that assembled it; a context already cancelled is refused at the door.
//
// With a cache, a statement on a session with a transaction open — opened
// by Begin or by the SQL text BEGIN — bypasses it: writes must all reach
// the database, and a read may see the transaction's own uncommitted
// writes, which must never be served from the cache nor published to it.
// Any other statement asks the cache, which resolves it once and hands
// that to the session on a miss. When the context holds the statement's
// obs.SQLExec entry, it says how the cache handled the statement.
func (c *sqlConn) ExecuteContext(ctx context.Context, sqlText string) (*core.SQLResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.cache == nil {
		return result(c.sess.ExecContext(ctx, sqlText))
	}
	info := obs.SQLExecFrom(ctx)
	if c.sess.InTxn() {
		c.cache.NoteBypass()
		if info != nil {
			info.Cache = qcache.Bypass
		}
		return result(c.sess.ExecContext(ctx, sqlText))
	}
	res, out, err := c.cache.Do(c.db, sqlText, func(f sqldb.Facts) (*core.SQLResult, error) {
		return result(c.sess.ExecResolved(ctx, sqlText, &f))
	})
	if out.How == qcache.Hit {
		// The engine never saw this execution; credit the statement shape
		// in the stats registry so per-digest cache-hit counts stay honest.
		c.db.NoteStatementCacheHit(out.Digest, out.Norm)
	}
	if info != nil {
		info.Cache, info.Dedup = out.How, out.Dedup
		if out.How == qcache.Hit {
			info.Digest = out.Digest
		}
	}
	return res, err
}

// result materialises an engine result in the string-oriented shape of
// core.SQLResult. The session hands over the engine's rows whole, and the
// fields are bound from them in one backing array. A statement is a query
// when its result has columns (SELECT, and EXPLAIN, whose plan is rows
// like any other).
func result(res *sqldb.Result, err error) (*core.SQLResult, error) {
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
