package qcache

import (
	"context"

	"db2www/internal/core"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
)

// Wrap layers the cache behind an existing core.DBProvider: the engine
// keeps talking to the same interface, and cached vs uncached execution
// are indistinguishable to report rendering (results are materialised
// either way, so ROW_NUM, RPT_STARTROW, and RPT_MAXROWS behave
// identically). A nil cache returns inner unchanged, so callers can wire
// unconditionally and gate on a flag.
func Wrap(inner core.DBProvider, c *Cache) core.DBProvider {
	if c == nil {
		return inner
	}
	return &provider{inner: inner, cache: c}
}

type provider struct {
	inner core.DBProvider
	cache *Cache
}

// Connect opens the underlying connection and wraps it in a caching
// connection over the engine database of that name: the registry lookup is
// the cache's version source (a table's version decides what is stale). A
// provider serving a name the registry does not know — another DBMS, with
// no versions to read — is served uncached rather than risk invisible
// writes.
func (p *provider) Connect(database, login, password string) (core.DBConn, error) {
	conn, err := p.inner.Connect(database, login, password)
	if err != nil {
		return nil, err
	}
	db, ok := sqldriver.Lookup(database)
	if !ok {
		return conn, nil
	}
	return &cachingConn{inner: conn, cache: p.cache, db: db}, nil
}

// cachingConn interposes on one core.DBConn. Like the connections it
// wraps, it is used by a single macro run at a time. The engine has no
// per-user row visibility (credentials pass through to the DBMS
// untouched), so an entry's key needs only the database and the statement
// text — which, in the macro model, already embeds every bound input after
// substitution.
type cachingConn struct {
	inner core.DBConn
	cache *Cache
	db    *sqldb.Database
	inTxn bool
}

func (c *cachingConn) Begin() error {
	err := c.inner.Begin()
	if err == nil {
		c.inTxn = true
	}
	return err
}

func (c *cachingConn) Commit() error {
	c.inTxn = false
	return c.inner.Commit()
}

func (c *cachingConn) Rollback() error {
	c.inTxn = false
	return c.inner.Rollback()
}

func (c *cachingConn) Close() error { return c.inner.Close() }

// Execute serves SELECTs through the cache. Everything else — and every
// statement inside an open transaction, whose reads may observe the
// transaction's own uncommitted writes — bypasses it entirely: writes
// must all reach the database (and must not be deduplicated), and results
// read under an uncommitted transaction must never be published.
func (c *cachingConn) Execute(sql string) (*core.SQLResult, error) {
	return c.ExecuteContext(context.Background(), sql)
}

// ExecuteContext is Execute carrying the request context. When the
// context holds the statement's obs.SQLExec entry (the engine opens one
// per %EXEC_SQL of a traced request), the cache reports on it how it
// handled the statement — bypass, hit, miss or refused.
func (c *cachingConn) ExecuteContext(ctx context.Context, sql string) (*core.SQLResult, error) {
	info := obs.SQLExecFrom(ctx)
	if c.inTxn {
		c.cache.NoteBypass()
		if info != nil {
			info.Cache = Bypass
		}
		return execute(ctx, c.inner, sql)
	}
	res, out, err := c.cache.Do(ctx, c.db, c.inner, sql)
	if out.How == Hit {
		// The engine never saw this execution; credit the statement shape
		// in the stats registry so per-digest cache-hit counts stay honest.
		c.db.NoteStatementCacheHit(out.Digest, out.Norm)
	}
	if info != nil {
		info.Cache, info.Dedup = out.How, out.Dedup
		if out.How == Hit {
			info.Digest = out.Digest
		}
	}
	return res, err
}
