package qcache

import (
	"context"
	"strings"

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

// Connect opens the underlying connection and, when the database is one
// of the embedded engine's (found in the sqldriver registry, which is how
// the cache obtains its table versions), wraps it in a caching
// connection. Databases the registry does not know — a hypothetical
// external DBMS — are served uncached rather than risk invisible writes.
func (p *provider) Connect(database, login, password string) (core.DBConn, error) {
	conn, err := p.inner.Connect(database, login, password)
	if err != nil {
		return nil, err
	}
	db, ok := sqldriver.Lookup(database)
	if !ok {
		return conn, nil
	}
	return &cachingConn{
		inner: conn,
		cache: p.cache,
		db:    db,
		// The engine has no per-user row visibility (credentials pass
		// through to the DBMS untouched), so the key needs only the
		// database name and the statement text — which, in the macro
		// model, already embeds every bound input after substitution.
		keyPrefix: strings.ToUpper(database) + "\x00",
	}, nil
}

// cachingConn interposes on one core.DBConn. Like the connections it
// wraps, it is used by a single macro run at a time.
type cachingConn struct {
	inner     core.DBConn
	cache     *Cache
	db        *sqldb.Database
	keyPrefix string
	inTxn     bool
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
// handled the statement — bypass, hit, or miss.
func (c *cachingConn) ExecuteContext(ctx context.Context, sql string) (*core.SQLResult, error) {
	info := obs.SQLExecFrom(ctx)
	if c.inTxn || !isSelect(sql) {
		c.cache.NoteBypass()
		if info != nil {
			info.Cache = "bypass"
		}
		return c.execInner(ctx, sql)
	}
	computed := false
	res, waited, err := c.cache.DoTracked(c.keyPrefix+sql, c.db,
		func() ([]string, bool) { return sqldb.AnalyzeQuery(sql) },
		func() (*core.SQLResult, error) {
			computed = true
			return c.execInner(ctx, sql)
		})
	hit := err == nil && !computed
	if hit {
		// The engine never saw this execution; credit the statement shape
		// in the stats registry so per-digest cache-hit counts stay honest.
		c.db.NoteStatementCacheHit(sql)
	}
	if info != nil {
		if hit {
			info.Cache = "hit"
			if digest, _ := sqldb.DigestSQL(sql); digest != "" {
				info.Digest = digest
			}
		} else {
			info.Cache = "miss"
		}
		info.Dedup = waited
	}
	return res, err
}

// execInner forwards to the wrapped connection, preserving the context
// when it is context-aware.
func (c *cachingConn) execInner(ctx context.Context, sql string) (*core.SQLResult, error) {
	if cc, ok := c.inner.(core.ContextDBConn); ok {
		return cc.ExecuteContext(ctx, sql)
	}
	return c.inner.Execute(sql)
}

// isSelect reports whether the statement is a SELECT, after the comments
// the engine's lexer skips — the only statement family the cache may
// intercept.
func isSelect(sqlText string) bool { return sqldb.HeadKeyword(sqlText) == "SELECT" }
