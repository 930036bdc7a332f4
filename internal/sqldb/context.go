package sqldb

import (
	"context"
	"time"

	"db2www/internal/obs"
)

// statementKind classifies a parsed statement the way the execution
// dispatch does: "select", "write" (data-changing, version-bumping),
// "ddl" (index DDL), or "txn" (transaction control).
func statementKind(st Stmt) string {
	switch st.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt, *UpdateStmt, *DeleteStmt,
		*CreateTableStmt, *DropTableStmt:
		return "write"
	case *CreateIndexStmt, *DropIndexStmt:
		return "ddl"
	case *ExplainStmt:
		return "explain"
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return "txn"
	default:
		return ""
	}
}

// ExecContext is Exec carrying the request context: when the context
// holds the statement's obs.SQLExec entry, the engine reports on it the
// statement's classification and the time spent inside the embedded
// engine, so a request's record can separate database time from cache
// and driver overhead above it.
func (s *Session) ExecContext(ctx context.Context, sql string, params ...Value) (*Result, error) {
	f := s.db.plans.resolve(sql, params)
	return s.ExecResolved(ctx, sql, &f)
}

// ExecResolved is ExecContext for a statement already resolved: f is what
// the session's database answered for sql from StatementFacts, which a
// query cache asks before it executes. The statement runs as f carries
// it, without a second pass over the text.
func (s *Session) ExecResolved(ctx context.Context, sql string, f *Facts) (*Result, error) {
	info := obs.SQLExecFrom(ctx)
	if info == nil || f.err != nil || s.closed {
		return s.execResolved(sql, f)
	}
	info.Kind = statementKind(f.stmt)
	start := time.Now()
	res, err := s.execResolved(sql, f)
	info.DBMicros = time.Since(start).Microseconds()
	info.Digest = s.lastDigest
	return res, err
}
