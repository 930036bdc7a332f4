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
		*CreateTableStmt, *AlterTableStmt, *DropTableStmt:
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
	p, err := s.prepare(sql, params)
	if err != nil {
		return nil, err
	}
	info := obs.SQLExecFrom(ctx)
	if info == nil {
		return s.execPrepared(sql, p)
	}
	info.Kind = statementKind(p.st)
	start := time.Now()
	res, err := s.execPrepared(sql, p)
	info.DBMicros = time.Since(start).Microseconds()
	info.Digest = s.lastDigest
	return res, err
}

// ExecStmtContext is ExecStmt with the context's obs.SQLExec entry
// filled. The timing is taken only when an entry is present — the
// plain path stays clock-free. Without the SQL text there is no digest
// to record; statement stats accrue only on the text-bearing paths.
func (s *Session) ExecStmtContext(ctx context.Context, st Stmt, params ...Value) (*Result, error) {
	info := obs.SQLExecFrom(ctx)
	if info == nil {
		return s.ExecStmt(st, params...)
	}
	info.Kind = statementKind(st)
	start := time.Now()
	res, err := s.ExecStmt(st, params...)
	info.DBMicros = time.Since(start).Microseconds()
	return res, err
}
