// Package sqlsema performs schema-aware static semantic analysis of SQL
// statements extracted from web macros. It resolves no names itself: the
// engine binds each statement (sqldb.Database.Check) and its error is the
// name finding. Over that binding it checks types with typed substitution
// slots, asking the engine to evaluate each operation on sample operands,
// and predicts sequential scans with the planner's own classifier of what
// an index can serve. It never executes a macro's statement.
//
// The schema is the catalog of an engine, in the engine's own model
// (sqldb.SchemaSnapshot), and there is one way to read it. What differs
// is where the engine comes from: the live database (FromDatabase:
// gatewayd's lint preflight and lint-on-load, sqlsh's \check), or a
// scratch database that executed a DDL file (FromDDL: `macrocheck
// -schema`). Offline and live findings agree because they are computed
// from the same thing.
package sqlsema

import (
	"fmt"
	"strings"

	"db2www/internal/sqldb"
)

// Schema is where a lint run reads table metadata: the catalog of one
// engine. It holds the database, not a copy of its schema, so every run
// sees the catalog as it is at that moment — after a run-time CREATE or
// DROP TABLE as much as at boot.
type Schema struct {
	db *sqldb.Database
}

// Catalog is the engine's catalog at one moment, in the engine's own model
// (sqldb.SchemaSnapshot): row estimates and index cardinalities are the
// numbers the cost-based planner was using then.
type Catalog []sqldb.SchemaTable

// Snapshot returns the catalog as it is now; Analyze takes one per
// statement.
func (s *Schema) Snapshot() Catalog {
	return s.db.SchemaSnapshot()
}

// Table returns the named table (any case), or nil.
func (c Catalog) Table(name string) *sqldb.SchemaTable {
	for i := range c {
		if strings.EqualFold(c[i].Name, name) {
			return &c[i]
		}
	}
	return nil
}

// FromDatabase reads the catalog of a live database.
func FromDatabase(db *sqldb.Database) *Schema {
	return &Schema{db: db}
}

// FromDDL executes a DDL script on a scratch engine and reads that
// engine's catalog, so `macrocheck -schema schema.sql` accepts exactly
// what the engine accepts and sees exactly the catalog a server that
// loaded the script would have: the primary-key indexes, the planner's
// row estimates for the seed INSERTs. Any statement that is neither DDL
// nor an INSERT is rejected — a schema file should not smuggle in
// queries — and an error of the engine comes back with its SQLSTATE.
func FromDDL(src string) (*Schema, error) {
	stmts, err := sqldb.ParseAll(src)
	if err != nil {
		return nil, err
	}
	db := sqldb.NewDatabase("SCHEMA")
	sess := sqldb.NewSession(db)
	defer sess.Close()
	for _, st := range stmts {
		switch st.(type) {
		case *sqldb.CreateTableStmt, *sqldb.CreateIndexStmt,
			*sqldb.DropTableStmt, *sqldb.DropIndexStmt, *sqldb.InsertStmt:
		default:
			return nil, fmt.Errorf("schema: statement %T not allowed in a schema file (DDL and seed INSERTs only)", st)
		}
		if _, err := sess.ExecStmt(st); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	return FromDatabase(db), nil
}
