package sqldb

// This file defines the abstract syntax tree produced by the parser.
// Statements and expressions are deliberately plain structs, and nothing
// writes to them after Parse: the planner reads the tree, compiles its
// expressions into closures (compile.go) and keeps what it resolved on the
// plan, so one parsed statement serves any number of executions at once.

// Stmt is any parsed SQL statement.
type Stmt interface{ stmt() }

// Expr is any parsed SQL expression.
type Expr interface{ expr() }

// --- Statements ---

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem // empty means bare `SELECT *`
	Star    bool         // true when the item list is exactly *
	From    []TableRef   // comma-joined table references
	Where   Expr         // nil when absent
	GroupBy []Expr
	OrderBy []OrderItem
}

// SelectItem is one projected expression with an optional alias, or a
// qualified star (alias.*).
type SelectItem struct {
	Expr      Expr
	Alias     string
	TableStar string // "t" for t.*; Expr is nil in that case
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinKind distinguishes the supported join types.
type JoinKind int

// Supported join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// TableRef is a base table with a chain of explicit joins hanging off it.
type TableRef struct {
	Table string
	Alias string
	Joins []JoinClause
	Off   int // byte offset of the table name in the source
}

// JoinClause is one explicit JOIN ... ON attached to a TableRef.
type JoinClause struct {
	Kind  JoinKind
	Table string
	Alias string
	On    Expr // nil for CROSS JOIN
	Off   int  // byte offset of the joined table name
}

// InsertStmt is an INSERT statement with one or more VALUES rows.
type InsertStmt struct {
	Table      string
	Columns    []string // empty means full column list in table order
	Rows       [][]Expr
	TableOff   int   // byte offset of the table name
	ColumnOffs []int // byte offsets of the explicit column names
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table    string
	Alias    string
	Set      []SetClause
	Where    Expr
	TableOff int // byte offset of the table name
}

// SetClause is one column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
	ColOff int // byte offset of the column name
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table    string
	Alias    string
	Where    Expr
	TableOff int // byte offset of the table name
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       Type
	NotNull    bool
	PrimaryKey bool
	Default    Expr // nil when absent
}

// DropTableStmt drops a table.
type DropTableStmt struct {
	Table    string
	IfExists bool
	TableOff int // byte offset of the table name
}

// CreateIndexStmt creates a secondary index on one column.
type CreateIndexStmt struct {
	Name      string
	Table     string
	Column    string
	Unique    bool
	NameOff   int // byte offset of the index name
	TableOff  int // byte offset of the table name
	ColumnOff int // byte offset of the indexed column name
}

// DropIndexStmt drops an index.
type DropIndexStmt struct {
	Name     string
	IfExists bool
	NameOff  int // byte offset of the index name
}

// ExplainStmt is EXPLAIN [ANALYZE] <statement>. Plain EXPLAIN renders the
// plan without executing; ANALYZE executes the target (including DML side
// effects, as in PostgreSQL) and annotates each operator with observed
// row counts and timings.
type ExplainStmt struct {
	Analyze bool
	Target  Stmt // SELECT, INSERT, UPDATE, or DELETE
}

// BeginStmt starts an explicit transaction.
type BeginStmt struct{}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt rolls back the current transaction.
type RollbackStmt struct{}

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*CreateIndexStmt) stmt() {}
func (*DropIndexStmt) stmt()   {}
func (*ExplainStmt) stmt()     {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// --- Expressions ---

// Literal is a constant value. Off is the byte offset of the literal's
// first token in the statement source (the opening quote for strings);
// static analysis maps findings back through it. Zero when synthesized.
type Literal struct {
	Val Value
	Off int
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
	Off    int // byte offset of the reference's first identifier
}

// Param is a positional ? parameter (1-based Index). Off is the byte
// offset of the ? in the statement source.
type Param struct {
	Index int
	Off   int
}

// Unary is a prefix operator: - (negate) or NOT.
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator: arithmetic, comparison, AND/OR.
type Binary struct {
	Op   string
	L, R Expr
}

// LikeExpr is [NOT] LIKE.
type LikeExpr struct {
	Not     bool
	X       Expr
	Pattern Expr
}

// InExpr is [NOT] IN (value list).
type InExpr struct {
	Not  bool
	X    Expr
	List []Expr
}

// IsNullExpr is IS [NOT] NULL.
type IsNullExpr struct {
	Not bool
	X   Expr
}

// FuncCall is a scalar or aggregate function call. Star is true for
// COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Star bool
	Args []Expr
	Off  int // byte offset of the function name
}

// CaseExpr is a searched or simple CASE expression.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // nil when absent
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*Literal) expr()    {}
func (*ColumnRef) expr()  {}
func (*Param) expr()      {}
func (*Unary) expr()      {}
func (*Binary) expr()     {}
func (*LikeExpr) expr()   {}
func (*InExpr) expr()     {}
func (*IsNullExpr) expr() {}
func (*FuncCall) expr()   {}
func (*CaseExpr) expr()   {}

// walkExpr visits e and every sub-expression depth-first. The visitor
// returns false to prune the subtree.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		walkExpr(x.X, fn)
	case *Binary:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *LikeExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Pattern, fn)
	case *InExpr:
		walkExpr(x.X, fn)
		for _, it := range x.List {
			walkExpr(it, fn)
		}
	case *IsNullExpr:
		walkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *CaseExpr:
		walkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			walkExpr(w.Cond, fn)
			walkExpr(w.Then, fn)
		}
		walkExpr(x.Else, fn)
	}
}
