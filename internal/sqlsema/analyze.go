package sqlsema

import (
	"errors"
	"sort"
	"strings"

	"db2www/internal/sqldb"
)

// Rule names. Each maps to one macrolint analyzer, so findings surface
// under the analyzer the user enabled or disabled.
const (
	RuleSchema = "schema"  // the engine's name resolution: unknown/ambiguous tables, columns, indexes
	RuleType   = "sqltype" // expression type checking against declared column types
	RulePerf   = "sqlperf" // planner-driven performance predictions
)

// Severity of a finding.
type Severity int

// Severity levels, least severe first.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// Finding is one semantic diagnosis of an analyzed statement.
type Finding struct {
	Rule string
	Sev  Severity
	Off  int // byte offset into the analyzed SQL text; -1 when unknown
	Msg  string
	Fix  string // optional remediation hint
}

// VarClass is the inferred value class of a macro-variable substitution
// slot, computed by dataflow over %DEFINE chains and form inputs.
type VarClass int

// Value classes for substitution slots.
const (
	ClassUnknown   VarClass = iota // no static knowledge (system vars, %EXEC results, ...)
	ClassInput                     // request-controlled: any text can arrive
	ClassNumber                    // every statically reachable value is numeric text
	ClassText                      // every statically reachable value is non-numeric text
	ClassMaybeText                 // mixed: at least one reachable value is non-numeric text
)

// Slot describes one `$(VAR)` substitution site that became a `?`
// parameter in the analyzed SQL, in textual order (slot i binds Param
// index i+1).
type Slot struct {
	Name   string   // macro variable name, for messages
	Class  VarClass // inferred value class
	Sample string   // a representative non-numeric value, for messages
	Chain  string   // human-readable derivation, e.g. `via %DEFINE ORDER="name"`
}

// Options carries per-statement context from the extraction layer.
type Options struct {
	// Slots maps Param indexes (1-based) back to the macro variables
	// that produced them.
	Slots []Slot
	// Reported is true when the statement's result set feeds a report
	// template (%SQL_REPORT), which makes SELECT * a maintainability
	// hazard: the template silently depends on column order.
	Reported bool
	// OpaqueLits marks string literals whose content is partially
	// dynamic (a variable was interpolated inside the quotes). Keyed by
	// the literal's byte offset; the value is the statically known
	// prefix. Value-dependent checks skip such literals, but prefix
	// facts (a LIKE pattern's leading wildcard) still apply.
	OpaqueLits map[int]string
}

// Numeric reports whether the engine reads s as a number where it meets
// one: the test behind ClassNumber.
func Numeric(s string) bool {
	_, err := sqldb.Compare(sqldb.NewString(s), sqldb.NewInt(0))
	return err == nil
}

// Analyze checks one parsed statement against a schema and returns its
// findings in source order. Names are the engine's: Check binds the
// statement the way its execution would, and the error it would fail with
// is the statement's one schema finding, in the engine's words (an arity
// error is a sqltype finding); the performance findings are read off the
// plan Check built. What only the linter knows — the value class of a
// substitution slot, a partly dynamic literal, the index a macro author
// could create — is checked over what Check bound and planned. A nil
// schema yields nil: without metadata there is nothing to resolve against.
func Analyze(stmt sqldb.Stmt, schema *Schema, opts Options) []Finding {
	if schema == nil || stmt == nil {
		return nil
	}
	bind, plan, err := schema.db.Check(stmt)
	a := &analyzer{catalog: schema.Snapshot(), bind: bind, opts: opts}
	var se *sqldb.Error
	if errors.As(err, &se) {
		rule, fix := RuleSchema, ""
		switch se.Code {
		case sqldb.CodeCardinality:
			rule = RuleType
		case sqldb.CodeAmbiguousColumn:
			fix = "qualify it with the table or alias it is read from"
		}
		a.add(rule, SevError, se.Off-1, se.Error(), fix)
	}
	a.stmt(stmt)
	a.perf(stmt, plan)
	sort.SliceStable(a.finds, func(i, j int) bool {
		oi, oj := a.finds[i].Off, a.finds[j].Off
		if oi < 0 {
			oi = 1 << 30
		}
		if oj < 0 {
			oj = 1 << 30
		}
		return oi < oj
	})
	return a.finds
}

type analyzer struct {
	catalog Catalog
	bind    sqldb.Binding
	opts    Options
	finds   []Finding
}

func (a *analyzer) add(rule string, sev Severity, off int, msg, fix string) {
	a.finds = append(a.finds, Finding{Rule: rule, Sev: sev, Off: off, Msg: msg, Fix: fix})
}

// slot returns the Slot bound to a 1-based Param index, or a zero Slot.
func (a *analyzer) slot(idx int) Slot {
	if idx >= 1 && idx <= len(a.opts.Slots) {
		return a.opts.Slots[idx-1]
	}
	return Slot{Class: ClassUnknown}
}

func (a *analyzer) stmt(st sqldb.Stmt) {
	switch s := st.(type) {
	case *sqldb.SelectStmt:
		a.selectStmt(s)
	case *sqldb.InsertStmt:
		a.insertStmt(s)
	case *sqldb.UpdateStmt:
		t := a.catalog.Table(s.Table)
		for _, set := range s.Set {
			v := a.checkExpr(set.Value)
			if t != nil && t.Column(set.Column) != nil {
				a.checkAssign(t.Column(set.Column), t.Name, v, set.Value)
			}
		}
		a.checkExpr(s.Where)
	case *sqldb.DeleteStmt:
		a.checkExpr(s.Where)
	case *sqldb.ExplainStmt:
		a.stmt(s.Target)
	}
}

// selectStmt checks one SELECT: its join conditions, list, WHERE,
// grouping and sort keys.
func (a *analyzer) selectStmt(sel *sqldb.SelectStmt) {
	for _, tr := range sel.From {
		for _, jc := range tr.Joins {
			a.checkExpr(jc.On)
		}
	}
	for _, it := range sel.Items {
		a.checkExpr(it.Expr)
	}
	for _, e := range append([]sqldb.Expr{sel.Where}, sel.GroupBy...) {
		a.checkExpr(e)
	}
	for _, o := range sel.OrderBy {
		a.checkExpr(o.Expr)
	}
}

// insertStmt checks the VALUES of an INSERT against the columns they are
// stored in, and the NOT NULL columns the column list leaves out.
func (a *analyzer) insertStmt(s *sqldb.InsertStmt) {
	t := a.catalog.Table(s.Table)
	var targets []*sqldb.Column
	if t != nil && len(s.Columns) == 0 {
		for i := range t.Columns {
			targets = append(targets, &t.Columns[i])
		}
	} else if t != nil {
		var missing []string
		for i := range t.Columns {
			c := &t.Columns[i]
			named := false
			for _, name := range s.Columns {
				named = named || strings.EqualFold(name, c.Name)
			}
			if c.NotNull && !c.HasDefault && !named {
				missing = append(missing, c.Name)
			}
		}
		if len(missing) > 0 {
			a.add(RuleType, SevError, s.TableOff,
				"INSERT omits NOT NULL column(s) without defaults: "+strings.Join(missing, ", "), "")
		}
		for _, name := range s.Columns {
			targets = append(targets, t.Column(name))
		}
	}
	for _, row := range s.Rows {
		for i, e := range row {
			v := a.checkExpr(e)
			if len(row) == len(targets) && targets[i] != nil {
				a.checkAssign(targets[i], t.Name, v, e)
			}
		}
	}
}
