package sqlsema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"db2www/internal/sqldb"
)

// Rule names. Each maps to one macrolint analyzer, so findings surface
// under the analyzer the user enabled or disabled.
const (
	RuleSchema = "schema"  // name resolution: unknown/ambiguous tables, columns, indexes
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
	ClassNumber                    // every statically reachable value parses as a number
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

// Analyze resolves and checks one parsed statement against a catalog
// snapshot and returns its findings in source order. A nil catalog yields
// nil: without metadata there is nothing to resolve against.
func Analyze(stmt sqldb.Stmt, schema Catalog, opts Options) []Finding {
	if schema == nil || stmt == nil {
		return nil
	}
	a := &analyzer{schema: schema, opts: opts}
	a.stmt(stmt)
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
	schema Catalog
	opts   Options
	finds  []Finding
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

// opaquePrefix reports whether the literal at off is partially dynamic,
// and its statically known prefix.
func (a *analyzer) opaquePrefix(off int) (string, bool) {
	p, ok := a.opts.OpaqueLits[off]
	return p, ok
}

func (a *analyzer) stmt(st sqldb.Stmt) {
	switch s := st.(type) {
	case *sqldb.SelectStmt:
		a.selectStmt(s, a.opts.Reported)
	case *sqldb.InsertStmt:
		a.insertStmt(s)
	case *sqldb.UpdateStmt:
		a.updateStmt(s)
	case *sqldb.DeleteStmt:
		a.deleteStmt(s)
	case *sqldb.CreateIndexStmt:
		t := a.schema.Table(s.Table)
		if t == nil {
			a.unknownTable(s.Table, s.TableOff)
			return
		}
		if t.Column(s.Column) == nil {
			a.unknownColumn(t, s.Column, s.ColumnOff)
		}
	case *sqldb.DropIndexStmt:
		if s.IfExists {
			return
		}
		for _, t := range a.schema {
			for i := range t.Indexes {
				if strings.EqualFold(t.Indexes[i].Name, s.Name) {
					return
				}
			}
		}
		a.add(RuleSchema, SevError, s.NameOff,
			fmt.Sprintf("index %q does not exist in the schema", s.Name), "")
	case *sqldb.AlterTableStmt:
		t := a.schema.Table(s.Table)
		if t == nil {
			a.unknownTable(s.Table, s.TableOff)
			return
		}
		if s.DropColumn != "" && t.Column(s.DropColumn) == nil {
			a.unknownColumn(t, s.DropColumn, s.TableOff)
		}
	case *sqldb.DropTableStmt:
		if !s.IfExists && a.schema.Table(s.Table) == nil {
			a.unknownTable(s.Table, s.TableOff)
		}
	case *sqldb.ExplainStmt:
		a.stmt(s.Target)
	}
	// CREATE TABLE and transaction control need no schema resolution:
	// macros legitimately create scratch tables the schema never saw.
}

func (a *analyzer) unknownTable(name string, off int) {
	a.add(RuleSchema, SevError, off,
		fmt.Sprintf("table %q does not exist in the schema", name), "")
}

func (a *analyzer) unknownColumn(t *sqldb.SchemaTable, name string, off int) {
	a.add(RuleSchema, SevError, off,
		fmt.Sprintf("column %q does not exist in table %q", name, t.Name), "")
}

// --- scope construction ---

// rel is one FROM-clause relation in scope: a base table, a derived
// table, or an opaque placeholder for something already reported as
// unknown (suppressing cascade errors).
type rel struct {
	qual   string             // lower-cased alias, or table name when unaliased
	tbl    *sqldb.SchemaTable // base table; nil for derived or unknown
	cols   []relCol           // derived-table outputs, when statically computable
	opaque bool               // column membership unknowable: suppress resolution errors
	off    int                // byte offset of the relation in the FROM clause
	cross  bool               // introduced by an explicit CROSS JOIN (intentional product)
}

// relCol is one output column of a derived table.
type relCol struct {
	name    string
	typ     sqldb.Type
	hasType bool
}

func (r *rel) estRows() int64 {
	if r.tbl != nil {
		return r.tbl.EstRows
	}
	return 0
}

type scope struct {
	rels []*rel
}

// addRel registers one table reference (base or derived) in the scope.
func (a *analyzer) addRel(sc *scope, table string, sub *sqldb.SelectStmt, alias string, off int, cross bool) {
	r := &rel{off: off, cross: cross}
	if sub != nil {
		r.qual = strings.ToLower(alias)
		inner := a.selectStmt(sub, false)
		if inner == nil {
			r.opaque = true
		} else {
			r.cols = inner
		}
	} else {
		r.qual = strings.ToLower(alias)
		if r.qual == "" {
			r.qual = strings.ToLower(table)
		}
		r.tbl = a.schema.Table(table)
		if r.tbl == nil {
			a.unknownTable(table, off)
			r.opaque = true
		}
	}
	sc.rels = append(sc.rels, r)
}

// colsOf lists a relation's columns for * expansion and unqualified
// matching. ok is false for opaque relations.
func (r *rel) colsOf() ([]relCol, bool) {
	if r.opaque {
		return nil, false
	}
	if r.tbl != nil {
		out := make([]relCol, 0, len(r.tbl.Columns))
		for _, c := range r.tbl.Columns {
			out = append(out, relCol{name: strings.ToLower(c.Name), typ: c.Type, hasType: true})
		}
		return out, true
	}
	return r.cols, true
}

// findCol looks a column up in one relation. The second result is false
// when the relation is opaque (membership unknowable).
func (r *rel) findCol(name string) (relCol, bool, bool) {
	cols, ok := r.colsOf()
	if !ok {
		return relCol{}, false, false
	}
	name = strings.ToLower(name)
	for _, c := range cols {
		if c.name == name {
			return c, true, true
		}
	}
	return relCol{}, false, true
}

// resolved is the outcome of binding one ColumnRef.
type resolved struct {
	rel     *rel
	col     *sqldb.Column // non-nil only for base-table columns
	typ     sqldb.Type
	hasType bool
	ok      bool // false: unknown binding (error already reported or suppressed)
}

// resolve binds c against the scope, mirroring the executor's
// resolveColumn: qualified references must match a relation's qualifier
// exactly; unqualified references matching more than one relation are
// ambiguous. Errors are reported once per reference.
func (a *analyzer) resolve(sc *scope, c *sqldb.ColumnRef) resolved {
	if c.Table != "" {
		qual := strings.ToLower(c.Table)
		var target *rel
		for _, r := range sc.rels {
			if r.qual == qual {
				target = r
				break
			}
		}
		if target == nil {
			a.add(RuleSchema, SevError, c.Off,
				fmt.Sprintf("unknown table or alias %q in reference %q", c.Table, c.Table+"."+c.Column), "")
			return resolved{}
		}
		rc, found, known := target.findCol(c.Column)
		if !known {
			return resolved{rel: target}
		}
		if !found {
			name := target.qual
			if target.tbl != nil {
				name = target.tbl.Name
			}
			a.add(RuleSchema, SevError, c.Off,
				fmt.Sprintf("column %q does not exist in table %q", c.Column, name), "")
			return resolved{rel: target}
		}
		res := resolved{rel: target, typ: rc.typ, hasType: rc.hasType, ok: true}
		if target.tbl != nil {
			res.col = target.tbl.Column(c.Column)
		}
		return res
	}

	var matches []*rel
	var match relCol
	anyOpaque := false
	for _, r := range sc.rels {
		rc, found, known := r.findCol(c.Column)
		if !known {
			anyOpaque = true
			continue
		}
		if found {
			matches = append(matches, r)
			match = rc
		}
	}
	switch {
	case len(matches) > 1:
		quals := make([]string, len(matches))
		for i, r := range matches {
			quals[i] = r.qual
		}
		a.add(RuleSchema, SevError, c.Off,
			fmt.Sprintf("column reference %q is ambiguous (matches %s)", c.Column, strings.Join(quals, ", ")),
			fmt.Sprintf("qualify it, e.g. %s.%s", quals[0], c.Column))
		return resolved{}
	case len(matches) == 1:
		res := resolved{rel: matches[0], typ: match.typ, hasType: match.hasType, ok: true}
		if matches[0].tbl != nil {
			res.col = matches[0].tbl.Column(c.Column)
		}
		return res
	case anyOpaque:
		return resolved{}
	default:
		a.add(RuleSchema, SevError, c.Off,
			fmt.Sprintf("column %q does not exist in any table of the FROM clause", c.Column), "")
		return resolved{}
	}
}

// --- SELECT ---

// selectStmt analyzes one SELECT (and its UNION arms) and returns its
// output column list when statically computable, nil otherwise. reported
// is true only for the top-level statement of a report-feeding section.
func (a *analyzer) selectStmt(sel *sqldb.SelectStmt, reported bool) []relCol {
	sc := &scope{}
	for i := range sel.From {
		tr := &sel.From[i]
		a.addRel(sc, tr.Table, tr.Sub, tr.Alias, tr.Off, false)
		for j := range tr.Joins {
			jc := &tr.Joins[j]
			a.addRel(sc, jc.Table, jc.Sub, jc.Alias, jc.Off, jc.Kind == sqldb.JoinCross)
		}
	}

	for _, it := range sel.Items {
		if it.TableStar != "" {
			qual := strings.ToLower(it.TableStar)
			found := false
			for _, r := range sc.rels {
				if r.qual == qual {
					found = true
					break
				}
			}
			if !found {
				a.add(RuleSchema, SevError, -1,
					fmt.Sprintf("unknown table or alias %q in %s.*", it.TableStar, it.TableStar), "")
			}
			continue
		}
		a.checkExpr(sc, it.Expr)
	}
	a.checkExpr(sc, sel.Where)
	for i := range sel.From {
		for j := range sel.From[i].Joins {
			a.checkExpr(sc, sel.From[i].Joins[j].On)
		}
	}
	for _, g := range sel.GroupBy {
		a.checkExpr(sc, g)
	}
	a.checkExpr(sc, sel.Having)
	a.checkExpr(sc, sel.Limit)
	a.checkExpr(sc, sel.Offset)

	outs, outsOK := a.outputCols(sel, sc)

	// UNION arms: analyzed in their own scopes; arity must line up.
	for _, u := range sel.Unions {
		armOuts := a.selectStmt(u.Sel, false)
		if outsOK && armOuts != nil && len(armOuts) != len(outs) {
			off := -1
			if len(u.Sel.From) > 0 {
				off = u.Sel.From[0].Off
			}
			a.add(RuleSchema, SevError, off,
				fmt.Sprintf("UNION arms yield different column counts (%d vs %d)", len(outs), len(armOuts)), "")
		}
	}

	a.orderBy(sel, sc, outs, outsOK)
	a.perfSelect(sel, sc, reported)

	if !outsOK {
		return nil
	}
	return outs
}

// outputCols computes the statement's output column list when every
// projected item has a determinable name. Expressions without aliases
// make the list uncomputable (ok=false) — derived tables over them stay
// opaque rather than guessing engine-generated names.
func (a *analyzer) outputCols(sel *sqldb.SelectStmt, sc *scope) ([]relCol, bool) {
	if sel.Star || len(sel.Items) == 0 {
		var out []relCol
		for _, r := range sc.rels {
			cols, ok := r.colsOf()
			if !ok {
				return nil, false
			}
			out = append(out, cols...)
		}
		return out, true
	}
	var out []relCol
	for _, it := range sel.Items {
		switch {
		case it.TableStar != "":
			qual := strings.ToLower(it.TableStar)
			expanded := false
			for _, r := range sc.rels {
				if r.qual != qual {
					continue
				}
				cols, ok := r.colsOf()
				if !ok {
					return nil, false
				}
				out = append(out, cols...)
				expanded = true
				break
			}
			if !expanded {
				return nil, false
			}
		case it.Alias != "":
			rc := relCol{name: strings.ToLower(it.Alias)}
			if cr, ok := it.Expr.(*sqldb.ColumnRef); ok {
				if res := a.resolveQuiet(sc, cr); res.ok {
					rc.typ, rc.hasType = res.typ, res.hasType
				}
			}
			out = append(out, rc)
		default:
			cr, ok := it.Expr.(*sqldb.ColumnRef)
			if !ok {
				return nil, false
			}
			rc := relCol{name: strings.ToLower(cr.Column)}
			if res := a.resolveQuiet(sc, cr); res.ok {
				rc.typ, rc.hasType = res.typ, res.hasType
			}
			out = append(out, rc)
		}
	}
	return out, true
}

// resolveQuiet resolves without reporting: used where the same reference
// was already resolved (and any error reported) during item checking.
func (a *analyzer) resolveQuiet(sc *scope, c *sqldb.ColumnRef) resolved {
	saved := a.finds
	res := a.resolve(sc, c)
	a.finds = saved
	return res
}

// orderBy checks ORDER BY keys: ordinals against the output arity, names
// against the FROM scope plus output aliases. A UNION chain orders by
// output name or ordinal only, as the executor does.
func (a *analyzer) orderBy(sel *sqldb.SelectStmt, sc *scope, outs []relCol, outsOK bool) {
	union := len(sel.Unions) > 0
	for _, o := range sel.OrderBy {
		if lit, ok := o.Expr.(*sqldb.Literal); ok {
			v := lit.Val
			if v.T == sqldb.TInt && outsOK {
				if v.I < 1 || v.I > int64(len(outs)) {
					a.add(RuleSchema, SevError, lit.Off,
						fmt.Sprintf("ORDER BY position %d is out of range: the query yields %d column(s)", v.I, len(outs)), "")
				}
			}
			continue
		}
		cr, ok := o.Expr.(*sqldb.ColumnRef)
		if !ok {
			if !union {
				a.checkExpr(sc, o.Expr)
			}
			continue
		}
		if cr.Table == "" {
			inOuts := false
			for _, rc := range outs {
				if rc.name == strings.ToLower(cr.Column) {
					inOuts = true
					break
				}
			}
			if inOuts {
				continue
			}
			if union {
				if outsOK {
					a.add(RuleSchema, SevError, cr.Off,
						fmt.Sprintf("ORDER BY %q does not name an output column of the UNION", cr.Column), "")
				}
				continue
			}
		} else if union {
			a.add(RuleSchema, SevError, cr.Off,
				fmt.Sprintf("ORDER BY on a UNION orders by output column name; %q is qualified", cr.Table+"."+cr.Column), "")
			continue
		}
		a.resolve(sc, cr)
	}
}

// --- INSERT / UPDATE / DELETE ---

func (a *analyzer) insertStmt(s *sqldb.InsertStmt) {
	t := a.schema.Table(s.Table)
	if t == nil {
		a.unknownTable(s.Table, s.TableOff)
		for _, row := range s.Rows {
			for _, e := range row {
				a.checkExpr(&scope{}, e)
			}
		}
		return
	}
	targets := make([]*sqldb.Column, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			targets = append(targets, &t.Columns[i])
		}
	} else {
		seen := map[string]bool{}
		for i, name := range s.Columns {
			off := s.TableOff
			if i < len(s.ColumnOffs) {
				off = s.ColumnOffs[i]
			}
			c := t.Column(name)
			if c == nil {
				a.unknownColumn(t, name, off)
			}
			targets = append(targets, c) // nil holds the position
			seen[strings.ToLower(name)] = true
		}
		var missing []string
		for i := range t.Columns {
			c := &t.Columns[i]
			if c.NotNull && !c.HasDefault && !seen[strings.ToLower(c.Name)] {
				missing = append(missing, c.Name)
			}
		}
		if len(missing) > 0 {
			a.add(RuleType, SevError, s.TableOff,
				fmt.Sprintf("INSERT omits NOT NULL column(s) without defaults: %s", strings.Join(missing, ", ")), "")
		}
	}
	for _, row := range s.Rows {
		if len(row) != len(targets) {
			off := s.TableOff
			if len(row) > 0 {
				if o := exprOff(row[0]); o >= 0 {
					off = o
				}
			}
			a.add(RuleType, SevError, off,
				fmt.Sprintf("INSERT row has %d value(s) but %d column(s) are targeted", len(row), len(targets)), "")
			continue
		}
		for i, e := range row {
			a.checkExpr(&scope{}, e)
			if targets[i] != nil {
				a.checkAssign(targets[i], t, e)
			}
		}
	}
}

func (a *analyzer) updateStmt(s *sqldb.UpdateStmt) {
	t := a.schema.Table(s.Table)
	sc := &scope{}
	a.addRel(sc, s.Table, nil, s.Alias, s.TableOff, false)
	if t == nil {
		// addRel reported the unknown table; still walk expressions so
		// slot misuse inside them is not silently skipped.
		for i := range s.Set {
			a.checkExpr(sc, s.Set[i].Value)
		}
		a.checkExpr(sc, s.Where)
		return
	}
	for i := range s.Set {
		set := &s.Set[i]
		c := t.Column(set.Column)
		if c == nil {
			a.unknownColumn(t, set.Column, set.ColOff)
		}
		a.checkExpr(sc, set.Value)
		if c != nil {
			a.checkAssign(c, t, set.Value)
		}
	}
	a.checkExpr(sc, s.Where)
	a.perfConjuncts(sc, sqldb.Conjuncts(s.Where))
}

func (a *analyzer) deleteStmt(s *sqldb.DeleteStmt) {
	sc := &scope{}
	a.addRel(sc, s.Table, nil, s.Alias, s.TableOff, false)
	a.checkExpr(sc, s.Where)
	if !sc.rels[0].opaque {
		a.perfConjuncts(sc, sqldb.Conjuncts(s.Where))
	}
}

// exprOff finds the first positioned node in e, or -1.
func exprOff(e sqldb.Expr) int {
	off := -1
	sqldb.WalkExpr(e, func(x sqldb.Expr) bool {
		if off >= 0 {
			return false
		}
		switch n := x.(type) {
		case *sqldb.Literal:
			off = n.Off
		case *sqldb.ColumnRef:
			off = n.Off
		case *sqldb.Param:
			off = n.Off
		case *sqldb.FuncCall:
			off = n.Off
		}
		return off < 0
	})
	return off
}

// parseNumber mirrors the engine's string→number coercion: ParseInt in
// base 10, then ParseFloat, both after TrimSpace.
func parseNumber(s string) bool {
	s = strings.TrimSpace(s)
	if _, err := strconv.ParseInt(s, 10, 64); err == nil {
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

// boolWord mirrors the engine's string→boolean coercion table.
func boolWord(s string) bool {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "TRUE", "T", "1", "YES", "Y", "FALSE", "F", "0", "NO", "N", "":
		return true
	}
	return false
}
