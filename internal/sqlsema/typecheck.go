package sqlsema

import (
	"fmt"
	"strings"

	"db2www/internal/sqldb"
)

// Expression type checking. The checker computes a coarse value kind for
// every expression and flags combinations the engine would reject at
// runtime (SQLSTATE 42804/22P02) or silently evaluate to UNKNOWN
// (comparison with a NULL literal). The kind lattice mirrors the
// engine's Compare/coerceToColumn semantics exactly: numbers compare
// numerically, strings compare lexically, a string compared with a
// number is parsed as a number (so a non-numeric string literal against
// a numeric column is a guaranteed runtime error, while a string
// *column* against a number is data-dependent and not flagged), and
// booleans compare only with booleans.

type kind int

const (
	kUnknown kind = iota
	kNum
	kText
	kBool
	kNull
)

func (k kind) String() string {
	switch k {
	case kNum:
		return "numeric"
	case kText:
		return "text"
	case kBool:
		return "boolean"
	case kNull:
		return "NULL"
	}
	return "unknown"
}

// val is the checker's abstraction of an expression's value.
type val struct {
	kind   kind
	lit    *sqldb.Literal // set when the expression is a literal
	opaque bool           // literal with partially dynamic content
	slot   *Slot          // set when the expression is a substitution slot
	col    *sqldb.Column  // set when the expression is a base-table column
	colRel *rel           // the relation the column came from
	maybe  bool           // kText via ClassMaybeText (warn, not error)
}

func typeKind(t sqldb.Type) kind {
	switch t {
	case sqldb.TInt, sqldb.TFloat:
		return kNum
	case sqldb.TString:
		return kText
	case sqldb.TBool:
		return kBool
	}
	return kUnknown
}

// checkExpr resolves and type-checks e, returning its value
// abstraction. Every ColumnRef under e is bound against sc (reporting
// unknown/ambiguous names once), and every comparison is checked.
func (a *analyzer) checkExpr(sc *scope, e sqldb.Expr) val {
	switch x := e.(type) {
	case nil:
		return val{}
	case *sqldb.Literal:
		v := val{lit: x}
		if x.Val.IsNull() {
			v.kind = kNull
			return v
		}
		v.kind = typeKind(x.Val.T)
		if _, ok := a.opaquePrefix(x.Off); ok {
			v.opaque = true
		}
		return v
	case *sqldb.ColumnRef:
		res := a.resolve(sc, x)
		if !res.ok {
			return val{}
		}
		v := val{col: res.col, colRel: res.rel}
		if res.hasType {
			v.kind = typeKind(res.typ)
		}
		return v
	case *sqldb.Param:
		s := a.slot(x.Index)
		v := val{slot: &s}
		switch s.Class {
		case ClassNumber:
			v.kind = kNum
		case ClassText:
			v.kind = kText
		case ClassMaybeText:
			v.kind = kText
			v.maybe = true
		}
		return v
	case *sqldb.Unary:
		inner := a.checkExpr(sc, x.X)
		if x.Op == "NOT" {
			return val{kind: kBool}
		}
		// Arithmetic negation: a non-numeric operand fails at runtime.
		a.requireNumeric(inner, x.X, "operand of unary "+x.Op)
		return val{kind: kNum}
	case *sqldb.Binary:
		l := a.checkExpr(sc, x.L)
		r := a.checkExpr(sc, x.R)
		switch x.Op {
		case "AND", "OR":
			return val{kind: kBool}
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			a.checkComparison(x.Op, l, r, x.L, x.R)
			return val{kind: kBool}
		case "||":
			return val{kind: kText}
		default: // + - * / %
			a.requireNumeric(l, x.L, "operand of "+x.Op)
			a.requireNumeric(r, x.R, "operand of "+x.Op)
			return val{kind: kNum}
		}
	case *sqldb.LikeExpr:
		a.checkExpr(sc, x.X)
		p := a.checkExpr(sc, x.Pattern)
		a.checkExpr(sc, x.Escape)
		if p.kind == kNull {
			a.add(RuleType, SevWarn, litOff(p.lit),
				"LIKE with a NULL pattern never matches; the predicate is always unknown", "")
		}
		return val{kind: kBool}
	case *sqldb.BetweenExpr:
		v := a.checkExpr(sc, x.X)
		lo := a.checkExpr(sc, x.Lo)
		hi := a.checkExpr(sc, x.Hi)
		a.checkComparison(">=", v, lo, x.X, x.Lo)
		a.checkComparison("<=", v, hi, x.X, x.Hi)
		return val{kind: kBool}
	case *sqldb.InExpr:
		v := a.checkExpr(sc, x.X)
		for _, it := range x.List {
			iv := a.checkExpr(sc, it)
			a.checkComparison("=", v, iv, x.X, it)
		}
		if x.Sub != nil {
			a.checkExpr(sc, x.Sub)
		}
		return val{kind: kBool}
	case *sqldb.IsNullExpr:
		a.checkExpr(sc, x.X)
		return val{kind: kBool}
	case *sqldb.FuncCall:
		for _, arg := range x.Args {
			a.checkExpr(sc, arg)
		}
		switch x.Name {
		case "COUNT", "SUM", "AVG", "LENGTH", "ABS", "ROUND":
			return val{kind: kNum}
		case "UPPER", "LOWER", "TRIM", "SUBSTR", "SUBSTRING", "CONCAT":
			return val{kind: kText}
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return val{kind: a.kindOfQuiet(sc, x.Args[0])}
			}
		}
		return val{}
	case *sqldb.CaseExpr:
		a.checkExpr(sc, x.Operand)
		var out kind
		for _, w := range x.Whens {
			a.checkExpr(sc, w.Cond)
			tv := a.checkExpr(sc, w.Then)
			if out == kUnknown {
				out = tv.kind
			}
		}
		ev := a.checkExpr(sc, x.Else)
		if out == kUnknown {
			out = ev.kind
		}
		if out == kNull {
			out = kUnknown
		}
		return val{kind: out}
	case *sqldb.CastExpr:
		a.checkExpr(sc, x.X)
		return val{kind: typeKind(x.To)}
	case *sqldb.Subquery:
		if x.Sel != nil {
			outs := a.selectStmt(x.Sel, false)
			if len(outs) == 1 && outs[0].hasType {
				return val{kind: typeKind(outs[0].typ)}
			}
		}
		return val{}
	case *sqldb.ExistsExpr:
		if x.Sub != nil {
			a.checkExpr(sc, x.Sub)
		}
		return val{kind: kBool}
	}
	return val{}
}

// kindOfQuiet computes the kind of an already-checked expression without
// re-reporting findings (used by MIN/MAX passthrough).
func (a *analyzer) kindOfQuiet(sc *scope, e sqldb.Expr) kind {
	saved := a.finds
	v := a.checkExpr(sc, e)
	a.finds = saved
	return v.kind
}

// requireNumeric flags operands that can never coerce to a number: a
// non-numeric string literal, a boolean, or a text-classed slot.
func (a *analyzer) requireNumeric(v val, e sqldb.Expr, what string) {
	switch {
	case v.kind == kBool:
		a.add(RuleType, SevError, exprOff(e),
			fmt.Sprintf("boolean %s where a number is required", what), "")
	case v.lit != nil && v.kind == kText && !v.opaque && !parseNumber(v.lit.Val.S):
		a.add(RuleType, SevError, v.lit.Off,
			fmt.Sprintf("string %q as %s is not a number; the engine raises SQLSTATE 22P02 at runtime", v.lit.Val.S, what), "")
	case v.slot != nil && v.kind == kText && !v.maybe:
		a.add(RuleType, SevError, exprOff(e),
			fmt.Sprintf("macro variable %s%s always substitutes non-numeric text (e.g. %q) as %s",
				slotRef(v.slot), slotChain(v.slot), v.slot.Sample, what), "")
	}
}

// checkComparison applies the engine's Compare rules to one comparison
// and flags the combinations that are statically wrong.
func (a *analyzer) checkComparison(op string, l, r val, le, re sqldb.Expr) {
	// `x = NULL` (or any comparison against a NULL literal) is always
	// UNKNOWN: the predicate filters every row, which is never what the
	// macro author meant.
	for _, side := range [2]val{l, r} {
		if side.kind == kNull && side.lit != nil {
			fix := "use IS NULL"
			if op == "<>" || op == "!=" {
				fix = "use IS NOT NULL"
			}
			a.add(RuleType, SevError, side.lit.Off,
				fmt.Sprintf("comparison with NULL is always unknown; no row ever matches %q", op), fix)
			return
		}
	}
	a.checkSides(op, l, r, le, re)
	a.checkSides(op, r, l, re, le)
}

// checkSides checks the directed pair (a=one side, b=the other).
func (an *analyzer) checkSides(op string, a, b val, ae, be sqldb.Expr) {
	if a.kind == kUnknown || b.kind == kUnknown || a.kind == kNull || b.kind == kNull {
		return
	}
	// Booleans compare only with booleans (engine Compare errors with
	// 42804 otherwise); string literals in the engine's boolean word
	// list coerce cleanly when assigned but NOT when compared.
	if a.kind == kBool && b.kind != kBool {
		an.add(RuleType, SevError, cmpOff(ae, be),
			fmt.Sprintf("boolean compared with %s value; the engine raises SQLSTATE 42804 at runtime", b.kind), "")
		return
	}
	if a.kind != kNum || b.kind != kText {
		return
	}
	// numeric side vs text side: the engine parses the text as a
	// number. A string *column* may hold numeric text (data-dependent:
	// skip); a string literal or an inferred-text slot cannot.
	switch {
	case b.lit != nil && !b.opaque:
		if !parseNumber(b.lit.Val.S) {
			an.add(RuleType, SevError, b.lit.Off,
				fmt.Sprintf("numeric %s compared with non-numeric string %q; the engine raises SQLSTATE 22P02 at runtime",
					sideName(a), b.lit.Val.S), "")
		}
	case b.slot != nil:
		if b.maybe {
			an.add(RuleType, SevWarn, exprOff(be),
				fmt.Sprintf("numeric %s compared with macro variable %s%s, which can substitute non-numeric text (e.g. %q)",
					sideName(a), slotRef(b.slot), slotChain(b.slot), b.slot.Sample), "")
		} else {
			an.add(RuleType, SevError, exprOff(be),
				fmt.Sprintf("numeric %s compared with macro variable %s%s, which always substitutes non-numeric text (e.g. %q); the engine raises SQLSTATE 22P02 at runtime",
					sideName(a), slotRef(b.slot), slotChain(b.slot), b.slot.Sample), "")
		}
	}
}

// checkAssign checks one INSERT/UPDATE value against its target column,
// mirroring coerceToColumn.
func (a *analyzer) checkAssign(c *sqldb.Column, t *sqldb.SchemaTable, e sqldb.Expr) {
	v := a.kindValQuiet(e)
	if v.kind == kNull {
		if c.NotNull {
			a.add(RuleType, SevError, exprOff(e),
				fmt.Sprintf("NULL assigned to NOT NULL column %s.%s; the engine raises SQLSTATE 23502 at runtime", t.Name, c.Name), "")
		}
		return
	}
	ck := typeKind(c.Type)
	switch {
	case ck == kNum && v.kind == kText:
		if v.lit != nil && !v.opaque && !parseNumber(v.lit.Val.S) {
			a.add(RuleType, SevError, v.lit.Off,
				fmt.Sprintf("string %q cannot be stored in %s column %s.%s; the engine raises SQLSTATE 22P02 at runtime",
					v.lit.Val.S, strings.ToUpper(c.Type.String()), t.Name, c.Name), "")
		} else if v.slot != nil && !v.maybe {
			a.add(RuleType, SevError, exprOff(e),
				fmt.Sprintf("macro variable %s%s always substitutes non-numeric text (e.g. %q), which cannot be stored in %s column %s.%s",
					slotRef(v.slot), slotChain(v.slot), v.slot.Sample, strings.ToUpper(c.Type.String()), t.Name, c.Name), "")
		} else if v.slot != nil && v.maybe {
			a.add(RuleType, SevWarn, exprOff(e),
				fmt.Sprintf("macro variable %s%s can substitute non-numeric text (e.g. %q) into %s column %s.%s",
					slotRef(v.slot), slotChain(v.slot), v.slot.Sample, strings.ToUpper(c.Type.String()), t.Name, c.Name), "")
		}
	case ck == kBool && v.kind == kText:
		if v.lit != nil && !v.opaque && !boolWord(v.lit.Val.S) {
			a.add(RuleType, SevError, v.lit.Off,
				fmt.Sprintf("string %q is not a boolean word; it cannot be stored in BOOLEAN column %s.%s",
					v.lit.Val.S, t.Name, c.Name), "")
		}
	}
}

// kindValQuiet computes a value abstraction for an expression that was
// already checked in scope (assignment targets re-examine the value
// without duplicating resolution findings).
func (a *analyzer) kindValQuiet(e sqldb.Expr) val {
	saved := a.finds
	v := a.checkExpr(&scope{}, e)
	a.finds = saved
	return v
}

func litOff(l *sqldb.Literal) int {
	if l == nil {
		return -1
	}
	return l.Off
}

// cmpOff picks the best offset for a comparison finding: the flagged
// side when positioned, else the other side.
func cmpOff(ae, be sqldb.Expr) int {
	if o := exprOff(be); o >= 0 {
		return o
	}
	return exprOff(ae)
}

// sideName describes the numeric side of a mismatched comparison.
func sideName(v val) string {
	if v.col != nil && v.colRel != nil && v.colRel.tbl != nil {
		return fmt.Sprintf("column %s.%s (%s)", v.colRel.tbl.Name, v.col.Name, strings.ToUpper(v.col.Type.String()))
	}
	if v.col != nil {
		return "column " + v.col.Name
	}
	return "value"
}

func slotRef(s *Slot) string {
	if s.Name == "" {
		return "$(?)"
	}
	return "$(" + s.Name + ")"
}

func slotChain(s *Slot) string {
	if s.Chain == "" {
		return ""
	}
	return " (" + s.Chain + ")"
}
