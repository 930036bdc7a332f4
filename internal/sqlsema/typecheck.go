package sqlsema

import (
	"errors"
	"fmt"
	"strings"

	"db2www/internal/sqldb"
)

// Expression type checking. The checker gives every expression of a
// statement Check bound a coarse kind — a column's declared type, a
// slot's value class, what an operator or function yields — and flags
// what the engine would reject at run time whatever the rows: it does not
// predict the engine's answer, it asks for it. Where a comparison, an
// arithmetic operator or a stored value meets an operand whose kind
// decides the outcome, the checker evaluates the operation with the
// engine (sqldb.EvalConst) on a sample of each operand — the literal
// itself, a text slot's sample, a value of the numeric or boolean type —
// and a type error it returns is the finding, in the engine's words. A
// VARCHAR column decides nothing: it may hold numeric text. Comparisons
// with a NULL literal are flagged too: they are always unknown.

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
	lit    *sqldb.Literal     // set when the expression is a literal
	opaque bool               // literal with partially dynamic content
	slot   *Slot              // set when the expression is a substitution slot
	col    *sqldb.BoundColumn // set when the expression is a base-table column
	maybe  bool               // kText via ClassMaybeText (warn, not error)
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

// sample returns a value the engine can evaluate in v's place, or nil when
// v's kind decides nothing.
func (v val) sample() sqldb.Expr {
	switch {
	case v.lit != nil && !v.opaque:
		return v.lit
	case v.slot != nil && v.kind == kText:
		return &sqldb.Literal{Val: sqldb.NewString(v.slot.Sample)}
	case v.kind == kNum:
		return &sqldb.Literal{Val: sqldb.NewInt(1)}
	case v.kind == kBool:
		return &sqldb.Literal{Val: sqldb.NewBool(true)}
	}
	return nil
}

// rejects evaluates an operation over samples and returns the type error
// the engine raises for it, if any.
func rejects(e sqldb.Expr) error {
	_, err := sqldb.EvalConst(e)
	return typeError(err)
}

// typeError is err when the engine raised it for a type, nil otherwise.
func typeError(err error) error {
	var se *sqldb.Error
	if errors.As(err, &se) && (se.Code == sqldb.CodeDatatypeMismatch || se.Code == sqldb.CodeInvalidText) {
		return err
	}
	return nil
}

// checkExpr type-checks e and returns its value abstraction. Column kinds
// come from Check's binding: a reference it did not bind is of unknown
// kind.
func (a *analyzer) checkExpr(e sqldb.Expr) val {
	switch x := e.(type) {
	case nil:
		return val{}
	case *sqldb.Literal:
		v := val{lit: x, kind: typeKind(x.Val.T)}
		if x.Val.IsNull() {
			v.kind = kNull
		}
		_, v.opaque = a.opts.OpaqueLits[x.Off]
		return v
	case *sqldb.ColumnRef:
		bc, ok := a.bind[x]
		if !ok {
			return val{}
		}
		return val{kind: typeKind(bc.Column.Type), col: &bc}
	case *sqldb.Param:
		s := a.slot(x.Index)
		v := val{slot: &s}
		switch s.Class {
		case ClassNumber:
			v.kind = kNum
		case ClassText:
			v.kind = kText
		case ClassMaybeText:
			v.kind, v.maybe = kText, true
		}
		return v
	case *sqldb.Unary:
		inner := a.checkExpr(x.X)
		if x.Op == "NOT" {
			return val{kind: kBool}
		}
		if s := inner.sample(); s != nil {
			a.checkOperand(rejects(&sqldb.Unary{Op: x.Op, X: s}), inner, x.X, "operand of unary "+x.Op)
		}
		return val{kind: kNum}
	case *sqldb.Binary:
		l, r := a.checkExpr(x.L), a.checkExpr(x.R)
		switch x.Op {
		case "AND", "OR":
			return val{kind: kBool}
		case "=", "<>", "<", "<=", ">", ">=":
			a.checkComparison(x.Op, l, r, x.L, x.R)
			return val{kind: kBool}
		}
		// Each operand against a number: a type error is that operand's.
		one := &sqldb.Literal{Val: sqldb.NewInt(1)}
		if s := l.sample(); s != nil {
			a.checkOperand(rejects(&sqldb.Binary{Op: x.Op, L: s, R: one}), l, x.L, "operand of "+x.Op)
		}
		if s := r.sample(); s != nil {
			a.checkOperand(rejects(&sqldb.Binary{Op: x.Op, L: one, R: s}), r, x.R, "operand of "+x.Op)
		}
		return val{kind: kNum}
	case *sqldb.LikeExpr:
		a.checkExpr(x.X)
		p := a.checkExpr(x.Pattern)
		if p.kind == kNull {
			a.add(RuleType, SevWarn, p.lit.Off,
				"LIKE with a NULL pattern never matches; the predicate is always unknown", "")
		}
		return val{kind: kBool}
	case *sqldb.InExpr:
		v := a.checkExpr(x.X)
		for _, it := range x.List {
			a.checkComparison("=", v, a.checkExpr(it), x.X, it)
		}
		return val{kind: kBool}
	case *sqldb.IsNullExpr:
		a.checkExpr(x.X)
		return val{kind: kBool}
	case *sqldb.FuncCall:
		var args []val
		for _, arg := range x.Args {
			args = append(args, a.checkExpr(arg))
		}
		switch x.Name {
		case "COUNT", "SUM", "AVG", "LENGTH", "ROUND":
			return val{kind: kNum}
		case "MIN", "MAX":
			if len(args) == 1 {
				return val{kind: args[0].kind}
			}
		}
		return val{}
	case *sqldb.CaseExpr:
		a.checkExpr(x.Operand)
		var out kind
		for _, w := range x.Whens {
			a.checkExpr(w.Cond)
			if tv := a.checkExpr(w.Then); out == kUnknown {
				out = tv.kind
			}
		}
		if ev := a.checkExpr(x.Else); out == kUnknown {
			out = ev.kind
		}
		if out == kNull {
			out = kUnknown
		}
		return val{kind: out}
	}
	return val{}
}

// checkOperand reports err, the engine's refusal of v as the operand what.
func (a *analyzer) checkOperand(err error, v val, e sqldb.Expr, what string) {
	switch {
	case err == nil:
	case v.slot != nil:
		a.add(RuleType, slotSev(v), sqldb.ExprOff(e),
			fmt.Sprintf("macro variable %s%s %s (e.g. %q) as %s: %v", slotRef(v.slot), slotChain(v.slot), slotText(v), v.slot.Sample, what, err), "")
	case v.lit != nil && v.kind == kText:
		a.add(RuleType, SevError, v.lit.Off, fmt.Sprintf("string %q as %s: %v", v.lit.Val.S, what, err), "")
	default:
		a.add(RuleType, SevError, sqldb.ExprOff(e), fmt.Sprintf("%s value as %s: %v", v.kind, what, err), "")
	}
}

// checkComparison asks the engine about one comparison and flags what it
// rejects, and any comparison with a NULL literal.
func (a *analyzer) checkComparison(op string, l, r val, le, re sqldb.Expr) {
	// `x = NULL` (or any comparison against a NULL literal) is always
	// UNKNOWN: the predicate filters every row, which is never what the
	// macro author meant.
	for _, side := range [2]val{l, r} {
		if side.kind == kNull && side.lit != nil {
			fix := "use IS NULL"
			if op == "<>" {
				fix = "use IS NOT NULL"
			}
			a.add(RuleType, SevError, side.lit.Off,
				fmt.Sprintf("comparison with NULL is always unknown; no row ever matches %q", op), fix)
			return
		}
	}
	ls, rs := l.sample(), r.sample()
	if ls == nil || rs == nil {
		return
	}
	err := rejects(&sqldb.Binary{Op: op, L: ls, R: rs})
	if err == nil {
		return
	}
	// Say it from the side that is the boolean, or the number.
	if r.kind == kBool || l.kind == kText {
		l, r, le, re = r, l, re, le
	}
	switch {
	case l.kind == kBool:
		a.add(RuleType, SevError, cmpOff(le, re),
			fmt.Sprintf("boolean compared with %s value: %v", r.kind, err), "")
	case r.lit != nil:
		a.add(RuleType, SevError, r.lit.Off,
			fmt.Sprintf("numeric %s compared with non-numeric string %q: %v", sideName(l), r.lit.Val.S, err), "")
	case r.slot != nil:
		a.add(RuleType, slotSev(r), sqldb.ExprOff(re),
			fmt.Sprintf("numeric %s compared with macro variable %s%s, which %s (e.g. %q): %v",
				sideName(l), slotRef(r.slot), slotChain(r.slot), slotText(r), r.slot.Sample, err), "")
	}
}

// checkAssign checks one INSERT/UPDATE value against the column of table
// it is stored in, by the engine's own assignment coercion.
func (a *analyzer) checkAssign(c *sqldb.Column, table string, v val, e sqldb.Expr) {
	if v.kind == kNull {
		if c.NotNull {
			a.add(RuleType, SevError, sqldb.ExprOff(e),
				fmt.Sprintf("NULL assigned to NOT NULL column %s.%s; the engine raises SQLSTATE 23502 at runtime", table, c.Name), "")
		}
		return
	}
	s := v.sample()
	if s == nil {
		return
	}
	_, err := sqldb.CoerceToColumn(s.(*sqldb.Literal).Val, c.Type)
	err = typeError(err)
	target := fmt.Sprintf("%s column %s.%s", strings.ToUpper(c.Type.String()), table, c.Name)
	switch {
	case err == nil:
	case v.slot != nil:
		a.add(RuleType, slotSev(v), sqldb.ExprOff(e),
			fmt.Sprintf("macro variable %s%s %s (e.g. %q), which cannot be stored in %s: %v",
				slotRef(v.slot), slotChain(v.slot), slotText(v), v.slot.Sample, target, err), "")
	case v.lit != nil:
		a.add(RuleType, SevError, v.lit.Off, fmt.Sprintf("string %q cannot be stored in %s: %v", v.lit.Val.S, target, err), "")
	}
}

// cmpOff picks the best offset for a comparison finding: the flagged
// side when positioned, else the other side.
func cmpOff(ae, be sqldb.Expr) int {
	if o := sqldb.ExprOff(be); o >= 0 {
		return o
	}
	return sqldb.ExprOff(ae)
}

// sideName describes the numeric side of a mismatched comparison.
func sideName(v val) string {
	if v.col != nil {
		return fmt.Sprintf("column %s.%s (%s)", v.col.Table, v.col.Column.Name, strings.ToUpper(v.col.Column.Type.String()))
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

// slotText says how often a text slot substitutes non-numeric text.
func slotText(v val) string {
	if v.maybe {
		return "can substitute non-numeric text"
	}
	return "always substitutes non-numeric text"
}

// slotSev is a warning for a slot that only can substitute text.
func slotSev(v val) Severity {
	if v.maybe {
		return SevWarn
	}
	return SevError
}
