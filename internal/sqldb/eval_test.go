package sqldb

import (
	"fmt"
	"slices"
)

// The reference evaluator: the tree walk that evaluated every expression
// until the compiler of compile.go replaced it, kept as the specification
// the compiled closures are compared against (compile_test.go). It reads
// the tree and nothing else — a column is resolved against the layout each
// time it is evaluated, a LIKE pattern parsed each time it is matched —
// and shares with the compiler only what works on values: Compare, arith,
// callScalar, coerceToColumn, the LIKE program.

// evalEnv is the evaluation environment for one row (or one group).
type evalEnv struct {
	cols   []envCol
	row    []Value
	params []Value
	// aggCalls are the aggregate calls the row's group has results for, in
	// slot order, and aggs the results.
	aggCalls []*FuncCall
	aggs     []Value
	// vw gives the clock functions the database's clock; nil where there
	// is none (constants).
	vw *view
}

// bindErr returns the error of the first column reference of e that does
// not resolve against the layout: what compiling e returns before any row
// is looked at.
func bindErr(e Expr, cols []envCol) error {
	var err error
	walkExpr(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok && err == nil {
			_, err = resolveColumn(cols, c)
		}
		return err == nil
	})
	return err
}

// eval evaluates a bound expression against one row environment.
func eval(e Expr, env *evalEnv) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		slot, err := resolveColumn(env.cols, x)
		if err != nil {
			return Null, err
		}
		return env.row[slot], nil
	case *Param:
		if x.Index < 1 || x.Index > len(env.params) {
			return Null, &Error{Code: CodeWrongArity,
				Message: fmt.Sprintf("missing value for parameter %d", x.Index)}
		}
		return env.params[x.Index-1], nil
	case *Unary:
		return evalUnary(x, env)
	case *Binary:
		return evalBinary(x, env)
	case *LikeExpr:
		return evalLike(x, env)
	case *BetweenExpr:
		return evalBetween(x, env)
	case *InExpr:
		return evalIn(x, env)
	case *IsNullExpr:
		v, err := eval(x.X, env)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != x.Not), nil
	case *FuncCall:
		if slot := slices.Index(env.aggCalls, x); slot >= 0 {
			return env.aggs[slot], nil
		}
		return evalFunc(x, env)
	case *CaseExpr:
		return evalCase(x, env)
	case *CastExpr:
		v, err := eval(x.X, env)
		if err != nil {
			return Null, err
		}
		return coerceToColumn(v, x.To)
	default:
		return Null, errInternal(fmt.Sprintf("unknown expression node %T", e))
	}
}

func evalUnary(x *Unary, env *evalEnv) (Value, error) {
	v, err := eval(x.X, env)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "-":
		if v.IsNull() {
			return Null, nil
		}
		switch v.T {
		case TInt:
			return NewInt(-v.I), nil
		case TFloat:
			return NewFloat(-v.Float()), nil
		}
		return Null, &Error{Code: CodeDatatypeMismatch,
			Message: fmt.Sprintf("cannot negate %s", v.T)}
	case "NOT":
		t, known := v.Truth()
		if !known {
			return Null, nil
		}
		return NewBool(!t), nil
	}
	return Null, errInternal("unknown unary operator " + x.Op)
}

func evalBinary(x *Binary, env *evalEnv) (Value, error) {
	// AND/OR implement SQL three-valued logic with short-circuiting.
	switch x.Op {
	case "AND":
		l, err := eval(x.L, env)
		if err != nil {
			return Null, err
		}
		lt, lknown := l.Truth()
		if lknown && !lt {
			return NewBool(false), nil
		}
		r, err := eval(x.R, env)
		if err != nil {
			return Null, err
		}
		rt, rknown := r.Truth()
		if rknown && !rt {
			return NewBool(false), nil
		}
		if !lknown || !rknown {
			return Null, nil
		}
		return NewBool(true), nil
	case "OR":
		l, err := eval(x.L, env)
		if err != nil {
			return Null, err
		}
		lt, lknown := l.Truth()
		if lknown && lt {
			return NewBool(true), nil
		}
		r, err := eval(x.R, env)
		if err != nil {
			return Null, err
		}
		rt, rknown := r.Truth()
		if rknown && rt {
			return NewBool(true), nil
		}
		if !lknown || !rknown {
			return Null, nil
		}
		return NewBool(false), nil
	}
	l, err := eval(x.L, env)
	if err != nil {
		return Null, err
	}
	r, err := eval(x.R, env)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c, err := Compare(l, r)
		if err != nil {
			return Null, err
		}
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return NewBool(b), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewString(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return arith(x.Op, l, r)
	}
	return Null, errInternal("unknown binary operator " + x.Op)
}

func evalLike(x *LikeExpr, env *evalEnv) (Value, error) {
	v, err := eval(x.X, env)
	if err != nil {
		return Null, err
	}
	p, err := eval(x.Pattern, env)
	if err != nil {
		return Null, err
	}
	if v.IsNull() || p.IsNull() {
		return Null, nil
	}
	escape, hasEscape := "", x.Escape != nil
	if hasEscape {
		e, err := eval(x.Escape, env)
		if err != nil {
			return Null, err
		}
		if e.IsNull() {
			return Null, nil
		}
		escape = e.String()
	}
	prog := compileLike(p.String(), escape, hasEscape)
	if prog.err != nil {
		return Null, prog.err
	}
	return NewBool(prog.match(v.String()) != x.Not), nil
}

func evalBetween(x *BetweenExpr, env *evalEnv) (Value, error) {
	v, err := eval(x.X, env)
	if err != nil {
		return Null, err
	}
	lo, err := eval(x.Lo, env)
	if err != nil {
		return Null, err
	}
	hi, err := eval(x.Hi, env)
	if err != nil {
		return Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null, nil
	}
	c1, err := Compare(v, lo)
	if err != nil {
		return Null, err
	}
	c2, err := Compare(v, hi)
	if err != nil {
		return Null, err
	}
	in := c1 >= 0 && c2 <= 0
	return NewBool(in != x.Not), nil
}

func evalIn(x *InExpr, env *evalEnv) (Value, error) {
	v, err := eval(x.X, env)
	if err != nil {
		return Null, err
	}
	if v.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := eval(item, env)
		if err != nil {
			return Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		c, err := Compare(v, iv)
		if err != nil {
			return Null, err
		}
		if c == 0 {
			return NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return Null, nil // unknown, per three-valued IN semantics
	}
	return NewBool(x.Not), nil
}

func evalCase(x *CaseExpr, env *evalEnv) (Value, error) {
	var operand Value
	var err error
	if x.Operand != nil {
		operand, err = eval(x.Operand, env)
		if err != nil {
			return Null, err
		}
	}
	for _, w := range x.Whens {
		cv, err := eval(w.Cond, env)
		if err != nil {
			return Null, err
		}
		matched := false
		if x.Operand != nil {
			matched = Equal(operand, cv)
		} else {
			t, known := cv.Truth()
			matched = known && t
		}
		if matched {
			return eval(w.Then, env)
		}
	}
	if x.Else != nil {
		return eval(x.Else, env)
	}
	return Null, nil
}

// evalFunc evaluates a scalar (non-aggregate) function call.
func evalFunc(fc *FuncCall, env *evalEnv) (Value, error) {
	if isAggregate(fc.Name) {
		return Null, &Error{Code: CodeSyntax,
			Message: fmt.Sprintf("aggregate function %s used outside of a grouped query", fc.Name)}
	}
	// Clock functions read the database clock (injectable for tests).
	switch fc.Name {
	case "NOW", "CURRENT_TIMESTAMP":
		if len(fc.Args) != 0 {
			return Null, &Error{Code: CodeWrongArity, Message: fc.Name + " takes no arguments"}
		}
		if env.vw == nil {
			return Null, &Error{Code: CodeFeature, Message: fc.Name + " requires a database context"}
		}
		return NewString(env.vw.db.now().Format("2006-01-02 15:04:05")), nil
	case "CURDATE", "CURRENT_DATE":
		if len(fc.Args) != 0 {
			return Null, &Error{Code: CodeWrongArity, Message: fc.Name + " takes no arguments"}
		}
		if env.vw == nil {
			return Null, &Error{Code: CodeFeature, Message: fc.Name + " requires a database context"}
		}
		return NewString(env.vw.db.now().Format("2006-01-02")), nil
	case "CURTIME", "CURRENT_TIME":
		if len(fc.Args) != 0 {
			return Null, &Error{Code: CodeWrongArity, Message: fc.Name + " takes no arguments"}
		}
		if env.vw == nil {
			return Null, &Error{Code: CodeFeature, Message: fc.Name + " requires a database context"}
		}
		return NewString(env.vw.db.now().Format("15:04:05")), nil
	}
	args := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := eval(a, env)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return callScalar(fc.Name, args)
}
