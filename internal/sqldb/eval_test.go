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
// the functions of scalarFns, the LIKE program.

// evalEnv is the evaluation environment for one row (or one group).
type evalEnv struct {
	cols   []envCol
	row    []Value
	params []Value
	// aggCalls are the aggregate calls the row's group has results for, in
	// slot order, and aggs the results.
	aggCalls []*FuncCall
	aggs     []Value
}

// bindErr returns the error of the first column reference of e that does
// not resolve against the layout, or of the first function the engine
// does not have, a call's arguments before its name: what compiling e
// returns before any row is looked at.
func bindErr(e Expr, cols []envCol) error {
	var err error
	walkExpr(e, func(x Expr) bool {
		if err != nil {
			return false
		}
		switch x := x.(type) {
		case *ColumnRef:
			_, err = resolveColumn(cols, x)
		case *FuncCall:
			if !isAggregate(x.Name) && scalarFns[x.Name] == nil {
				for _, a := range x.Args {
					if err = bindErr(a, cols); err != nil {
						return false
					}
				}
				err = errUndefinedFunction(x.Name)
			}
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
			return Null, &Error{Code: CodeParamCount,
				Message: fmt.Sprintf("missing value for parameter %d", x.Index)}
		}
		return env.params[x.Index-1], nil
	case *Unary:
		return evalUnary(x, env)
	case *Binary:
		return evalBinary(x, env)
	case *LikeExpr:
		return evalLike(x, env)
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
	return NewBool(compileLike(p.String()).match(v.String()) != x.Not), nil
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
	fn := scalarFns[fc.Name]
	if fn == nil {
		return Null, errUndefinedFunction(fc.Name)
	}
	args := make([]Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := eval(a, env)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return fn(args)
}
