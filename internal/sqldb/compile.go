package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// Expressions are compiled, not interpreted. Once per execution, before
// the first row, the planner hands every expression of the statement to a
// compiler together with the row layout it evaluates against and gets a
// closure back; the executor then calls closures and never looks at the
// tree. What a closure needs from the tree it holds itself — the slot of a
// column, the program of a LIKE pattern, the value a parameter is bound
// to — so nothing is written to the AST after Parse, and the plan cache
// hands one tree to every execution of a shape, concurrent ones included.
//
// A value compiles to a rowExpr, a predicate to a predFn that answers in
// three-valued logic without boxing the answer in a Value. The only errors
// compiling returns are a column reference that does not resolve against
// the layout and a function the engine does not have; everything else an
// expression can get wrong (a missing parameter, a wrong number of
// arguments) is an error of the closure, raised when a row is evaluated,
// as the statement's semantics have it.

// envCol names one slot of a row layout: the (lower-cased) table qualifier
// and column name, and the base table the column is read from.
type envCol struct {
	tbl  string
	name string
	base *Table
}

// resolveColumn finds c's slot in the layout cols. Matching is
// case-insensitive; an unqualified name matching columns in more than one
// table is ambiguous. Either error carries c's position.
func resolveColumn(cols []envCol, c *ColumnRef) (int, error) {
	want := strings.ToLower(c.Column)
	qual := strings.ToLower(c.Table)
	found := -1
	for i, ec := range cols {
		if ec.name != want {
			continue
		}
		if qual != "" && ec.tbl != qual {
			continue
		}
		if found >= 0 {
			return 0, &Error{Code: CodeAmbiguousColumn, Off: c.Off + 1,
				Message: fmt.Sprintf("column reference %q is ambiguous", c.Column)}
		}
		found = i
	}
	if found < 0 {
		name := c.Column
		if qual != "" {
			name = qual + "." + c.Column
		}
		return 0, stampOff(errUndefinedColumn(name), c.Off)
	}
	return found, nil
}

// tri is a predicate's answer in SQL's three-valued logic.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// triTruth is the truth of a value in a boolean context.
func triTruth(v Value) tri {
	b, known := v.Truth()
	if !known {
		return triUnknown
	}
	return triOf(b)
}

// value boxes the answer: NULL for unknown.
func (t tri) value() Value {
	if t == triUnknown {
		return Null
	}
	return NewBool(t == triTrue)
}

type (
	valueFn func(row []Value) (Value, error)
	predFn  func(row []Value) (tri, error)
)

// rowExpr is a compiled value expression. A bare column is its slot, and
// a constant the address of its value — a literal's in the tree, a bound
// parameter's among the execution's arguments, neither written to — so
// that the two cost no call and no allocation; anything else is a closure.
type rowExpr struct {
	fn   valueFn // nil for a constant and for a bare column
	k    *Value  // a constant
	slot int     // a bare column
}

func (x rowExpr) eval(row []Value) (Value, error) {
	switch {
	case x.fn != nil:
		return x.fn(row)
	case x.k != nil:
		return *x.k, nil
	}
	return row[x.slot], nil
}

func (x rowExpr) isColumn() bool { return x.fn == nil && x.k == nil }

// evaluated reports whether x is evaluated, not read from a column.
func (x rowExpr) evaluated() bool { return !x.isColumn() }

// uncompiledArg is what an aggregate's slot of aggArgs holds until the call
// is compiled: no layout has a slot -1.
var uncompiledArg = rowExpr{slot: -1}

func (x rowExpr) uncompiled() bool { return x.isColumn() && x.slot < 0 }

// newAggArgs returns n slots for compiler.aggArgs, none filled.
func newAggArgs(n int) []rowExpr {
	args := make([]rowExpr, n)
	for i := range args {
		args[i] = uncompiledArg
	}
	return args
}

func failExpr(err error) rowExpr {
	return rowExpr{fn: func([]Value) (Value, error) { return Null, err }}
}

// compiler compiles the expressions of one stage of one execution.
type compiler struct {
	cols   []envCol // the layout of the rows the closures will be called on
	params []Value
	bind   Binding // receives what each column reference resolves to (Check)
	// aggs are the aggregate calls of a grouped SELECT in slot order and
	// aggRow where the executor puts the current group's results; nil
	// wherever an aggregate has no group to be the result of.
	aggs   []*FuncCall
	aggRow *[]Value
	// aggArgs receives, by slot, the compiled argument of each aggregate
	// call as the expression it stands in is compiled.
	aggArgs []rowExpr
	// likes are the LIKE programs planning built (fromPlan.likes).
	likes []*likeProgram
}

// isPredicate reports whether e is compiled as a predicate (and boxed where
// a value is wanted) rather than as a value (and asked for its truth where
// a predicate is wanted).
func isPredicate(e Expr) bool {
	switch x := e.(type) {
	case *Unary:
		return x.Op == "NOT"
	case *Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			return true
		}
	case *LikeExpr, *InExpr, *IsNullExpr:
		return true
	}
	return false
}

// value compiles e as a value.
func (c *compiler) value(e Expr) (rowExpr, error) {
	if isPredicate(e) {
		p, err := c.pred(e)
		if err != nil {
			return rowExpr{}, err
		}
		return rowExpr{fn: func(row []Value) (Value, error) {
			t, err := p(row)
			if err != nil {
				return Null, err
			}
			return t.value(), nil
		}}, nil
	}
	switch x := e.(type) {
	case *Literal:
		return rowExpr{k: &x.Val}, nil
	case *ColumnRef:
		slot, err := resolveColumn(c.cols, x)
		if err == nil && c.bind != nil {
			c.bind.note(x, c.cols[slot])
		}
		return rowExpr{slot: slot}, err
	case *Param:
		if x.Index >= 1 && x.Index <= len(c.params) {
			return rowExpr{k: &c.params[x.Index-1]}, nil
		}
		return failExpr(&Error{Code: CodeParamCount,
			Message: fmt.Sprintf("missing value for parameter %d", x.Index)}), nil
	case *Unary:
		return c.negate(x)
	case *Binary:
		return c.binary(x)
	case *FuncCall:
		return c.call(x)
	case *CaseExpr:
		return c.caseExpr(x)
	}
	return failExpr(errInternal(fmt.Sprintf("unknown expression node %T", e))), nil
}

func (c *compiler) negate(x *Unary) (rowExpr, error) {
	v, err := c.value(x.X)
	if err != nil {
		return rowExpr{}, err
	}
	return rowExpr{fn: func(row []Value) (Value, error) {
		a, err := v.eval(row)
		if err != nil {
			return Null, err
		}
		switch a.T {
		case TNull:
			return Null, nil
		case TInt:
			return NewInt(-a.I), nil
		case TFloat:
			return NewFloat(-a.Float()), nil
		}
		return Null, &Error{Code: CodeDatatypeMismatch,
			Message: fmt.Sprintf("cannot negate %s", a.T)}
	}}, nil
}

// both evaluates two operands, the left one first.
func both(l, r rowExpr, row []Value) (a, b Value, err error) {
	if a, err = l.eval(row); err == nil {
		b, err = r.eval(row)
	}
	return a, b, err
}

// binary compiles the operators that yield a value: arithmetic.
func (c *compiler) binary(x *Binary) (rowExpr, error) {
	l, err := c.value(x.L)
	if err != nil {
		return rowExpr{}, err
	}
	r, err := c.value(x.R)
	if err != nil {
		return rowExpr{}, err
	}
	op := x.Op
	return rowExpr{fn: func(row []Value) (Value, error) {
		a, b, err := both(l, r, row)
		if err != nil {
			return Null, err
		}
		return arith(op, a, b)
	}}, nil
}

// arith applies an arithmetic operator. Strings in arithmetic contexts
// are parsed numerically — the engine receives every literal as a string
// when statements are assembled by textual variable substitution, so this
// mirrors dynamic-SQL behaviour.
func arith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	l2, err := numify(l)
	if err != nil {
		return Null, err
	}
	r2, err := numify(r)
	if err != nil {
		return Null, err
	}
	if l2.T == TInt && r2.T == TInt {
		a, b := l2.I, r2.I
		switch op {
		case "+":
			return NewInt(a + b), nil
		case "-":
			return NewInt(a - b), nil
		case "*":
			return NewInt(a * b), nil
		case "/":
			if b == 0 {
				return Null, &Error{Code: CodeDivisionByZero, Message: "division by zero"}
			}
			return NewInt(a / b), nil
		case "%":
			if b == 0 {
				return Null, &Error{Code: CodeDivisionByZero, Message: "division by zero"}
			}
			return NewInt(a % b), nil
		}
	}
	af, _ := l2.AsFloat()
	bf, _ := r2.AsFloat()
	var f float64
	switch op {
	case "+":
		f = af + bf
	case "-":
		f = af - bf
	case "*":
		f = af * bf
	case "/":
		if bf == 0 {
			return Null, &Error{Code: CodeDivisionByZero, Message: "division by zero"}
		}
		f = af / bf
	case "%":
		// The remainder is of the truncated operands: it is the truncated
		// divisor that must not be zero, as 0.5 is.
		if int64(bf) == 0 {
			return Null, &Error{Code: CodeDivisionByZero, Message: "division by zero"}
		}
		return NewFloat(float64(int64(af) % int64(bf))), nil
	default:
		return Null, errInternal("unknown arithmetic operator " + op)
	}
	if !finite(f) {
		return Null, errOutOfRange("the result of " + op)
	}
	return NewFloat(f), nil
}

// numify coerces a value to TInt or TFloat for arithmetic.
func numify(v Value) (Value, error) {
	switch v.T {
	case TInt, TFloat:
		return v, nil
	case TString:
		return CoerceToColumn(v, TFloat)
	case TBool:
		if v.Bool() {
			return NewInt(1), nil
		}
		return NewInt(0), nil
	}
	return Null, &Error{Code: CodeDatatypeMismatch,
		Message: fmt.Sprintf("%s is not numeric", v.T)}
}

// call compiles a function call: the result of an aggregate, read from the
// current group, or a scalar function over its compiled arguments.
func (c *compiler) call(fc *FuncCall) (rowExpr, error) {
	name := fc.Name
	if isAggregate(name) {
		// The arguments see rows, not groups: an aggregate among them has
		// no group of its own.
		slot := slices.Index(c.aggs, fc)
		inner := *c
		inner.aggs = nil
		for i, a := range fc.Args {
			arg, err := inner.value(a)
			if err != nil {
				return rowExpr{}, err
			}
			if i == 0 && slot >= 0 {
				c.aggArgs[slot] = arg
			}
		}
		if slot < 0 {
			return failExpr(&Error{Code: CodeSyntax,
				Message: fmt.Sprintf("aggregate function %s used outside of a grouped query", name)}), nil
		}
		cur := c.aggRow
		return rowExpr{fn: func([]Value) (Value, error) { return (*cur)[slot], nil }}, nil
	}
	args := make([]rowExpr, len(fc.Args))
	for i, a := range fc.Args {
		var err error
		if args[i], err = c.value(a); err != nil {
			return rowExpr{}, err
		}
	}
	// The arguments were compiled first: a reference among them that does
	// not resolve is the call's error before its name is, and an aggregate
	// among them has its slot filled either way.
	fn := scalarFns[name]
	if fn == nil {
		return rowExpr{}, stampOff(errUndefinedFunction(name), fc.Off)
	}
	// One argument buffer serves every row: fn keeps none of it, and a
	// call cannot be evaluated while it is being evaluated.
	vals := make([]Value, len(args))
	return rowExpr{fn: func(row []Value) (Value, error) {
		for i, a := range args {
			var err error
			if vals[i], err = a.eval(row); err != nil {
				return Null, err
			}
		}
		return fn(vals)
	}}, nil
}

func (c *compiler) caseExpr(x *CaseExpr) (rowExpr, error) {
	var operand rowExpr
	var err error
	if x.Operand != nil {
		if operand, err = c.value(x.Operand); err != nil {
			return rowExpr{}, err
		}
	}
	// A simple CASE compares its operand with each WHEN's value; a searched
	// one asks each WHEN for its truth.
	type when struct {
		val  rowExpr
		cond predFn
		then rowExpr
	}
	whens := make([]when, len(x.Whens))
	for i, w := range x.Whens {
		if x.Operand != nil {
			whens[i].val, err = c.value(w.Cond)
		} else {
			whens[i].cond, err = c.pred(w.Cond)
		}
		if err != nil {
			return rowExpr{}, err
		}
		if whens[i].then, err = c.value(w.Then); err != nil {
			return rowExpr{}, err
		}
	}
	otherwise := rowExpr{k: &Null}
	if x.Else != nil {
		if otherwise, err = c.value(x.Else); err != nil {
			return rowExpr{}, err
		}
	}
	simple := x.Operand != nil
	return rowExpr{fn: func(row []Value) (Value, error) {
		var op Value
		if simple {
			var err error
			if op, err = operand.eval(row); err != nil {
				return Null, err
			}
		}
		for i := range whens {
			w := &whens[i]
			matched := false
			if simple {
				v, err := w.val.eval(row)
				if err != nil {
					return Null, err
				}
				matched = Equal(op, v)
			} else {
				t, err := w.cond(row)
				if err != nil {
					return Null, err
				}
				matched = t == triTrue
			}
			if matched {
				return w.then.eval(row)
			}
		}
		return otherwise.eval(row)
	}}, nil
}

// --- predicates ---

// pred compiles e as a predicate.
func (c *compiler) pred(e Expr) (predFn, error) {
	if !isPredicate(e) {
		v, err := c.value(e)
		if err != nil {
			return nil, err
		}
		return func(row []Value) (tri, error) {
			a, err := v.eval(row)
			return triTruth(a), err
		}, nil
	}
	switch x := e.(type) {
	case *Unary: // NOT
		p, err := c.pred(x.X)
		if err != nil {
			return nil, err
		}
		return func(row []Value) (tri, error) {
			t, err := p(row)
			if t != triUnknown {
				t ^= 1
			}
			return t, err
		}, nil
	case *Binary:
		if x.Op == "AND" || x.Op == "OR" {
			return c.connective(x)
		}
		return c.comparison(x)
	case *LikeExpr:
		return c.like(x)
	case *InExpr:
		return c.in(x)
	case *IsNullExpr:
		v, err := c.value(x.X)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row []Value) (tri, error) {
			a, err := v.eval(row)
			return triOf(a.IsNull() != not), err
		}, nil
	}
	panic("sqldb: isPredicate and pred disagree")
}

// connective compiles AND and OR: three-valued, and the right operand is
// not evaluated where the left one decides.
func (c *compiler) connective(x *Binary) (predFn, error) {
	l, err := c.pred(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.pred(x.R)
	if err != nil {
		return nil, err
	}
	// decides is the operand that settles the result alone: FALSE for AND,
	// TRUE for OR. Without one, an unknown operand makes the result unknown.
	decides := triFalse
	if x.Op == "OR" {
		decides = triTrue
	}
	return func(row []Value) (tri, error) {
		a, err := l(row)
		if err != nil || a == decides {
			return a, err
		}
		b, err := r(row)
		if err != nil || b == decides {
			return b, err
		}
		if a == triUnknown || b == triUnknown {
			return triUnknown, nil
		}
		return decides ^ 1, nil
	}, nil
}

// cmpAccepts maps a comparison operator to the set of Compare results it
// accepts: bit 0 for less, bit 1 for equal, bit 2 for greater.
func cmpAccepts(op string) uint8 {
	switch op {
	case "=":
		return 0b010
	case "<>":
		return 0b101
	case "<":
		return 0b001
	case "<=":
		return 0b011
	case ">":
		return 0b100
	case ">=":
		return 0b110
	}
	return 0
}

// comparison compiles = <> < <= > >=. A column against an operand known
// now reads its slot and compares; anything else evaluates both sides.
func (c *compiler) comparison(x *Binary) (predFn, error) {
	l, err := c.value(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.value(x.R)
	if err != nil {
		return nil, err
	}
	accepts := cmpAccepts(x.Op)
	col, other := l, r
	if l.k != nil && r.isColumn() {
		// const <op> col is col <flipped op> const: swap less and greater.
		col, other, accepts = r, l, accepts&0b010|accepts>>2|accepts&1<<2
	}
	if col.isColumn() && other.k != nil {
		slot, k := col.slot, *other.k
		if k.IsNull() {
			return func([]Value) (tri, error) { return triUnknown, nil }, nil
		}
		return func(row []Value) (tri, error) {
			v := &row[slot]
			if v.T == TNull {
				return triUnknown, nil
			}
			cmp, err := Compare(*v, k)
			return triOf(accepts>>(cmp+1)&1 != 0), err
		}, nil
	}
	return func(row []Value) (tri, error) {
		a, b, err := both(l, r, row)
		if err != nil || a.IsNull() || b.IsNull() {
			return triUnknown, err
		}
		cmp, err := Compare(a, b)
		return triOf(accepts>>(cmp+1)&1 != 0), err
	}, nil
}

// like compiles [NOT] LIKE. Where the pattern is known now — a literal,
// or the parameter the plan cache made of it — the program is built here;
// otherwise the closure keeps the program of the last pattern it saw.
func (c *compiler) like(x *LikeExpr) (predFn, error) {
	xv, err := c.value(x.X)
	if err != nil {
		return nil, err
	}
	pv, err := c.value(x.Pattern)
	if err != nil {
		return nil, err
	}
	not := x.Not
	if xv.isColumn() && pv.k != nil && !pv.k.IsNull() {
		// A column against a pattern known now: one slot read and one
		// match a row.
		slot, prog := xv.slot, c.likeProgram(pv.k.String())
		return func(row []Value) (tri, error) {
			v := &row[slot]
			if v.T == TNull {
				return triUnknown, nil
			}
			s := v.S
			if v.T != TString {
				s = v.String()
			}
			return triOf(prog.match(s) != not), nil
		}, nil
	}
	var prog *likeProgram
	return func(row []Value) (tri, error) {
		v, p, err := both(xv, pv, row)
		if err != nil || v.IsNull() || p.IsNull() {
			return triUnknown, err
		}
		if pattern := p.String(); prog == nil || prog.pattern != pattern {
			prog = compileLike(pattern)
		}
		return triOf(prog.match(v.String()) != not), nil
	}, nil
}

// likeProgram returns the program of a pattern: the one planning built
// for it where it did, so that a pattern is compiled once an execution.
func (c *compiler) likeProgram(pattern string) *likeProgram {
	for _, p := range c.likes {
		if p.pattern == pattern {
			return p
		}
	}
	return compileLike(pattern)
}

// in compiles [NOT] IN over a value list. A NULL among the candidates
// makes a miss unknown.
func (c *compiler) in(x *InExpr) (predFn, error) {
	xv, err := c.value(x.X)
	if err != nil {
		return nil, err
	}
	not := x.Not
	list := make([]rowExpr, len(x.List))
	for i, item := range x.List {
		if list[i], err = c.value(item); err != nil {
			return nil, err
		}
	}
	return func(row []Value) (tri, error) {
		v, err := xv.eval(row)
		if err != nil || v.IsNull() {
			return triUnknown, err
		}
		sawNull := false
		for _, item := range list {
			iv, err := item.eval(row)
			if err != nil {
				return triUnknown, err
			}
			if found, err := inStep(&v, &iv, &sawNull); err != nil || found {
				return triOf(!not), err
			}
		}
		return inMiss(sawNull, not), nil
	}, nil
}

// inStep compares v with one candidate of an IN; a NULL candidate matches
// nothing and is remembered.
func inStep(v, cand *Value, sawNull *bool) (found bool, err error) {
	if cand.T == TNull {
		*sawNull = true
		return false, nil
	}
	cmp, err := Compare(*v, *cand)
	return err == nil && cmp == 0, err
}

// inMiss is the answer of an IN that found no match.
func inMiss(sawNull, not bool) tri {
	if sawNull {
		return triUnknown
	}
	return triOf(not)
}

// evalConst evaluates an expression that looks at no row.
func evalConst(e Expr, params []Value) (Value, error) {
	c := compiler{params: params}
	x, err := c.value(e)
	if err != nil {
		return Null, err
	}
	return x.eval(nil)
}
