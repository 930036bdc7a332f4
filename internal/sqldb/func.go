package sqldb

import (
	"fmt"
	"math"
)

// isAggregate reports whether name is an aggregate function.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// scalarFns are the scalar functions the engine has: the ones a macro, an
// example or a workload of the system calls. A name that is not here is
// SQLSTATE 42883 where the call is compiled. Each checks the number of its
// evaluated arguments itself: a wrong count is an error of the row, as
// every other error of an evaluation is.
var scalarFns = map[string]func(args []Value) (Value, error){
	"LENGTH": length,
	"ROUND":  round,
}

func errUndefinedFunction(name string) *Error {
	return &Error{Code: CodeUndefinedFunction,
		Message: fmt.Sprintf("function %s does not exist", name)}
}

func errArity(name, want string, got int) *Error {
	return &Error{Code: CodeWrongArity,
		Message: fmt.Sprintf("%s expects %s argument(s), got %d", name, want, got)}
}

// length is LENGTH(s): the number of characters of s.
func length(args []Value) (Value, error) {
	if len(args) != 1 {
		return Null, errArity("LENGTH", "1", len(args))
	}
	if args[0].IsNull() {
		return Null, nil
	}
	return NewInt(int64(len([]rune(args[0].String())))), nil
}

// round is ROUND(x [, digits]): x rounded half away from zero to digits
// places after the point, 0 by default.
func round(args []Value) (Value, error) {
	if len(args) != 1 && len(args) != 2 {
		return Null, errArity("ROUND", "1 or 2", len(args))
	}
	if args[0].IsNull() {
		return Null, nil
	}
	f, ok := args[0].AsFloat()
	if !ok {
		n, err := numify(args[0])
		if err != nil {
			return Null, err
		}
		f, _ = n.AsFloat()
	}
	digits := int64(0)
	if len(args) == 2 {
		if args[1].IsNull() {
			return Null, nil
		}
		digits, _ = args[1].AsInt()
	}
	// Past 2^53 a float64 has no fraction to round: at such a scale,
	// or one that overflows, f is already rounded.
	scale := math.Pow(10, float64(digits))
	if x := math.Abs(f * scale); x >= 1<<53 || math.IsNaN(x) {
		return NewFloat(f), nil
	}
	r := math.Round(f*scale) / scale
	if !finite(r) {
		return Null, errOutOfRange("ROUND")
	}
	return NewFloat(r), nil
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn       string
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min, max Value
	sawValue bool
}

// add folds one input value into the aggregate. NULL inputs are ignored
// for every aggregate except COUNT(*), which the caller handles by passing
// star=true.
func (st *aggState) add(v Value, star bool) error {
	if star {
		st.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	st.sawValue = true
	switch st.fn {
	case "COUNT":
		st.count++
	case "SUM", "AVG":
		n, err := numify(v)
		if err != nil {
			return err
		}
		st.count++
		if n.T == TFloat {
			st.isFloat = true
			st.sumF += n.Float()
		} else {
			st.sumI += n.I
			st.sumF += float64(n.I)
		}
	case "MIN":
		if st.min.IsNull() {
			st.min = v
		} else if c, err := Compare(v, st.min); err != nil {
			return err
		} else if c < 0 {
			st.min = v
		}
	case "MAX":
		if st.max.IsNull() {
			st.max = v
		} else if c, err := Compare(v, st.max); err != nil {
			return err
		} else if c > 0 {
			st.max = v
		}
	}
	return nil
}

// result returns the aggregate's final value for the group.
func (st *aggState) result() Value {
	switch st.fn {
	case "COUNT":
		return NewInt(st.count)
	case "SUM":
		if !st.sawValue {
			return Null
		}
		if st.isFloat {
			return NewFloat(st.sumF)
		}
		return NewInt(st.sumI)
	case "AVG":
		if st.count == 0 {
			return Null
		}
		return NewFloat(st.sumF / float64(st.count))
	case "MIN":
		return st.min
	case "MAX":
		return st.max
	}
	return Null
}
