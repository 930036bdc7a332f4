package sqldb

import (
	"fmt"
	"math"
	"strings"
)

// isAggregate reports whether name is an aggregate function.
func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func arity(name string, args []Value, want int) error {
	if len(args) != want {
		return &Error{Code: CodeWrongArity,
			Message: fmt.Sprintf("%s expects %d argument(s), got %d", name, want, len(args))}
	}
	return nil
}

// callScalar dispatches the built-in scalar functions.
func callScalar(name string, args []Value) (Value, error) {
	switch name {
	case "UPPER", "UCASE":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LOWER", "LCASE":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "LENGTH", "LEN", "CHAR_LENGTH":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len([]rune(args[0].String())))), nil
	case "TRIM":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.TrimSpace(args[0].String())), nil
	case "LTRIM":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.TrimLeft(args[0].String(), " \t\r\n")), nil
	case "RTRIM":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.TrimRight(args[0].String(), " \t\r\n")), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null, &Error{Code: CodeWrongArity,
				Message: fmt.Sprintf("%s expects 2 or 3 arguments, got %d", name, len(args))}
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := []rune(args[0].String())
		start, ok := args[1].AsInt()
		if !ok {
			return Null, &Error{Code: CodeDatatypeMismatch,
				Message: name + " start position must be numeric"}
		}
		// SQL positions are 1-based; values < 1 clamp to the start.
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return NewString(""), nil
		}
		from := int(start) - 1
		to := len(s)
		if len(args) == 3 {
			if args[2].IsNull() {
				return Null, nil
			}
			n, ok := args[2].AsInt()
			if !ok || n < 0 {
				return Null, &Error{Code: CodeDatatypeMismatch,
					Message: name + " length must be a non-negative number"}
			}
			if from+int(n) < to {
				to = from + int(n)
			}
		}
		return NewString(string(s[from:to])), nil
	case "REPLACE":
		if err := arity(name, args, 3); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return Null, nil
		}
		return NewString(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
			sb.WriteString(a.String())
		}
		return NewString(sb.String()), nil
	case "LEFT":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := []rune(args[0].String())
		n, _ := args[1].AsInt()
		if n < 0 {
			n = 0
		}
		if int(n) > len(s) {
			n = int64(len(s))
		}
		return NewString(string(s[:n])), nil
	case "RIGHT":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		s := []rune(args[0].String())
		n, _ := args[1].AsInt()
		if n < 0 {
			n = 0
		}
		if int(n) > len(s) {
			n = int64(len(s))
		}
		return NewString(string(s[len(s)-int(n):])), nil
	case "POSITION", "LOCATE", "INSTR":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		// LOCATE(needle, haystack), 1-based; 0 when absent.
		idx := strings.Index(args[1].String(), args[0].String())
		if idx < 0 {
			return NewInt(0), nil
		}
		return NewInt(int64(len([]rune(args[1].String()[:idx])) + 1)), nil
	case "REPEAT":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		n, _ := args[1].AsInt()
		if n < 0 {
			n = 0
		}
		return NewString(strings.Repeat(args[0].String(), int(n))), nil
	case "COALESCE", "IFNULL", "VALUE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "NULLIF":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		if Equal(args[0], args[1]) {
			return Null, nil
		}
		return args[0], nil
	case "ABS":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		n, err := numify(args[0])
		if err != nil {
			return Null, err
		}
		if n.T == TInt {
			if n.I < 0 {
				return NewInt(-n.I), nil
			}
			return n, nil
		}
		return NewFloat(math.Abs(n.Float())), nil
	case "MOD":
		if err := arity(name, args, 2); err != nil {
			return Null, err
		}
		return arith("%", args[0], args[1])
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null, &Error{Code: CodeWrongArity,
				Message: fmt.Sprintf("ROUND expects 1 or 2 arguments, got %d", len(args))}
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
	case "FLOOR":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, &Error{Code: CodeDatatypeMismatch, Message: "FLOOR needs a number"}
		}
		return NewInt(int64(math.Floor(f))), nil
	case "CEIL", "CEILING":
		if err := arity(name, args, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null, &Error{Code: CodeDatatypeMismatch, Message: name + " needs a number"}
		}
		return NewInt(int64(math.Ceil(f))), nil
	default:
		return Null, &Error{Code: CodeUndefinedColumn,
			Message: fmt.Sprintf("unknown function %s", name)}
	}
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
