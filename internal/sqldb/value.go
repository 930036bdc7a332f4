// Package sqldb implements a small, self-contained, in-memory relational
// database engine with a SQL front end.
//
// It is the DBMS substrate for the DB2 WWW Connection reproduction: the
// macro engine (internal/core) only requires dynamic statement execution,
// result column names and values, typed errors, and transactions with
// rollback — all of which this package provides. The
// engine supports a useful subset of SQL-92: CREATE/DROP TABLE, CREATE/DROP
// INDEX, INSERT, UPDATE, DELETE, and SELECT with WHERE, joins, GROUP BY,
// ORDER BY, the functions LENGTH and ROUND, the five aggregates, LIKE, IN,
// IS NULL and CASE. UNION, subqueries, derived tables, HAVING, DISTINCT,
// LIMIT/OFFSET, FETCH FIRST, ALTER TABLE, BETWEEN, CAST, LIKE ... ESCAPE
// and || are refused at parse with SQLSTATE 0A000, and any other function
// with 42883: nothing the gateway serves sends them.
package sqldb

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"

	"db2www/internal/decimal"
)

// Type identifies the runtime type of a Value.
type Type int

// Runtime value types. TNull is the type of the SQL NULL value.
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INTEGER"
	case TFloat:
		return "DOUBLE"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a runtime SQL value. The zero Value is NULL. It is 32 bytes:
// an INTEGER is I, a VARCHAR is S, and a DOUBLE and a BOOLEAN keep their
// bits in I too (Float and Bool read them), since a table, a join and a
// result hold a Value per cell.
type Value struct {
	T Type
	I int64
	S string
}

// Null is the SQL NULL value.
var Null = Value{T: TNull}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{T: TInt, I: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{T: TFloat, I: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{T: TString, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{T: TBool, I: 1}
	}
	return Value{T: TBool}
}

// Float returns the float64 of a DOUBLE value (see AsFloat for any number).
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// Bool returns the truth of a BOOLEAN value.
func (v Value) Bool() bool { return v.I != 0 }

// IsNull reports whether v is the SQL NULL value.
func (v Value) IsNull() bool { return v.T == TNull }

// String renders the value the way a terminal client or default report
// would print it. NULL renders as the empty string, matching the paper's
// treatment of undefined variables.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return ""
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return formatFloat(v.Float())
	case TString:
		return v.S
	case TBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	default:
		return ""
	}
}

// formatFloat renders a double the way a report should read it: plain
// decimal notation for ordinary magnitudes, scientific only at the
// extremes (a 1996 report page never showed 1e+07 for a price).
func formatFloat(f float64) string {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	if abs != 0 && (abs >= 1e15 || abs < 1e-4) {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// SQLLiteral renders the value as a SQL literal suitable for re-parsing.
func (v Value) SQLLiteral() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default:
		return v.String()
	}
}

// AsFloat coerces a numeric value to float64. Returns false for non-numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case TInt:
		return float64(v.I), true
	case TFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

// AsInt coerces a numeric value to int64. Returns false for non-numeric.
func (v Value) AsInt() (int64, bool) {
	switch v.T {
	case TInt:
		return v.I, true
	case TFloat:
		return int64(v.Float()), true
	default:
		return 0, false
	}
}

// Truth evaluates the value in a boolean context using SQL three-valued
// logic: the second result is false when the truth value is unknown (NULL).
func (v Value) Truth() (bool, bool) {
	switch v.T {
	case TBool:
		return v.Bool(), true
	case TInt:
		return v.I != 0, true
	case TFloat:
		return v.Float() != 0, true
	case TNull:
		return false, false
	default:
		return false, false
	}
}

// Compare orders two non-NULL values. It returns -1, 0, or +1 and an error
// when the values are not comparable. Numeric values compare numerically
// across INT and FLOAT; strings compare lexicographically; booleans order
// FALSE < TRUE.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, errInternal("Compare called with NULL operand")
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		// Compare int64 exactly when both sides are integers to avoid
		// float rounding at the extremes.
		if a.T == TInt && b.T == TInt {
			switch {
			case a.I < b.I:
				return -1, nil
			case a.I > b.I:
				return 1, nil
			default:
				return 0, nil
			}
		}
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.T == TString && b.T == TString {
		return strings.Compare(a.S, b.S), nil
	}
	if a.T == TBool && b.T == TBool {
		switch {
		case !a.Bool() && b.Bool():
			return -1, nil
		case a.Bool() && !b.Bool():
			return 1, nil
		default:
			return 0, nil
		}
	}
	// Cross-type comparison between string and number: a string that is a
	// finite decimal number compares as that number, as 1996-era dynamic SQL
	// front ends did; any other text ('abc', 'NaN', 'Inf') is no number.
	if a.T == TString && bok {
		if f, ok := decimal.Parse(a.S); ok {
			switch {
			case f < bf:
				return -1, nil
			case f > bf:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if b.T == TString && aok {
		if f, ok := decimal.Parse(b.S); ok {
			switch {
			case af < f:
				return -1, nil
			case af > f:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return 0, &Error{Code: CodeDatatypeMismatch,
		Message: fmt.Sprintf("cannot compare %s with %s", a.T, b.T)}
}

// Equal reports whether two values are equal under Compare semantics.
// NULL is not equal to anything, including NULL.
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// IdentityEqual reports whether two values are indistinguishable, treating
// NULL as equal to NULL. Used for GROUP BY key matching.
func IdentityEqual(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() != b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// groupKey is v as GROUP BY and a unique index's build compare it, where
// NULL is a key like any other: two values are one key exactly when their
// groupKeys are ==. A DOUBLE with an integral value is the INTEGER of it,
// mirroring Compare's numeric cross-type semantics, so that 1 and 1.0 are
// one key; every NaN is one key; anything else is itself.
func groupKey(v Value) Value {
	switch v.T {
	case TFloat:
		f := v.Float()
		switch {
		case f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64:
			return NewInt(int64(f))
		case f != f:
			return NewFloat(math.NaN())
		}
	case TNull:
		return Null
	case TString:
		return NewString(v.S)
	}
	return v
}

// groupSeed seeds the hash of string keys.
var groupSeed = maphash.MakeSeed()

// groupHash hashes a row of groupKeys.
func groupHash(key []Value) uint64 {
	h := uint64(len(key))
	for _, v := range key {
		x := uint64(v.T)<<56 ^ uint64(v.I)
		if v.T == TString {
			x ^= maphash.String(groupSeed, v.S)
		}
		h = (h ^ x) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// CoerceToColumn converts a value for storage into a column of the given
// declared type: the engine's one assignment coercion, which the linter
// asks too. Strings parse to numbers when the column is numeric;
// numbers render to strings for VARCHAR columns; NULL passes through. A
// number that is not finite is not a value of a numeric column: NaN would
// compare equal to every number (Compare answers 0 when neither operand is
// less), and a dump writes ±Inf as a bare word that does not parse back.
func CoerceToColumn(v Value, t Type) (Value, error) {
	if v.IsNull() || t == TNull {
		return v, nil
	}
	switch t {
	case TInt:
		switch v.T {
		case TInt:
			return v, nil
		case TFloat:
			if !finite(v.Float()) {
				return Null, errNotFinite(v, t)
			}
			return NewInt(int64(v.Float())), nil
		case TBool:
			if v.Bool() {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		case TString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				f, ok := decimal.Parse(v.S)
				if !ok {
					return Null, &Error{Code: CodeInvalidText,
						Message: fmt.Sprintf("invalid INTEGER literal %q", v.S)}
				}
				return NewInt(int64(f)), nil
			}
			return NewInt(i), nil
		}
	case TFloat:
		switch v.T {
		case TInt:
			return NewFloat(float64(v.I)), nil
		case TFloat:
			if !finite(v.Float()) {
				return Null, errNotFinite(v, t)
			}
			return v, nil
		case TBool:
			if v.Bool() {
				return NewFloat(1), nil
			}
			return NewFloat(0), nil
		case TString:
			f, ok := decimal.Parse(v.S)
			if !ok {
				return Null, &Error{Code: CodeInvalidText,
					Message: fmt.Sprintf("invalid DOUBLE literal %q", v.S)}
			}
			return NewFloat(f), nil
		}
	case TString:
		return NewString(v.String()), nil
	case TBool:
		switch v.T {
		case TBool:
			return v, nil
		case TInt:
			return NewBool(v.I != 0), nil
		case TFloat:
			return NewBool(v.Float() != 0), nil
		case TString:
			switch strings.ToUpper(strings.TrimSpace(v.S)) {
			case "TRUE", "T", "1", "YES", "Y":
				return NewBool(true), nil
			case "FALSE", "F", "0", "NO", "N", "":
				return NewBool(false), nil
			}
			return Null, &Error{Code: CodeInvalidText,
				Message: fmt.Sprintf("invalid BOOLEAN literal %q", v.S)}
		}
	}
	return Null, errInternal(fmt.Sprintf("coerce %s to %s", v.T, t))
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// errOutOfRange is the error of an arithmetic result that is not a finite
// number: the engine holds no NaN and no infinity, so Compare never meets
// one.
func errOutOfRange(op string) *Error {
	return &Error{Code: CodeNumericRange, Message: op + " is out of range for type DOUBLE"}
}

func errNotFinite(v Value, t Type) *Error {
	return &Error{Code: CodeInvalidText,
		Message: fmt.Sprintf("%s is not a value of type %s", v.String(), t)}
}
