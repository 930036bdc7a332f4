package sqldb

import (
	"errors"
	"fmt"
)

// SQLSTATE-style error codes returned by the engine. The macro engine's
// %SQL_MESSAGE handling keys off these, and the default DBMS message is
// rendered from Error.Error().
const (
	CodeSyntax           = "42601" // syntax error
	CodeUndefinedTable   = "42P01" // table does not exist
	CodeDuplicateTable   = "42P07" // table already exists
	CodeUndefinedColumn  = "42703" // column does not exist
	CodeUndefinedIndex   = "42704" // index does not exist
	CodeDuplicateIndex   = "42710" // index already exists
	CodeAmbiguousColumn  = "42702" // column reference is ambiguous
	CodeDatatypeMismatch = "42804" // incompatible types
	CodeUniqueViolation  = "23505" // unique constraint violated
	CodeNotNullViolation = "23502" // NOT NULL constraint violated
	CodeDivisionByZero   = "22012" // division by zero
	CodeNumericRange     = "22003" // numeric value out of range
	CodeInvalidText      = "22P02" // invalid text representation
	CodeWrongArity       = "42883" // wrong number of function arguments
	CodeInvalidTxnState  = "25000" // invalid transaction state
	CodeSerialization    = "40001" // serialization failure (retryable)
	CodeInternal         = "XX000" // internal error
	CodeCardinality      = "21000" // cardinality violation
	CodeFeature          = "0A000" // feature not supported
	CodeTooComplex       = "54001" // statement too complex
	CodeParamCount       = "07001" // fewer arguments than ? parameters

	// CodeUndefinedFunction is a function the engine does not have:
	// PostgreSQL's undefined_function, whose code a wrong number of
	// arguments answers too.
	CodeUndefinedFunction = CodeWrongArity
)

// Error is the typed error returned by all engine operations.
type Error struct {
	Code    string // SQLSTATE-style code
	Message string // human-readable message

	// Off is the 1-based byte offset near the failure in the statement
	// source, when known (0 means unknown). Parse entry points set it to
	// the position of the token the parser stopped at, and a name that
	// does not bind carries the position of the node that names it, so
	// static tooling can attribute findings to an exact location. A
	// statement from the parse cache carries the positions of the text that
	// first parsed its shape. It is not part of the rendered message.
	Off int
}

// Error implements the error interface. The rendering mimics the classic
// "SQLSTATE=nnnnn" suffix of DB2 diagnostics, which the macro engine
// prints as the default DBMS error message (Section 4.2, step 3).
func (e *Error) Error() string {
	return fmt.Sprintf("%s SQLSTATE=%s", e.Message, e.Code)
}

// SQLState returns the SQLSTATE code; the macro engine's %SQL_MESSAGE
// handlers match on it.
func (e *Error) SQLState() string { return e.Code }

func errSyntax(format string, args ...any) *Error {
	return &Error{Code: CodeSyntax, Message: fmt.Sprintf(format, args...)}
}

func errInternal(msg string) *Error {
	return &Error{Code: CodeInternal, Message: msg}
}

func errUndefinedTable(name string) *Error {
	return &Error{Code: CodeUndefinedTable,
		Message: fmt.Sprintf("table %q does not exist", name)}
}

func errUndefinedColumn(name string) *Error {
	return &Error{Code: CodeUndefinedColumn,
		Message: fmt.Sprintf("column %q does not exist", name)}
}

// stampOff stamps err, when it is an engine error without a position,
// with off, the 0-based source offset of the node the error is about.
func stampOff(err error, off int) error {
	if e, ok := err.(*Error); ok && e.Off == 0 {
		e.Off = off + 1
	}
	return err
}

// errConflict builds a serialization-failure error: a first-committer-wins
// write-write conflict under snapshot isolation. Safe to retry the whole
// transaction against a fresh snapshot.
func errConflict(msg string) *Error {
	return &Error{Code: CodeSerialization, Message: msg + "; retry transaction"}
}

// IsSerializationFailure reports whether err is (or wraps) a retryable
// serialization failure (SQLSTATE 40001). Clients should rerun the whole
// transaction on a fresh snapshot.
func IsSerializationFailure(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == CodeSerialization
}
