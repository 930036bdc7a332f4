// Package core implements the paper's primary contribution: the DB2 WWW
// Connection macro language and its run-time engine, built around a
// cross-language variable substitution mechanism bridging HTML and SQL.
//
// A macro file contains four kinds of sections (paper Section 3):
//
//	%DEFINE{ ... %}      variable definitions (simple, conditional,
//	                     %LIST)
//	%SQL [(name)] { ... %}   one SQL command, with optional
//	                     %SQL_REPORT{ ... %ROW{ ... %} ... %} and
//	                     %SQL_MESSAGE{ ... %} blocks
//	%HTML_INPUT{ ... %}  the fill-in form (input mode output)
//	%HTML_REPORT{ ... %} the report page, containing %EXEC_SQL
//	                     directives (report mode output)
//
// Inside any section, $(name) substitutes a variable's run-time value and
// $$(name) escapes to a literal $(name). Variables are lazily evaluated:
// a value string is not expanded until the variable is dereferenced in an
// HTML input or report section (Section 4.3.1). Undefined variables
// substitute as the empty string; definedness and the empty string are
// indistinguishable (Section 2.2).
package core

import "fmt"

// Macro is a parsed macro file. Sections retain their order of appearance
// because the engine processes a macro strictly from top to bottom: a
// DEFINE section after the HTML input section is invisible to it — the
// paper's One/Two/Three lazy-evaluation example depends on this.
type Macro struct {
	Name     string // file name, for diagnostics
	Sections []Section

	// Source is the original macro text (kept for the developer-tooling
	// pipeline: linting and section extraction, experiment E5).
	Source string

	// vars is the most variables a run of the macro has recorded on its
	// request's record, read and written atomically: a run's record makes
	// room for as many at once. The record holds at most 128.
	vars int32
}

// Section is one top-level macro section.
type Section interface{ section() }

// DefineSection is a %DEFINE section: one or more define statements.
type DefineSection struct {
	Stmts []DefineStmt
	Line  int

	// defs is the variables as they stand after this section, which Parse
	// builds on base, the table of the %DEFINE sections before it.
	defs, base *defTable
}

// DefineKind discriminates the four define-statement forms of
// Section 3.1.
type DefineKind int

// Define-statement kinds.
const (
	DefSimple   DefineKind = iota // var = "value"
	DefCondTest                   // var = testvar ? "v1" : "v2"
	DefCondSelf                   // var = ? "value"  (null if value has null refs)
	DefList                       // %LIST "sep" var
)

// DefineStmt is one statement inside a %DEFINE section.
type DefineStmt struct {
	Kind    DefineKind
	Name    string
	Value   string // value template (v1 for DefCondTest)
	Value2  string // v2 for DefCondTest (empty when no ':' arm)
	HasElse bool   // whether the ':' arm was present
	TestVar string // for DefCondTest
	Sep     string // separator template for DefList
	Line    int

	// Compiled forms of Value, Value2 and Sep (see Template); Parse fills
	// them in, ApplyDefine does for hand-built statements.
	value, value2, sep *Template
}

// SQLSection is a %SQL section: exactly one SQL command plus optional
// report and message blocks.
type SQLSection struct {
	SectName string // "" for unnamed sections
	Command  string // SQL command template (variables unexpanded)
	Report   *ReportBlock
	Message  *MessageBlock
	Line     int
	// CmdLine is the source line where the (whitespace-trimmed) command
	// text begins — diagnostics inside the command are offset from here.
	CmdLine int

	command *Template // Command, compiled
}

// ReportBlock is a %SQL_REPORT block: HTML before the %ROW block (the
// report header), the %ROW template printed once per fetched row, and
// HTML after it (the report footer).
type ReportBlock struct {
	Header string
	Row    string
	HasRow bool // a report block may omit %ROW entirely
	Footer string
	Line   int

	header, row, footer *Template // Header, Row and Footer, compiled
}

// MessageBlock is a %SQL_MESSAGE block: a list of handlers keyed by
// SQLSTATE (or "+100" for the no-rows condition, or "default").
type MessageBlock struct {
	Entries []MessageEntry
	Line    int
}

// MessageEntry is one message handler. Text is an HTML template;
// Exit controls whether report processing stops after printing it.
type MessageEntry struct {
	Code string // SQLSTATE, "+100", or "default"
	Text string
	Exit bool
	Line int

	text *Template // Text, compiled
}

// HTMLSection is an %HTML_INPUT or %HTML_REPORT section. The body is a
// sequence of literal-template chunks and (for report sections) %EXEC_SQL
// directives, in source order.
type HTMLSection struct {
	Report bool // false: %HTML_INPUT, true: %HTML_REPORT
	Items  []HTMLItem
	Line   int
}

// HTMLItem is a text chunk, an %EXEC_SQL directive, or an %IF block.
type HTMLItem struct {
	Text    string // literal template text (when ExecSQL is false and Cond is nil)
	ExecSQL bool
	SQLName string // section-name template; "" executes all unnamed sections
	Cond    *CondBlock
	Line    int

	text, sqlName *Template // Text and SQLName, compiled
}

// CondBlock is an %IF(...) ... %ELIF(...) ... %ELSE ... %ENDIF block — an
// extension taken from Net.Data, the system's direct successor, giving
// macros conditional page regions (and conditionally executed SQL)
// without the conditional-variable indirection.
type CondBlock struct {
	Arms []CondArm  // the %IF arm followed by any %ELIF arms
	Else []HTMLItem // the %ELSE body; nil when absent
	Line int
}

// CondArm is one condition plus its body. Op is one of ==, !=, <, <=, >,
// >=, or empty for a truthiness test of Left (non-null after expansion).
// Left and Right are value templates, expanded at render time; comparison
// is numeric when both sides parse as numbers, else string.
type CondArm struct {
	Left  string
	Op    string
	Right string
	Items []HTMLItem
	Line  int

	left, right *Template // Left and Right, compiled
}

// CommentSection is a %{ ... %} comment block, preserved for tooling.
type CommentSection struct {
	Text string
	Line int
}

func (*DefineSection) section()  {}
func (*SQLSection) section()     {}
func (*HTMLSection) section()    {}
func (*CommentSection) section() {}

// HTMLInput returns the macro's %HTML_INPUT section, or nil.
func (m *Macro) HTMLInput() *HTMLSection {
	for _, s := range m.Sections {
		if h, ok := s.(*HTMLSection); ok && !h.Report {
			return h
		}
	}
	return nil
}

// HTMLReport returns the macro's %HTML_REPORT section, or nil.
func (m *Macro) HTMLReport() *HTMLSection {
	for _, s := range m.Sections {
		if h, ok := s.(*HTMLSection); ok && h.Report {
			return h
		}
	}
	return nil
}

// SQLSections returns all SQL sections in order of appearance.
func (m *Macro) SQLSections() []*SQLSection {
	var out []*SQLSection
	for _, s := range m.Sections {
		if q, ok := s.(*SQLSection); ok {
			out = append(out, q)
		}
	}
	return out
}

// NamedSQL returns the SQL section with the given name (case-sensitive,
// like all user variable and section names), or nil.
func (m *Macro) NamedSQL(name string) *SQLSection {
	for _, s := range m.Sections {
		if q, ok := s.(*SQLSection); ok && q.SectName == name {
			return q
		}
	}
	return nil
}

// Error is a macro-language error with source position.
type Error struct {
	Macro string
	Line  int
	Msg   string
	// Input says the request supplied what failed: a value a form field
	// (or a name nothing defines, which only the request could bind)
	// answered, or a dereference chain with a form field on it. The gateway
	// answers it with 400; any other error is the macro's own, a 500.
	Input bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Macro == "" {
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("%s:%d: %s", e.Macro, e.Line, e.Msg)
}

func errAt(macro string, line int, format string, args ...any) *Error {
	return &Error{Macro: macro, Line: line, Msg: fmt.Sprintf(format, args...)}
}
