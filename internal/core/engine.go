package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/decimal"
	"db2www/internal/obs"
)

// Mode selects which half of a macro the engine processes — the {cmd}
// component of the DB2WWW URL (Section 4).
type Mode int

// Processing modes.
const (
	ModeInput  Mode = iota // emit the %HTML_INPUT section
	ModeReport             // emit the %HTML_REPORT section, executing SQL
)

// ParseMode maps the URL command string onto a Mode.
func ParseMode(cmd string) (Mode, error) {
	switch strings.ToLower(cmd) {
	case "input":
		return ModeInput, nil
	case "report":
		return ModeReport, nil
	default:
		return 0, fmt.Errorf("core: unknown command %q (want input or report)", cmd)
	}
}

// String returns the URL command spelling of the mode.
func (m Mode) String() string {
	if m == ModeInput {
		return "input"
	}
	return "report"
}

// TxnMode selects the transaction behaviour of report processing
// (Section 5): one transaction per SQL statement, or the whole macro as a
// single transaction rolled back if any statement fails.
type TxnMode int

// Transaction modes.
const (
	TxnAutoCommit TxnMode = iota
	TxnSingle
)

// Field is one column value in a SQL result row. Null distinguishes SQL
// NULL from the empty string for the engine's conditional variables
// (both substitute as the null string, but results keep the fact).
type Field struct {
	S    string
	Null bool
}

// SQLResult is the engine-facing shape of a statement result. A result
// may be shared between concurrent macro runs (a caching DBConn returns
// the same materialised result to every identical query), so the engine
// and report renderers treat it as immutable after Execute returns — all
// but its render memo: the %ROW block the second rendering of one result
// printed, set whole with one atomic store and read the same way
// (printRowBlock). Only a cache renders a result twice, so only a cached
// result carries one, and it lives and dies with the cache's entry.
type SQLResult struct {
	Columns      []string
	Rows         [][]Field
	RowsAffected int64

	renders atomic.Uint32 // renderings that could have been served from a memo
	memo    atomic.Pointer[rowMemo]
}

// MemoBytes is the size of the render memo the result carries, 0 without
// one. The query result cache charges it to the entry's byte budget.
func (r *SQLResult) MemoBytes() int {
	m := r.memo.Load()
	if m == nil {
		return 0
	}
	return 64 + cap(m.rows) + 8*len(m.wraps) + 64*len(m.vars)
}

// SizeBytes estimates the in-memory footprint of the result: slice and
// struct bookkeeping plus every string payload. The query result cache
// charges entries against its byte budget with it.
func (r *SQLResult) SizeBytes() int {
	n := 64
	for _, c := range r.Columns {
		n += 16 + len(c)
	}
	for _, row := range r.Rows {
		n += 24
		for _, f := range row {
			n += 24 + len(f.S)
		}
	}
	return n
}

// SQLStater is implemented by DBMS errors that carry a SQLSTATE code;
// the %SQL_MESSAGE machinery matches on it.
type SQLStater interface{ SQLState() string }

// DBConn is one database connection used while processing a macro.
// Execute may return a result shared with other callers (see SQLResult);
// implementations and callers alike must not mutate a returned result —
// the engine's render memo, set once atomically, is the one exception.
type DBConn interface {
	Execute(sql string) (*SQLResult, error)
	Begin() error
	Commit() error
	Rollback() error
	Close() error
}

// ContextDBConn is an optional extension of DBConn: connections that
// implement it receive the request context on every statement, carrying
// the request trace and the statement's obs.SQLExec entry (where the
// query cache and the database say how they handled it). The engine
// falls back to Execute on connections that do not.
type ContextDBConn interface {
	ExecuteContext(ctx context.Context, sql string) (*SQLResult, error)
}

// DBProvider opens connections. The engine dereferences the macro
// variables DATABASE, LOGIN, and PASSWORD (Section 3.1.1's "variables
// necessary for database access") and passes them here.
type DBProvider interface {
	Connect(database, login, password string) (DBConn, error)
}

// Engine processes parsed macros. The zero value is not usable; fill in
// DB (and Commands if macros use %EXEC).
type Engine struct {
	// DB provides database connections for %EXEC_SQL processing.
	DB DBProvider
	// Commands executes %EXEC variables. Nil disables %EXEC.
	Commands *CommandRegistry
	// Txn selects auto-commit (default) or single-transaction processing.
	Txn TxnMode
	// MaxRows, when positive, caps the rows printed by any report unless
	// the macro sets RPT_MAXROWS itself.
	MaxRows int
	// ShowSQLVar names the input variable that, when non-null, makes the
	// engine echo each executed SQL statement into the report. Defaults
	// to "SHOWSQL" (the paper's example forms use that name).
	ShowSQLVar string
}

// mSQLExec is each %SQL section's execution latency, by section name.
var mSQLExec = obs.Default.HistogramVec("db2www_sql_exec_seconds",
	"macro %SQL section execution latency (substitution excluded)", nil, "section")

// errStopReport is a sentinel: a %SQL_MESSAGE entry with the exit
// disposition stops report processing without failing the page.
var errStopReport = fmt.Errorf("core: report processing stopped by message handler")

// SharedWriter is a page writer that can take a run of the page by
// reference: p is immutable — nobody modifies it, ever — so the writer may
// keep it in place of a copy for as long as it holds the page. The engine
// hands a report's memoised %ROW block (printRowBlock) to a writer that
// offers this, and Writes the same bytes to every other.
type SharedWriter interface {
	WriteShared(p []byte) (n int, err error)
}

// Run processes macro m in the given mode: it evaluates sections from top
// to bottom, writes the generated page body to w, and executes SQL for
// %EXEC_SQL directives in report mode. inputs carries the HTML input
// variables from the CGI layer (may be nil).
func (e *Engine) Run(m *Macro, mode Mode, inputs *cgi.Form, w io.Writer) error {
	return e.RunContext(context.Background(), m, mode, inputs, w)
}

// RunContext is Run with a request context: the gateway threads the
// per-request trace (and cancellation, for connections that honour it)
// through here, so every macro phase — variable evaluation, each %SQL
// section's execution, report rendering — lands as a timed span on the
// request's trace.
func (e *Engine) RunContext(ctx context.Context, m *Macro, mode Mode, inputs *cgi.Form, w io.Writer) error {
	if ctx == nil {
		ctx = context.Background()
	}
	vt := NewVarTable(m.Name, inputs)
	vt.engine = e
	vt.trace = obs.TraceFrom(ctx)
	vt.trace.ReserveVars(int(atomic.LoadInt32(&m.vars)))
	run := &macroRun{engine: e, macro: m, vt: vt, out: w, ctx: ctx, trace: vt.trace}
	defer run.cleanup()
	if vt.trace != nil {
		defer func() {
			n := int32(len(vt.trace.Vars))
			for seen := atomic.LoadInt32(&m.vars); n > seen; seen = atomic.LoadInt32(&m.vars) {
				if atomic.CompareAndSwapInt32(&m.vars, seen, n) {
					break
				}
			}
		}()
	}

	for _, sec := range m.Sections {
		switch s := sec.(type) {
		case *DefineSection:
			vt.ApplyDefine(s)
		case *HTMLSection:
			if s.Report != (mode == ModeReport) {
				continue
			}
			if err := run.renderHTML(s, mode); err != nil {
				if err == errStopReport {
					return run.finish(true)
				}
				_ = run.abort()
				return err
			}
		case *SQLSection, *CommentSection:
			// SQL sections execute only via %EXEC_SQL; comments are
			// documentation.
		}
	}
	return run.finish(true)
}

// macroRun is the per-invocation state: the lazily opened connection and
// transaction progress.
type macroRun struct {
	engine   *Engine
	macro    *Macro
	vt       *VarTable
	out      io.Writer
	ctx      context.Context
	trace    *obs.Trace
	conn     DBConn
	txnOpen  bool
	finished bool
	// buf is the scratch every template of the run is expanded into before
	// it is written to out or made a string; a report reuses it row after
	// row.
	buf []byte
}

// expand expands t in the run's scratch buffer and returns the text: one
// allocation of its length, however the expansion grew.
func (r *macroRun) expand(t *Template) (string, error) {
	if s, ok := t.literal(); ok {
		return s, nil
	}
	if n := t.sizeHint(); cap(r.buf) < n {
		r.buf = make([]byte, 0, n) // rather than grow it step by step
	}
	var err error
	if r.buf, err = r.vt.appendTemplate(r.buf[:0], t); err != nil {
		return "", err
	}
	return string(r.buf), nil
}

// lookup evaluates a variable by name as VarTable.Lookup does, in the
// run's scratch buffer.
func (r *macroRun) lookup(name string) (string, error) {
	var err error
	if r.buf, err = r.vt.appendVar(r.buf[:0], name); err != nil {
		return "", err
	}
	return string(r.buf), nil
}

// emit expands t and writes the text to the page.
func (r *macroRun) emit(t *Template) error {
	var err error
	if r.buf, err = r.vt.appendTemplate(r.buf[:0], t); err != nil {
		return err
	}
	_, err = r.out.Write(r.buf)
	return err
}

func (r *macroRun) cleanup() {
	if !r.finished && r.conn != nil {
		if r.txnOpen {
			_ = r.conn.Rollback()
		}
		_ = r.conn.Close()
	}
}

// finish commits (single-transaction mode) and closes the connection.
func (r *macroRun) finish(commit bool) error {
	r.finished = true
	if r.conn == nil {
		return nil
	}
	defer r.conn.Close()
	if r.txnOpen {
		r.txnOpen = false
		if commit {
			return r.conn.Commit()
		}
		return r.conn.Rollback()
	}
	return nil
}

// abort rolls back and closes.
func (r *macroRun) abort() error {
	r.finished = true
	if r.conn == nil {
		return nil
	}
	defer r.conn.Close()
	if r.txnOpen {
		r.txnOpen = false
		return r.conn.Rollback()
	}
	return nil
}

// connect opens the connection on first use, dereferencing the DATABASE,
// LOGIN, and PASSWORD variables at that moment (they may be set by any
// DEFINE section processed so far, or by hidden input fields).
func (r *macroRun) connect() (DBConn, error) {
	if r.conn != nil {
		return r.conn, nil
	}
	if r.engine.DB == nil {
		return nil, errAt(r.macro.Name, 0, "macro executes SQL but the engine has no DBProvider")
	}
	dbName, err := r.lookup("DATABASE")
	if err != nil {
		return nil, err
	}
	login, err := r.lookup("LOGIN")
	if err != nil {
		return nil, err
	}
	password, err := r.lookup("PASSWORD")
	if err != nil {
		return nil, err
	}
	conn, err := r.engine.DB.Connect(dbName, login, password)
	if err != nil {
		return nil, err
	}
	r.conn = conn
	if r.engine.Txn == TxnSingle {
		if err := conn.Begin(); err != nil {
			return nil, err
		}
		r.txnOpen = true
	}
	return conn, nil
}

// renderHTML renders an HTML section: text chunks are expanded and
// written in place; %EXEC_SQL directives execute SQL sections and splice
// their output at the directive's position (Section 4.2); %IF blocks
// render exactly one arm.
func (r *macroRun) renderHTML(s *HTMLSection, mode Mode) error {
	return r.renderItems(s.Items, mode)
}

func (r *macroRun) renderItems(items []HTMLItem, mode Mode) error {
	for _, item := range items {
		switch {
		case item.Cond != nil:
			if err := r.renderCond(item.Cond, mode); err != nil {
				return err
			}
		case item.ExecSQL:
			if mode != ModeReport {
				continue
			}
			if err := r.execDirective(item); err != nil {
				return err
			}
		default:
			if err := r.emit(item.text); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderCond evaluates the arms of an %IF block in order and renders the
// first true one (or the %ELSE body).
func (r *macroRun) renderCond(cb *CondBlock, mode Mode) error {
	for _, arm := range cb.Arms {
		ok, err := r.evalCondition(arm)
		if err != nil {
			return err
		}
		if ok {
			return r.renderItems(arm.Items, mode)
		}
	}
	if cb.Else != nil {
		return r.renderItems(cb.Else, mode)
	}
	return nil
}

// evalCondition expands and compares one %IF arm. Without an operator
// the condition is true when the expanded value is non-null; with one,
// the sides compare numerically when both are finite decimal numbers
// (decimal), else as strings.
func (r *macroRun) evalCondition(arm CondArm) (bool, error) {
	left, err := r.expand(arm.left)
	if err != nil {
		return false, err
	}
	if arm.Op == "" {
		return left != "", nil
	}
	right, err := r.expand(arm.right)
	if err != nil {
		return false, err
	}
	var cmp int
	lf, lok := decimal.Parse(left)
	rf, rok := decimal.Parse(right)
	if lok && rok {
		switch {
		case lf < rf:
			cmp = -1
		case lf > rf:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(left, right)
	}
	switch arm.Op {
	case "==":
		return cmp == 0, nil
	case "!=":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, errAt(r.macro.Name, arm.Line, "unknown %%IF operator %q", arm.Op)
}

// execDirective resolves which SQL sections a %EXEC_SQL directive runs:
// a named directive runs exactly the named section (the name may be a
// variable reference, enabling user-selected commands); an unnamed
// directive runs every unnamed SQL section in macro order.
func (r *macroRun) execDirective(item HTMLItem) error {
	if item.SQLName != "" {
		reads := r.vt.requestReads
		name, err := r.expand(item.sqlName)
		if err != nil {
			return err
		}
		sec := r.macro.NamedSQL(name)
		if sec == nil {
			return r.valueErr(reads, item.Line, "%%EXEC_SQL(%s): no SQL section named %q", item.SQLName, name)
		}
		return r.execSQLSection(sec)
	}
	ran := false
	for _, sec := range r.macro.SQLSections() {
		if sec.SectName != "" {
			continue
		}
		ran = true
		if err := r.execSQLSection(sec); err != nil {
			return err
		}
	}
	if !ran {
		return errAt(r.macro.Name, item.Line, "%%EXEC_SQL: macro has no unnamed SQL sections")
	}
	return nil
}

// execSQLSection performs Section 4.2's three steps for one SQL section:
// build the SQL string by substitution, execute it, and render the result
// through the custom or default report format — or the message handler on
// error. Each step is a timed span on the request trace, and the
// execution latency feeds the per-section /metrics histogram.
func (r *macroRun) execSQLSection(sec *SQLSection) error {
	secName := sec.SectName
	if secName == "" {
		secName = "(unnamed)"
	}
	evalSpan := r.trace.Start(obs.SpanVarEval, secName)
	sqlStr, err := r.expand(sec.command)
	evalSpan.End()
	if err != nil {
		return err
	}
	if err := r.maybeShowSQL(sqlStr); err != nil {
		return err
	}
	conn, err := r.connect()
	if err != nil {
		return err
	}
	timed := obs.Enabled() || r.trace != nil
	var start time.Time
	if timed {
		start = time.Now()
	}
	stmt := r.trace.StartSQL(secName, sqlStr)
	res, execErr := r.executeStatement(conn, sqlStr, stmt)
	var elapsed time.Duration
	if timed {
		elapsed = time.Since(start)
	}
	if obs.Enabled() {
		mSQLExec.Histogram(secName).Observe(elapsed.Seconds())
	}
	if execErr != nil {
		r.trace.EndSQL(stmt, start, elapsed, 0, execErr)
		return r.handleSQLError(sec, sqlStr, execErr)
	}
	r.trace.EndSQL(stmt, start, elapsed, len(res.Rows), nil)
	// The no-rows condition: DB2 reports SQLCODE +100; a message entry
	// keyed "+100" customises it.
	if len(res.Columns) > 0 && len(res.Rows) == 0 {
		if entry := findMessage(sec.Message, "+100"); entry != nil {
			return r.emitMessage(entry, "+100", "no rows satisfy the query")
		}
	}
	renderSpan := r.trace.Start(obs.SpanReportRender, secName)
	err = r.renderResult(sec, res, stmt)
	renderSpan.End()
	return err
}

// executeStatement dispatches to the context-aware execution path when
// the connection supports it, threading the trace and the statement's
// entry on it (nil when the request is not traced) down to the cache and
// database layers.
func (r *macroRun) executeStatement(conn DBConn, sqlStr string, stmt *obs.SQLExec) (*SQLResult, error) {
	if cc, ok := conn.(ContextDBConn); ok {
		ctx := r.ctx
		if stmt != nil {
			ctx = obs.WithSQLExec(ctx, stmt)
		}
		return cc.ExecuteContext(ctx, sqlStr)
	}
	return conn.Execute(sqlStr)
}

// maybeShowSQL echoes the SQL statement when the show-SQL input variable
// is set (the SHOWSQL radio button of Figures 2 and 7).
func (r *macroRun) maybeShowSQL(sqlStr string) error {
	name := r.engine.ShowSQLVar
	if name == "" {
		name = "SHOWSQL"
	}
	v, err := r.lookup(name)
	if err != nil {
		return err
	}
	if v == "" {
		return nil
	}
	_, err = fmt.Fprintf(r.out, "<P><B>SQL statement:</B><BR><TT>%s</TT></P>\n", escapeHTML(sqlStr))
	return err
}

// handleSQLError prints the matching %SQL_MESSAGE entry, or the DBMS
// message when none matches. In single-transaction mode any SQL error
// aborts the macro's transaction (Section 5).
func (r *macroRun) handleSQLError(sec *SQLSection, sqlStr string, execErr error) error {
	state := ""
	var st SQLStater
	if errors.As(execErr, &st) {
		state = st.SQLState()
	}
	entry := findMessage(sec.Message, state)
	if entry == nil {
		entry = findMessage(sec.Message, "default")
	}
	if r.engine.Txn == TxnSingle {
		// Print the message (custom or default), then stop and roll back.
		if entry != nil {
			if err := r.emitMessage(entry, state, execErr.Error()); err != nil && err != errStopReport {
				return err
			}
		} else if err := r.emitDefaultError(execErr); err != nil {
			return err
		}
		if err := r.finish(false); err != nil {
			return err
		}
		return errStopReport
	}
	if entry != nil {
		return r.emitMessage(entry, state, execErr.Error())
	}
	return r.emitDefaultError(execErr)
}

func (r *macroRun) emitDefaultError(execErr error) error {
	// With a live trace, the page carries the trace ID so a user report
	// ("my query failed, the page said trace 4f2a…") correlates with the
	// server's logs and the /server-status trace ring.
	if r.trace != nil && r.trace.ID != "" {
		_, err := fmt.Fprintf(r.out, "<P><B>SQL error:</B> %s <SMALL>(trace %s)</SMALL></P>\n",
			escapeHTML(execErr.Error()), escapeHTML(r.trace.ID))
		return err
	}
	_, err := fmt.Fprintf(r.out, "<P><B>SQL error:</B> %s</P>\n", escapeHTML(execErr.Error()))
	return err
}

// emitMessage expands and prints one message entry, with SQL_STATE and
// SQL_MESSAGE bound in a system scope (plus TRACE_ID when the request is
// traced, so custom error pages can echo it), and honours its
// disposition.
func (r *macroRun) emitMessage(entry *MessageEntry, state, dbmsMsg string) error {
	vars := mapScope{"SQL_STATE": state, "SQL_MESSAGE": dbmsMsg}
	if r.trace != nil && r.trace.ID != "" {
		vars["TRACE_ID"] = r.trace.ID
	}
	r.vt.pushScope(vars)
	err := r.emit(entry.text)
	r.vt.popScope()
	if err != nil {
		return err
	}
	if _, err := io.WriteString(r.out, "\n"); err != nil {
		return err
	}
	if entry.Exit {
		return errStopReport
	}
	return nil
}

func findMessage(mb *MessageBlock, code string) *MessageEntry {
	if mb == nil || code == "" {
		return nil
	}
	for i := range mb.Entries {
		if mb.Entries[i].Code == code {
			return &mb.Entries[i]
		}
	}
	return nil
}

// maxRows resolves the row cap for report printing: the macro's
// RPT_MAXROWS variable wins; otherwise the engine default; 0 means
// unlimited.
func (r *macroRun) maxRows() (int, error) {
	reads := r.vt.requestReads
	v, err := r.lookup("RPT_MAXROWS")
	if err != nil {
		return 0, err
	}
	if v != "" {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 0 {
			return 0, r.valueErr(reads, 0, "RPT_MAXROWS is %q, want a non-negative integer", v)
		}
		return n, nil
	}
	return r.engine.MaxRows, nil
}

// startRow resolves the 1-based first row to print from the macro's
// RPT_STARTROW variable — the scrollable-cursor mechanism Section 4.3.2
// says the substitution scheme enables: a macro carries the position in
// a hidden field and re-issues the query for the next page.
func (r *macroRun) startRow() (int, error) {
	reads := r.vt.requestReads
	v, err := r.lookup("RPT_STARTROW")
	if err != nil {
		return 1, err
	}
	if v == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 1 {
		return 1, r.valueErr(reads, 0, "RPT_STARTROW is %q, want a positive integer", v)
	}
	return n, nil
}

// valueErr is the error of a value the variable table evaluated and the
// engine then refused: the request's when the request answered one of the
// dereferences made since the table counted reads.
func (r *macroRun) valueErr(reads, line int, format string, args ...any) *Error {
	e := errAt(r.macro.Name, line, format, args...)
	e.Input = r.vt.requestReads > reads
	return e
}

// renderResult renders a statement result through the custom
// %SQL_REPORT block when present, else the default table format
// (Section 3.4). stmt is the statement's entry on the request's record (nil
// when the request is not traced).
func (r *macroRun) renderResult(sec *SQLSection, res *SQLResult, stmt *obs.SQLExec) error {
	if len(res.Columns) == 0 {
		// Non-SELECT statement: the default report notes the row count;
		// a custom report block (if any) is rendered with no rows.
		if sec.Report == nil {
			_, err := fmt.Fprintf(r.out, "<P>%d row(s) affected.</P>\n", res.RowsAffected)
			return err
		}
	}
	if sec.Report != nil {
		return r.renderCustom(sec.Report, res, stmt)
	}
	return r.renderDefaultTable(res)
}

// rowScope is the report scope of Section 3.2.1, answered on demand from
// the result instead of being copied into a table per row: Ni, N.column
// and NLIST for the whole report; Vi, V.column, VLIST and ROW_NUM for the
// row being printed. Column-name variables match case-insensitively.
type rowScope struct {
	cols  []string
	lower []string // cols, lower-cased at the first lookup by name
	inRow bool     // inside the %ROW block: row is the fetched row
	row   []Field
	// rowNum is ROW_NUM: the row being printed, then the total; -1 while
	// the report header leaves it unbound.
	rowNum int
	// bound holds what bind resolved each part of the %ROW template to.
	bound []rowRef
}

// rowRef is a reference resolved once per report instead of once per row.
type rowRef struct {
	// col is the column ordinal a Vi / V.column reference reads, else -1.
	col int32
	// null is set for a Vi / V.column reference to a column the result does
	// not have, which nothing else answers either: the null string on every
	// row, as an undefined name is.
	null bool
	// wrap is set for a reference to a %DEFINE variable that only wraps row
	// columns in text (Appendix A's D2 = ? "<br>$(V2)"): the assignment it
	// evaluates to, with the columns of its value's parts in inner.
	wrap  *DefineStmt
	inner []rowRef
}

// unbound is the rowRef of a reference evaluated by name.
var unbound = rowRef{col: -1}

func newRowScope(cols []string) *rowScope {
	return &rowScope{cols: cols, rowNum: -1}
}

// columns resolves the references among parts to a column the result has,
// or to null when they address one it does not have and vt can tell nothing
// else answers them (a row of another width than the header is evaluated
// unbound).
func (s *rowScope) columns(vt *VarTable, parts []part) []rowRef {
	refs := make([]rowRef, len(parts))
	for k := range parts {
		refs[k].col = -1
		p := &parts[k]
		if !p.ref || p.dyn != nil || !strings.HasPrefix(p.name, "V") {
			continue
		}
		if col := s.ordinal(p.name); col >= 0 && col < len(s.cols) {
			refs[k].col = int32(col)
		} else if _, _, ok := ReportColumn(p.name); ok && vt.table.defs[p.name] == nil && !vt.outranked(p.name) {
			refs[k].null = true
		}
	}
	return refs
}

// bind resolves the %ROW template's references: its own row variables, and
// the variables vt can tell now to be wrappers of row variables on every
// row. All others are evaluated by name, row after row.
func (s *rowScope) bind(vt *VarTable, parts []part) {
	s.bound = s.columns(vt, parts)
	for k := range parts {
		if b, p := &s.bound[k], &parts[k]; p.ref && p.dyn == nil && b.col < 0 && !b.null {
			b.wrap, b.inner = vt.rowWrapper(p.name, s)
		}
	}
}

// resolved reports whether b reads no variable by name.
func (b *rowRef) resolved() bool { return b.col >= 0 || b.null || b.wrap != nil }

// allBound reports whether bind resolved every reference among parts.
func (s *rowScope) allBound(parts []part) bool {
	for k := range parts {
		if parts[k].ref && !s.bound[k].resolved() {
			return false
		}
	}
	return true
}

// uniform reports whether every row is as wide as the header, so that the
// bound references read every row.
func (s *rowScope) uniform(rows [][]Field) bool {
	for _, row := range rows {
		if len(row) != len(s.cols) {
			return false
		}
	}
	return true
}

// ordinal maps a report variable that addresses a column (ReportColumn) to
// the column's 0-based ordinal, or -1. Of two columns with one name the
// later wins.
func (s *rowScope) ordinal(name string) int {
	n, col, ok := ReportColumn(name)
	switch {
	case !ok:
		return -1
	case n > 0:
		return n - 1
	}
	if s.lower == nil {
		s.lower = make([]string, len(s.cols))
		for i, c := range s.cols {
			s.lower[i] = strings.ToLower(c)
		}
	}
	want := strings.ToLower(col)
	for i := len(s.lower) - 1; i >= 0; i-- {
		if s.lower[i] == want {
			return i
		}
	}
	return -1
}

func (s *rowScope) appendVar(buf []byte, name string) ([]byte, bool) {
	switch name {
	case "ROW_NUM":
		if s.rowNum < 0 {
			return buf, false
		}
		return strconv.AppendInt(buf, int64(s.rowNum), 10), true
	case "NLIST":
		for i, c := range s.cols {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = append(buf, c...)
		}
		return buf, true
	case "VLIST":
		if !s.inRow {
			return buf, false
		}
		for i, f := range s.row {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			if !f.Null {
				buf = append(buf, f.S...)
			}
		}
		return buf, true
	}
	i := s.ordinal(name)
	switch {
	case i < 0:
	case name[0] == 'N' && i < len(s.cols):
		return append(buf, s.cols[i]...), true
	case name[0] == 'V' && i < len(s.row):
		if f := &s.row[i]; !f.Null {
			buf = append(buf, f.S...)
		}
		return buf, true
	}
	return buf, false
}

// sizeHintRows is how many printed rows printRows measures before it sizes
// the page buffer for the rest of the report.
const sizeHintRows = 16

// printRows writes the rows of res that RPT_STARTROW (start) and the row cap
// (max) select: row builds each — it is given the scratch and the row's
// index — and the text goes to the page before the next one is built.
func (r *macroRun) printRows(res *SQLResult, start, max int, row func(buf []byte, i int) ([]byte, error)) error {
	toPrint := len(res.Rows) - min(start-1, len(res.Rows))
	if max > 0 {
		toPrint = min(toPrint, max)
	}
	written := 0
	for printed := 1; printed <= toPrint; printed++ {
		var err error
		if r.buf, err = row(r.buf[:0], start+printed-2); err != nil {
			return err
		}
		if _, err := r.out.Write(r.buf); err != nil {
			return err
		}
		// Once a few rows show what a row costs, reserve the rest of the
		// report in one step: a page buffer that grows row by row
		// reallocates several times the size of a large report.
		if written += len(r.buf); printed == sizeHintRows {
			if g, ok := r.out.(interface{ Grow(int) }); ok {
				g.Grow(written / printed * (toPrint - printed) * 5 / 4)
			}
		}
	}
	return nil
}

// renderCustom implements the %SQL_REPORT semantics of Section 3.2.1:
// header once (with N-variables bound), the %ROW template per fetched row
// (with V-variables and ROW_NUM bound), footer once (ROW_NUM = total).
func (r *macroRun) renderCustom(rb *ReportBlock, res *SQLResult, stmt *obs.SQLExec) error {
	max, err := r.maxRows()
	if err != nil {
		return err
	}
	rs := newRowScope(res.Columns)
	r.vt.pushScope(rs)
	defer r.vt.popScope()

	if err := r.emit(rb.header); err != nil {
		return err
	}
	start, err := r.startRow()
	if err != nil {
		return err
	}
	if rb.HasRow {
		// bind asks the scope which names it answers inside a row.
		rs.inRow, rs.rowNum = true, start
		rs.bind(r.vt, rb.row.parts)
		if err := r.printRowBlock(rb.row, res, rs, start, max, stmt); err != nil {
			return err
		}
		rs.inRow, rs.row = false, nil
	}
	// After all rows are processed ROW_NUM holds the total row count,
	// regardless of whether all rows were printed (Section 3.2.1).
	rs.rowNum = len(res.Rows)
	return r.emit(rb.footer)
}

// rowMemo is a %ROW block printed once over a result and kept on it: the
// bytes, what printing them left on the request's record, and the key
// they are a function of besides the result.
type rowMemo struct {
	row        *Template     // the %ROW template
	wraps      []*DefineStmt // the row wrapper bind chose for each part, nil for none
	start, max int           // RPT_STARTROW and the row cap
	rows       []byte
	vars       []obs.VarEval // the wrappers' dereferences
}

func (m *rowMemo) matches(row *Template, bound []rowRef, start, max int) bool {
	if m == nil || m.row != row || m.start != start || m.max != max {
		return false
	}
	for k := range bound {
		if m.wraps[k] != bound[k].wrap {
			return false
		}
	}
	return true
}

// printRowBlock prints the %ROW template over the rows start and max select.
// When bind resolved every reference of the template — to a column, to null
// or to a row wrapper — and every row is as wide as the header, the printed
// bytes depend on nothing but the result, the template, the wrappers, start
// and max. The null references need no place in the key: the result fixes
// which columns it lacks, and bind runs again on every rendering, so one
// under a request that posts or defines such a name binds it by name and
// prints row by row. The second rendering of one result (a cache's: nothing
// else renders a result twice) keeps them on it, once they printed without
// error, and every later rendering with the same key writes them in one
// piece and replays on the record what the rows' wrappers left there. The
// bytes never change once kept, so a SharedWriter takes them by reference,
// the filling rendering's included. A rendering under another key prints as
// usual and may replace the memo; a result rendered once pays one atomic add.
func (r *macroRun) printRowBlock(row *Template, res *SQLResult, rs *rowScope, start, max int, stmt *obs.SQLExec) error {
	printEach := func() error {
		return r.printRows(res, start, max, func(buf []byte, i int) ([]byte, error) {
			rs.row, rs.rowNum = res.Rows[i], i+1
			bound := rs.bound
			if len(rs.row) != len(rs.cols) {
				bound = nil
			}
			buf, _, err := r.vt.appendParts(buf, row.parts, bound, rs.row)
			return buf, err
		})
	}
	if !rs.allBound(row.parts) {
		return printEach()
	}
	m := res.memo.Load()
	fill := !m.matches(row, rs.bound, start, max)
	if fill {
		if res.renders.Add(1) < 2 || !rs.uniform(res.Rows) {
			return printEach()
		}
		m = &rowMemo{row: row, wraps: make([]*DefineStmt, len(rs.bound)), start: start, max: max}
		for k := range rs.bound {
			m.wraps[k] = rs.bound[k].wrap
		}
		// The rows are printed into the memo, and onto a record of their own.
		out, trace, w, rec := r.out, r.vt.trace, &bytes.Buffer{}, &obs.Trace{}
		r.out, r.vt.trace = w, rec
		err := printEach()
		r.out, r.vt.trace = out, trace
		if err != nil {
			return err
		}
		if rec.VarsDropped > 0 { // more wrappers than a record holds: no exact replay
			return printEach()
		}
		m.rows, m.vars = w.Bytes(), rec.Vars
	}
	for _, v := range m.vars {
		r.vt.trace.VarN(v.Name, int(v.MaxDepth), v.Source, v.Null, v.Count)
	}
	var err error
	if sw, ok := r.out.(SharedWriter); ok {
		_, err = sw.WriteShared(m.rows)
	} else {
		_, err = r.out.Write(m.rows)
	}
	if err != nil {
		return err
	}
	if fill {
		res.memo.Store(m)
	} else if stmt != nil {
		stmt.Render = "memo"
	}
	return nil
}

// renderDefaultTable prints the default report format: an HTML table with
// a header row of column names.
func (r *macroRun) renderDefaultTable(res *SQLResult) error {
	max, err := r.maxRows()
	if err != nil {
		return err
	}
	start, err := r.startRow()
	if err != nil {
		return err
	}
	r.buf = append(r.buf[:0], "<TABLE BORDER=1>\n<TR>"...)
	for _, c := range res.Columns {
		r.buf = append(appendHTML(append(r.buf, "<TH>"...), c), "</TH>"...)
	}
	if _, err := r.out.Write(append(r.buf, "</TR>\n"...)); err != nil {
		return err
	}
	err = r.printRows(res, start, max, func(buf []byte, i int) ([]byte, error) {
		buf = append(buf, "<TR>"...)
		for _, f := range res.Rows[i] {
			buf = append(buf, "<TD>"...)
			if !f.Null {
				buf = appendHTML(buf, f.S)
			}
			buf = append(buf, "</TD>"...)
		}
		return append(buf, "</TR>\n"...), nil
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(r.out, "</TABLE>\n")
	return err
}
