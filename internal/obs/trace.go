package obs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"time"
)

// Record bounds: a hostile or pathological macro cannot grow a request's
// record without limit. Beyond maxVars distinct variables, dereferences
// of further names are counted in vars_dropped; beyond maxSQL statements
// further entries are not kept (their spans still show they ran); a
// statement is kept up to maxSQLText bytes.
const (
	maxVars    = 128
	maxSQL     = 64
	maxSQLText = 500
)

// SpanKind names a timed phase of a request.
type SpanKind uint8

// The phases the gateway and the engine time.
const (
	SpanParse        SpanKind = iota // macro load: stat, read, parse, lint — or a cache hit
	SpanVarEval                      // a %SQL section's statement assembled by substitution
	SpanSQLExec                      // the statement executed
	SpanReportRender                 // its result rendered
)

func (k SpanKind) String() string {
	return [...]string{"parse", "var-eval", "sql-exec", "report-render"}[k]
}

// Span is one completed phase. Start is the offset from the trace's
// begin time, so a span list reads as a waterfall. A span holds what
// happened, not text: its name and note are put together by whoever
// prints it.
type Span struct {
	Kind    SpanKind
	Section string // the %SQL section; "" for the parse span
	Start   time.Duration
	Dur     time.Duration
	SQL     *SQLExec // SpanSQLExec: the statement it timed
}

// Name is the span's display name: "parse", "sql-exec:<section>".
func (s Span) Name() string {
	if s.Section == "" {
		return s.Kind.String()
	}
	return s.Kind.String() + ":" + s.Section
}

// SQLExec is one %SQL section execution: the section name, the
// fully-substituted statement, and how every layer below handled it.
// The engine opens it, and its address rides the statement's context so
// the query cache and the embedded engine fill in their part.
type SQLExec struct {
	Section   string `json:"section"`
	SQL       string `json:"sql"`
	Rows      int    `json:"rows"`
	DurMicros int64  `json:"dur_micros"`
	// Cache is the query-result cache's decision: hit, miss, refused (a
	// shape admission keeps out) or bypass ("" when no cache is wired).
	Cache string `json:"cache,omitempty"`
	// Dedup marks a single-flight follower: this execution waited on an
	// identical in-flight query instead of running its own.
	Dedup bool `json:"dedup,omitempty"`
	// Kind is the embedded engine's statement classification
	// (select/write/ddl) and DBMicros the time spent inside it, so engine
	// time separates from driver and cache overhead.
	Kind     string `json:"kind,omitempty"`
	DBMicros int64  `json:"db_micros,omitempty"`
	// Digest is the engine's normalized-statement digest — the key into
	// /debug/statements, linking a record to its registry row.
	Digest string `json:"digest,omitempty"`
	Err    string `json:"error,omitempty"`
	// Render is "memo" when the report's %ROW block was written from the
	// rendering an earlier request left on the cached result.
	Render string `json:"render,omitempty"`
}

// MarshalJSON prints the statement on one line.
func (e *SQLExec) MarshalJSON() ([]byte, error) {
	type plain SQLExec
	p := plain(*e)
	p.SQL = TruncateSQL(e.SQL, 0)
	return json.Marshal(&p)
}

// note is the bracketed detail of the statement's sql-exec span.
func (e *SQLExec) note() string {
	sql := strconv.Quote(TruncateSQL(e.SQL, 200))
	if e.Err != "" {
		return "error=" + TruncateSQL(e.Err, 120) + " sql=" + sql
	}
	note := "rows=" + strconv.Itoa(e.Rows)
	if e.Cache != "" {
		note += " cache=" + e.Cache
	}
	if e.Render != "" {
		note += " render=" + e.Render
	}
	if e.Digest != "" {
		note += " digest=" + e.Digest
	}
	return note + " sql=" + sql
}

// VarEval aggregates every evaluation of one variable during the
// request: how many times it was dereferenced, the deepest chain it was
// reached through (0 = referenced directly from a template), where it
// resolved, and whether its last evaluation was null. It is 32 bytes: a
// request records one per name it dereferences.
type VarEval struct {
	Name     string    `json:"name"`
	Source   VarSource `json:"source"`
	Count    int32     `json:"count"`
	MaxDepth int16     `json:"max_depth"` // at most the engine's chain bound, 256
	Null     bool      `json:"null"`
	// next is the index in Trace.Vars of the variable dereferenced after
	// this one the last time: where Trace.Var looks first.
	next uint8
}

// VarSource is what answered a dereference. It prints, and marshals, as
// its word: input, define, list, exec or undefined.
type VarSource uint8

// The sources of a dereference.
const (
	SourceUndefined VarSource = iota // nothing binds the name
	SourceInput                      // a form field
	SourceDefine                     // a %DEFINE assignment
	SourceList                       // a %LIST variable
	SourceExec                       // an %EXEC variable or its output
)

var varSources = [...]string{"undefined", "input", "define", "list", "exec"}

func (s VarSource) String() string {
	if int(s) < len(varSources) {
		return varSources[s]
	}
	return "VarSource(" + strconv.Itoa(int(s)) + ")"
}

// MarshalText is the source's word.
func (s VarSource) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Trace is the one record of a request: its identity (an ID minted at
// the gateway or taken from the client's X-Trace-Id header), the macro it
// resolved to, the phases it went through, the variables it dereferenced,
// the statements it ran, its outcome, and whether the flight recorder
// kept it. The request's goroutine fills it and, after Finish, hands the
// pointer to the sinks — trace ring, flight recorder, access log — which
// only read it, and format what they print themselves.
//
// A nil *Trace is valid on the request path — every method that fills it
// no-ops — so instrumented code never branches on "is tracing on".
type Trace struct {
	ID     string
	Begun  time.Time
	Method string
	Path   string

	// Macro is the macro file the request resolved to, MacroCached
	// whether the parsed-macro cache served it.
	Macro       string
	MacroCached bool

	Status int
	Total  time.Duration
	// Decision is the flight recorder's retention decision, "" when no
	// recorder saw the request.
	Decision string

	Spans []Span
	SQL   []*SQLExec
	// Vars is the variables the engine dereferenced, in first-seen order;
	// VarsDropped counts the dereferences of further names once maxVars
	// were tracked (the list is complete when zero).
	Vars        []VarEval
	VarsDropped int
	lastVar     int // index in Vars of the latest dereference
	varRoom     int // what the first dereference makes room for (ReserveVars)
}

// NewTrace starts a trace now under the given ID.
func NewTrace(id string) *Trace {
	return &Trace{ID: id, Begun: time.Now()}
}

// ActiveSpan is an in-progress span; End completes it.
type ActiveSpan struct {
	t       *Trace
	kind    SpanKind
	section string
	start   time.Time
}

// Start opens a span (a no-op span on a nil trace).
func (t *Trace) Start(kind SpanKind, section string) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, kind: kind, section: section, start: time.Now()}
}

// End completes the span and appends it to the trace.
func (s ActiveSpan) End() {
	if s.t != nil {
		s.t.addSpan(Span{Kind: s.kind, Section: s.section,
			Start: s.start.Sub(s.t.Begun), Dur: time.Since(s.start)})
	}
}

// addSpan appends a span. The first makes room for four, what a request
// that runs one %SQL section records: the macro load, and the section's
// substitution, execution and rendering.
func (t *Trace) addSpan(sp Span) {
	if t.Spans == nil {
		t.Spans = make([]Span, 0, 4)
	}
	t.Spans = append(t.Spans, sp)
}

// SetMacro records which macro the request resolved to and whether the
// parsed-macro cache served it.
func (t *Trace) SetMacro(name string, cached bool) {
	if t != nil {
		t.Macro, t.MacroCached = name, cached
	}
}

// Var records one variable dereference: the depth it was reached at
// (0 = referenced directly from a template text), where it resolved, and
// whether it evaluated to null. Dereferences aggregate per name — count,
// deepest chain, last source and nullness — so a report that dereferences
// per row stays bounded. A report dereferences its row variables in a
// cycle, and they are the last names of the list, so the name that
// followed the previous one last time is tried before the list is
// scanned: 9 ns a dereference where the scan alone costs 27, ≈ 3.4 µs of
// the Appendix A report (A7, higher without it in 12 of 14 paired runs).
func (t *Trace) Var(name string, depth int, source VarSource, null bool) {
	t.VarN(name, depth, source, null, 1)
}

// VarN records n dereferences of name at one depth and from one source, the
// last of them null or not: what n calls of Var record, in one. A report
// served from a memo replays its row wrappers' dereferences with it.
func (t *Trace) VarN(name string, depth int, source VarSource, null bool, n int32) {
	if t == nil {
		return
	}
	i := 0
	if len(t.Vars) > 0 {
		if i = int(t.Vars[t.lastVar].next); t.Vars[i].Name != name {
			for i = 0; i < len(t.Vars) && t.Vars[i].Name != name; i++ {
			}
		}
	}
	if i == len(t.Vars) {
		if i == maxVars {
			t.VarsDropped += int(n)
			return
		}
		if t.Vars == nil {
			t.Vars = make([]VarEval, 0, cmp.Or(t.varRoom, 16))
		}
		t.Vars = append(t.Vars, VarEval{Name: name})
	}
	t.Vars[t.lastVar].next = uint8(i)
	t.lastVar = i
	v := &t.Vars[i]
	v.Count += n
	v.MaxDepth = max(v.MaxDepth, int16(min(depth, math.MaxInt16)))
	v.Source, v.Null = source, null
}

// ReserveVars has the first variable recorded make room for n, where the
// record would otherwise start with room for 16 and grow (a nil trace
// ignores it).
func (t *Trace) ReserveVars(n int) {
	if t != nil {
		t.varRoom = min(n, maxVars)
	}
}

// StartSQL opens the entry of one %SQL section execution (nil on a nil
// trace). The entry is kept on the trace while there is room.
func (t *Trace) StartSQL(section, sql string) *SQLExec {
	if t == nil {
		return nil
	}
	if len(sql) > maxSQLText {
		sql = sql[:maxSQLText] + "…" // a copy: the record must not pin a statement of any size
	}
	e := &SQLExec{Section: section, SQL: sql}
	if len(t.SQL) < maxSQL {
		t.SQL = append(t.SQL, e)
	}
	return e
}

// EndSQL completes an entry StartSQL opened — the rows it returned or the
// error it failed with — and records its sql-exec span.
func (t *Trace) EndSQL(e *SQLExec, start time.Time, dur time.Duration, rows int, err error) {
	if t == nil {
		return
	}
	e.DurMicros = dur.Microseconds()
	if err != nil {
		e.Err = err.Error()
	} else {
		e.Rows = rows
	}
	t.addSpan(Span{Kind: SpanSQLExec, Section: e.Section, Start: start.Sub(t.Begun), Dur: dur, SQL: e})
}

// TopDigest returns the statement digest of the request's slowest SQL
// execution — the digest worth pivoting on in /debug/statements when a
// logged request looks slow. Empty when nothing ran (or digests are
// unavailable).
func (t *Trace) TopDigest() string {
	if t == nil {
		return ""
	}
	var top string
	var topDur int64 = -1
	for _, e := range t.SQL {
		if e.Digest != "" && e.DurMicros > topDur {
			top, topDur = e.Digest, e.DurMicros
		}
	}
	return top
}

// Finish records the response status and total duration. Nothing writes
// to the trace after the sinks have seen it.
func (t *Trace) Finish(status int, total time.Duration) {
	if t != nil {
		t.Status, t.Total = status, total
	}
}

// Note is the detail a printed span carries in brackets: whether the
// macro cache served a parse, the rows (or error), cache decision,
// digest and substituted SQL of an execution.
func (t *Trace) Note(sp Span) string {
	switch {
	case sp.Kind == SpanParse && t.MacroCached:
		return "cache=hit"
	case sp.Kind == SpanParse:
		return "cache=miss"
	case sp.SQL != nil:
		return sp.SQL.note()
	}
	return ""
}

// MarshalJSON is the record as /debug/flight serves it and the JSONL sink
// persists it. Durations are microseconds so the JSON is compact and
// grep-friendly.
func (t *Trace) MarshalJSON() ([]byte, error) {
	type span struct {
		Name        string `json:"name"`
		StartMicros int64  `json:"start_micros"`
		DurMicros   int64  `json:"dur_micros"`
		Note        string `json:"note,omitempty"`
	}
	spans := make([]span, len(t.Spans))
	for i, sp := range t.Spans {
		spans[i] = span{sp.Name(), sp.Start.Microseconds(), sp.Dur.Microseconds(), t.Note(sp)}
	}
	return json.Marshal(struct {
		TraceID     string     `json:"trace_id"`
		Time        time.Time  `json:"time"`
		Method      string     `json:"method"`
		Path        string     `json:"path"`
		Macro       string     `json:"macro,omitempty"`
		MacroCached bool       `json:"macro_cached,omitempty"`
		Status      int        `json:"status"`
		TotalMicros int64      `json:"total_micros"`
		Decision    string     `json:"decision"`
		Spans       []span     `json:"spans,omitempty"`
		Vars        []VarEval  `json:"vars,omitempty"`
		VarsDropped int        `json:"vars_dropped,omitempty"`
		SQL         []*SQLExec `json:"sql,omitempty"`
	}{t.ID, t.Begun, t.Method, t.Path, t.Macro, t.MacroCached, t.Status,
		t.Total.Microseconds(), t.Decision, spans, t.Vars, t.VarsDropped, t.SQL})
}

// NewTraceID mints a 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID
		// keeps tracing alive rather than panicking on the request path.
		return "0000000000000000"
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// SanitizeTraceID validates a client-supplied trace ID: 1–64 characters
// drawn from [A-Za-z0-9._-]. Anything else returns "" (mint a fresh ID)
// so header values can't inject into logs or HTML.
func SanitizeTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

type ctxKey int

const (
	traceKey ctxKey = iota // the request's *Trace
	sqlKey                 // the *SQLExec of the statement being executed
)

// WithTrace attaches a trace to a request's context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithSQLExec attaches the entry of the statement about to be executed,
// for the layers below the engine to fill in.
func WithSQLExec(ctx context.Context, e *SQLExec) context.Context {
	return context.WithValue(ctx, sqlKey, e)
}

// SQLExecFrom returns the entry of the statement being executed, or nil.
func SQLExecFrom(ctx context.Context) *SQLExec {
	if ctx == nil {
		return nil
	}
	e, _ := ctx.Value(sqlKey).(*SQLExec)
	return e
}

// TruncateSQL bounds a SQL string for notes and log lines, marking the
// cut. Newlines collapse to spaces so one statement stays one line.
func TruncateSQL(sql string, max int) string {
	oneLine := make([]byte, 0, len(sql))
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if c == '\n' || c == '\r' || c == '\t' {
			c = ' '
		}
		oneLine = append(oneLine, c)
	}
	s := string(oneLine)
	if max > 0 && len(s) > max {
		return s[:max] + "…"
	}
	return s
}
