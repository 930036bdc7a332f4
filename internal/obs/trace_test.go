package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace("abc")
	tr.Start(SpanParse, "").End()
	tr.SetMacro("q.d2w", true)
	start := time.Now()
	e := tr.StartSQL("Q1", "SELECT url\nFROM urldb")
	e.Cache = "miss"
	time.Sleep(time.Millisecond)
	tr.EndSQL(e, start, time.Since(start), 3, nil)
	tr.Start(SpanReportRender, "Q1").End()
	tr.Finish(200, 5*time.Millisecond)

	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %d", len(tr.Spans))
	}
	if sp := tr.Spans[0]; sp.Name() != "parse" || tr.Note(sp) != "cache=hit" {
		t.Errorf("span 0 = %s [%s]", sp.Name(), tr.Note(sp))
	}
	sp := tr.Spans[1]
	if sp.Name() != "sql-exec:Q1" || tr.Note(sp) != `rows=3 cache=miss sql="SELECT url FROM urldb"` {
		t.Errorf("span 1 = %s [%s]", sp.Name(), tr.Note(sp))
	}
	if sp.Dur < time.Millisecond || e.DurMicros < 1000 {
		t.Errorf("span 1 dur = %v, entry %dµs", sp.Dur, e.DurMicros)
	}
	if tr.Spans[2].Name() != "report-render:Q1" || tr.Note(tr.Spans[2]) != "" {
		t.Errorf("span 2 = %+v", tr.Spans[2])
	}
	if tr.Status != 200 || tr.Total != 5*time.Millisecond {
		t.Errorf("finish: status=%d total=%v", tr.Status, tr.Total)
	}
	line := FormatSpans(tr)
	if !strings.Contains(line, "sql-exec:Q1=") || !strings.Contains(line, "[rows=3 cache=miss sql=") {
		t.Errorf("FormatSpans = %q", line)
	}

	// A failed statement's note names the error, and a statement longer
	// than the record keeps is cut where it is recorded.
	start = time.Now()
	e = tr.StartSQL("Q2", strings.Repeat("x", 600))
	tr.EndSQL(e, start, 0, 0, errors.New("no such table"))
	if note := tr.Note(tr.Spans[3]); !strings.HasPrefix(note, `error=no such table sql="xxx`) || !strings.HasSuffix(note, `x…"`) {
		t.Errorf("error note = %q", note)
	}
	if len(e.SQL) != 500+len("…") {
		t.Errorf("kept %d bytes of a 600-byte statement", len(e.SQL))
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Start(SpanParse, "").End()
	tr.SetMacro("m", true)
	tr.Var("x", 0, SourceInput, false)
	e := tr.StartSQL("s", "SELECT 1")
	tr.EndSQL(e, time.Now(), 0, 0, nil)
	tr.Finish(200, time.Second)
	if e != nil {
		t.Fatal("nil trace must open no SQL entry")
	}
	if FormatSpans(nil) != "" {
		t.Fatal("FormatSpans(nil) must be empty")
	}
}

func TestContextPlumbing(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context must carry no trace")
	}
	if TraceFrom(nil) != nil { //nolint:staticcheck // nil-context robustness is the point
		t.Fatal("nil context must carry no trace")
	}
	tr := NewTrace("t1")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace lost in context")
	}
	e := tr.StartSQL("s", "SELECT 1")
	ctx = WithSQLExec(ctx, e)
	if SQLExecFrom(ctx) != e {
		t.Fatal("statement entry lost in context")
	}
	if TraceFrom(ctx) != tr {
		t.Fatal("statement entry must not displace the trace")
	}
}

// TestRecordBounds: the variables aggregate by name — count, deepest
// chain, last source and nullness — in first-seen order; distinct names
// are capped (counting the overflow) and so are SQL entries, however many
// dereferences and statements the request makes.
func TestRecordBounds(t *testing.T) {
	tr := NewTrace("bounds")
	for i := 0; i < maxVars+10; i++ {
		tr.Var(fmt.Sprintf("v%d", i), 0, SourceInput, false)
	}
	if len(tr.Vars) != maxVars || tr.VarsDropped != 10 {
		t.Errorf("vars = %d, dropped = %d", len(tr.Vars), tr.VarsDropped)
	}
	// Re-evaluating a known name aggregates instead of dropping.
	tr.Var("v0", 3, SourceDefine, true)
	if v := tr.Vars[0]; v.Name != "v0" || v.Count != 2 || v.MaxDepth != 3 || !v.Null || v.Source != SourceDefine {
		t.Errorf("aggregate = %+v", v)
	}
	// A report loop dereferences in a cycle, names beyond the cap among
	// them: every dereference is counted on its name or as dropped.
	for i := 0; i < 1000; i++ {
		tr.Var("v1", 1, SourceInput, false)
		tr.Var("late", 0, SourceInput, false)
		tr.Var("v127", 2, SourceList, i%2 == 0)
	}
	if v := tr.Vars[1]; v.Count != 1001 || v.MaxDepth != 1 {
		t.Errorf("v1 = %+v", v)
	}
	if v := tr.Vars[127]; v.Count != 1001 || v.MaxDepth != 2 || v.Source != SourceList || v.Null {
		t.Errorf("v127 = %+v", v)
	}
	if len(tr.Vars) != maxVars || tr.VarsDropped != 1010 {
		t.Errorf("after the loop: %d vars, dropped = %d", len(tr.Vars), tr.VarsDropped)
	}
	b, err := json.Marshal(tr)
	if err != nil || !strings.Contains(string(b), `"vars_dropped":1010`) ||
		!strings.Contains(string(b), `{"name":"v1","source":"input","count":1001,"max_depth":1,"null":false}`) {
		t.Errorf("vars missing from the JSON (err %v):\n%s", err, b)
	}

	for i := 0; i < maxSQL+5; i++ {
		e := tr.StartSQL("s", "SELECT 1")
		tr.EndSQL(e, time.Now(), 0, 1, nil)
	}
	if len(tr.SQL) != maxSQL {
		t.Errorf("sql entries = %d, want %d", len(tr.SQL), maxSQL)
	}
	if len(tr.Spans) != maxSQL+5 {
		t.Errorf("spans = %d: a statement beyond the cap must still show it ran", len(tr.Spans))
	}
}

// TestVarEvalRecord: a variable's record is 32 bytes, and its JSON is
// what it was when each field was a string or an int: the source as its
// word, the counts as numbers.
func TestVarEvalRecord(t *testing.T) {
	if size := unsafe.Sizeof(VarEval{}); size != 32 {
		t.Errorf("VarEval is %d bytes, want 32", size)
	}
	tr := NewTrace("vars")
	for _, src := range []VarSource{SourceInput, SourceDefine, SourceList, SourceUndefined} {
		tr.Var(src.String()+"_var", 2, src, src == SourceUndefined)
	}
	tr.VarN("input_var", 300, SourceInput, false, 4)
	got, err := json.Marshal(tr.Vars)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"input_var","source":"input","count":5,"max_depth":300,"null":false},` +
		`{"name":"define_var","source":"define","count":1,"max_depth":2,"null":false},` +
		`{"name":"list_var","source":"list","count":1,"max_depth":2,"null":false},` +
		`{"name":"undefined_var","source":"undefined","count":1,"max_depth":2,"null":true}]`
	if string(got) != want {
		t.Errorf("Vars as JSON:\n got %s\nwant %s", got, want)
	}
}

func TestTopDigest(t *testing.T) {
	if d := (*Trace)(nil).TopDigest(); d != "" {
		t.Fatalf("nil record TopDigest = %q", d)
	}
	tr := NewTrace("d")
	if d := tr.TopDigest(); d != "" {
		t.Fatalf("empty record TopDigest = %q", d)
	}
	for _, s := range []struct {
		digest string
		micros int64
	}{{"fast", 10}, {"slow", 900}, {"mid", 100}, {"", 99999}} { // no digest: skipped
		e := tr.StartSQL("s", "SELECT 1")
		e.Digest, e.DurMicros = s.digest, s.micros
	}
	if d := tr.TopDigest(); d != "slow" {
		t.Fatalf("TopDigest = %q, want slow", d)
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids = %q %q", a, b)
	}
	if SanitizeTraceID(a) != a {
		t.Fatalf("minted id %q must sanitize to itself", a)
	}
}

func TestSanitizeTraceID(t *testing.T) {
	good := []string{"t1", "abc-DEF_123.z", strings.Repeat("a", 64)}
	for _, id := range good {
		if SanitizeTraceID(id) != id {
			t.Errorf("rejected valid id %q", id)
		}
	}
	bad := []string{"", strings.Repeat("a", 65), "has space", "quote\"", "semi;colon", "nl\n"}
	for _, id := range bad {
		if SanitizeTraceID(id) != "" {
			t.Errorf("accepted invalid id %q", id)
		}
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %d", len(got))
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		r.Add(NewTrace(id))
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot = %d traces", len(snap))
	}
	// Newest first; a and b were overwritten.
	for i, want := range []string{"e", "d", "c"} {
		if snap[i].ID != want {
			t.Errorf("snap[%d] = %q, want %q", i, snap[i].ID, want)
		}
	}
	var nilRing *Ring
	nilRing.Add(NewTrace("x"))
	if nilRing.Snapshot() != nil {
		t.Fatal("nil ring must no-op")
	}
	rows := r.StatusRows()
	if len(rows) != 3 || !strings.Contains(rows[0][0], "e") {
		t.Errorf("StatusRows = %v", rows)
	}
}

func TestTruncateSQL(t *testing.T) {
	if got := TruncateSQL("SELECT *\nFROM\tt", 0); got != "SELECT * FROM t" {
		t.Errorf("newline collapse = %q", got)
	}
	if got := TruncateSQL("abcdef", 3); got != "abc…" {
		t.Errorf("truncate = %q", got)
	}
}
