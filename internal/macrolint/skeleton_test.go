package macrolint

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"db2www/internal/core"
	"db2www/internal/sqlsema"
)

// The linter's own substitution machine, kept here as the reference the
// engine's shape (core.Static.Shape) is held to: it walked a template's
// references itself, inlined what core.Static called static, and ran
// a quote state machine over the skeleton it emitted.

// seg maps one skeleton span back to the source template. A literal span
// maps byte-for-byte; a substituted span maps wholesale to the `$(`.
type seg struct {
	out     int // skeleton start offset
	src     int // template source start offset
	literal bool
}

// substSQL is the substitution result for one SQL command template.
type substSQL struct {
	sql         string
	slots       []sqlsema.Slot
	opaque      map[int]string // skeleton offset of opening quote → known prefix
	segs        []seg
	fullyStatic bool // every reference static (core.Static), no escape left
	ok          bool
}

// srcOff maps a skeleton byte offset back to the template source.
func (s *substSQL) srcOff(out int) int {
	if out < 0 || len(s.segs) == 0 {
		return 0
	}
	cur := s.segs[0]
	end := len(s.sql)
	for i, sg := range s.segs {
		if sg.out > out {
			end = sg.out
			break
		}
		cur = sg
		if i == len(s.segs)-1 {
			end = len(s.sql)
		}
	}
	if !cur.literal {
		return cur.src
	}
	d := out - cur.out
	if max := end - cur.out; d > max {
		d = max
	}
	return cur.src + d
}

// quoteScan is a single-quote state machine, a doubled quote being an
// escaped one. It records where the current string literal opened and its
// content so far, and counts the '?' it sees outside literals.
type quoteScan struct {
	in        bool
	pending   bool // inside a string, saw a quote; '' = escape, else close
	openOut   int  // skeleton offset of the opening quote
	buf       strings.Builder
	questions int
}

// feed scans text, whose first byte sits at skeleton offset outOff.
func (q *quoteScan) feed(text string, outOff int) {
	for i := 0; i < len(text); i++ {
		ch := text[i]
		if ch == '?' && !q.in && !q.pending {
			q.questions++
		}
		if q.pending {
			q.pending = false
			if ch == '\'' {
				q.buf.WriteByte('\'')
				continue
			}
			q.in = false
		}
		switch {
		case q.in && ch == '\'':
			q.pending = true
		case q.in:
			q.buf.WriteByte(ch)
		case ch == '\'':
			q.in = true
			q.openOut = outOff + i
			q.buf.Reset()
		}
	}
}

// settle resolves a pending quote at a substitution boundary: the runtime
// substitutes text first and lexes second, so a quote directly before
// $(VAR) closes the string.
func (q *quoteScan) settle() {
	if q.pending {
		q.pending = false
		q.in = false
	}
}

// referenceSkeleton builds the SQL skeleton for one tplSQL template as the
// linter did. ok=false means the template is not analyzable: unterminated
// references, or a source `?` colliding with generated parameter slots. It
// differs from the engine's shape where the engine is right and the
// reference was not: it kept a "$$(" escape as written, where the engine
// sends "$("; it never reached its own rule for a dynamic $(A$(B))
// reference (the inner reference comes first and the outer one was
// skipped); and it never inlined a static reference with a transform
// prefix. No section of TestSkeletonMatchesReference holds such a template.
func (p *pass) referenceSkeleton(t *tpl) *substSQL {
	e := p.env
	s := &substSQL{opaque: map[int]string{}}
	if len(t.unterminated) > 0 {
		return s
	}
	var b strings.Builder
	var q quoteScan
	sawQuestion := false
	allStatic := true

	emit := func(src int, text string, literal bool) {
		if text == "" {
			return
		}
		s.segs = append(s.segs, seg{out: b.Len(), src: src, literal: literal})
		n := q.questions
		q.feed(text, b.Len())
		sawQuestion = sawQuestion || literal && q.questions > n
		b.WriteString(text)
	}

	last := 0
	for _, r := range t.refs {
		if r.Offset < last {
			continue // nested ref inside a dynamic outer one
		}
		if r.Dynamic {
			return s
		}
		emit(last, t.text[last:r.Offset], true)
		last = r.End

		if r.Prefix == "" {
			if val, static := e.static.Expand("$(" + r.Name + ")"); static {
				emit(r.Offset, val, false)
				continue
			}
		}
		allStatic = false
		q.settle()
		if q.in {
			// Dynamic content inside a string literal: the literal's
			// value is unknowable past this point. Record the prefix
			// known so far, once per literal.
			if _, done := s.opaque[q.openOut]; !done {
				s.opaque[q.openOut] = q.buf.String()
			}
			continue
		}
		c := e.fact(r.Name).class
		s.slots = append(s.slots, sqlsema.Slot{Name: r.Name, Class: c.class, Sample: c.sample, Chain: c.chain})
		emit(r.Offset, "?", false)
	}
	emit(last, t.text[last:], true)

	if sawQuestion && len(s.slots) > 0 {
		return s // source ? + generated slots: parameter numbering is off
	}
	s.sql = b.String()
	s.ok = true
	// A "$(" left in the statement is an escape's literal text.
	s.fullyStatic = allStatic && !strings.Contains(s.sql, "$(")
	return s
}

// checkSkeleton holds the skeleton of every %SQL section of src to the
// reference's: ok, text, slots, opaque literals, fullyStatic and the source
// offset of every byte. It returns how many sections it compared.
func checkSkeleton(t *testing.T, file, src string, resolve core.IncludeResolver) int {
	t.Helper()
	m, err := core.ParseWithIncludes(file, src, resolve)
	if err != nil {
		return 0 // a seeded parse defect
	}
	p := &pass{l: New(), env: buildEnv(m, file)}
	n := 0
	for _, tp := range p.env.templates {
		if tp.kind != tplSQL || tp.sec == nil {
			continue
		}
		n++
		got, want := p.skeletonOf(tp), p.referenceSkeleton(tp)
		switch {
		case got.ok != want.ok:
			t.Errorf("%s %s: ok %v, the reference %v\n%s", file, tp.where, got.ok, want.ok, tp.text)
		case !want.ok:
		case got.Skeleton != want.sql || got.fullyStatic != want.fullyStatic ||
			!reflect.DeepEqual(got.opts.Slots, want.slots) || !reflect.DeepEqual(got.opts.OpaqueLits, want.opaque):
			t.Errorf("%s %s:\n got %q static %v slots %v opaque %v\nwant %q static %v slots %v opaque %v",
				file, tp.where, got.Skeleton, got.fullyStatic, got.opts.Slots, got.opts.OpaqueLits,
				want.sql, want.fullyStatic, want.slots, want.opaque)
		default:
			for off := -1; off <= len(want.sql)+1; off++ {
				if g, w := got.Src(off), want.srcOff(off); g != w {
					t.Errorf("%s %s: byte %d of %q maps to %d, the reference to %d", file, tp.where, off, want.sql, g, w)
					break
				}
			}
		}
	}
	return n
}

// shapeCases are sections written where the quote state turns: a doubled
// quote, a quote just before a hole, a static value that opens a literal,
// two holes in one literal, a "?" of the template's own inside and outside
// a literal, and a hole that fails (a cycle).
var shapeCases = []string{
	`WHERE $(W) AND title = '$(IN)' OR title = 'it''s $(IN)x' OR url = 'a''$(IN)'`,
	`WHERE title = 'a'$(IN) AND url = ''$(IN) AND description = '$(IN)'''`,
	`WHERE title = ? AND url = $(IN)`,
	`WHERE title = '?' AND url = $(IN) AND description = '$(Q)' || $(IN)`,
	`WHERE title = $(Q)$(IN)' AND url LIKE '%$(IN)-$(IN2)%' AND $(C) = 1`,
}

// TestSkeletonMatchesReference: the skeleton the linter reads from the
// engine's walk is the one its own substitution machine built, over every
// %SQL section of the macro corpora, the seeds of FuzzLint and the
// generated %DEFINE chains of TestStaticValuesAreTheEngines.
func TestSkeletonMatchesReference(t *testing.T) {
	n := 0
	corpusSources(t, func(file, src string, resolve core.IncludeResolver) {
		n += checkSkeleton(t, file, src, resolve)
	})
	if n < 30 {
		t.Errorf("only %d sections of the corpora compared", n)
	}
	for i, src := range lintSeeds(t) {
		n += checkSkeleton(t, fmt.Sprintf("seed #%d", i), src, nil)
	}
	for i, where := range shapeCases {
		src := `%define{
W = "url LIKE 'h%'"
Q = "'"
C = "$(C)"
%}
%SQL{SELECT url FROM urldb ` + where + `%}
%HTML_INPUT{<INPUT NAME="IN"><INPUT NAME="IN2">%}`
		n += checkSkeleton(t, fmt.Sprintf("case #%d", i), src, nil)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		src, _ := staticChains(rng)
		n += checkSkeleton(t, fmt.Sprintf("chains #%d", i), src, nil)
	}
	t.Logf("%d sections", n)
}
