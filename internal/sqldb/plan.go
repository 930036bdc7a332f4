package sqldb

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// The plan cache is a cache of parses.
//
// The macro layer substitutes request values into SQL text, so production
// traffic collapses to a handful of statement shapes differing only in
// literals. Instead of re-parsing every statement, the session makes one
// pass over its text (shaper) that extracts the literals into bind
// parameters and renders what is left — the shape — as the key of a
// bounded map, building no token slice. A ? the caller supplies an
// argument for is a hole of the shape like an extracted literal, its
// value the next argument: "WHERE id = ?" with 5 and "WHERE id = 5" are
// one shape. A hit skips parsing: the cached AST is executed as it is —
// nothing writes to a parsed tree, so concurrent executions share it —
// with the extracted values and the arguments bound in text order. A
// verbatim repeat takes the same pass: a repeated SELECT is the query
// cache's to answer (internal/qcache), before it reaches the engine.
//
// What is cached is the result of parseTokens, a pure function of the
// token stream that never looks at the catalog: the plan is built from the
// tree per execution, under the catalog lock, against the tables and
// indexes that exist then (planner.go). So a shape is keyed by everything
// that stays literal in its tree (shaper), and nothing ever invalidates
// an entry — no DDL, rollback or data change can make a parse wrong. The
// statement digest, which reads more statements alike than the key does
// (identifier case, ORDER BY ordinals), is kept on the entry for statement
// stats and the flight record; it is not what is looked up.

// DefaultPlanCacheCap bounds the number of cached statement shapes.
const DefaultPlanCacheCap = 256

// maxPlanCacheBytes bounds the bytes of the keys and normalized texts the
// cached shapes hold: a shape is as long as its statement, and a form
// field of a megabyte of identifiers makes a megabyte-long shape of its
// own. The most recently stored shape is kept whatever its size.
const maxPlanCacheBytes = 4 << 20

// planEntry is one cached shape, immutable once stored. facts is what a
// result cache asks about the shape — like the parse, a pure function of
// the tokens — and facts.stmt the parsed statement every execution of the
// shape shares; a nil stmt is a negative entry recording that the shape
// cannot take the parameterized path (so repeat executions skip the
// doomed parse attempt).
type planEntry struct {
	key   string // the shaper's key of the statement
	facts Facts
	elem  *list.Element
}

// Facts is what a result cache needs to know of a statement before it
// runs: the digest and normalized shape it is recorded under, the
// lower-cased base tables it reads (sorted, deduplicated), and whether its
// result depends on nothing but those tables' contents and the statement
// text (stmtFacts' rule). The zero Facts says: not cacheable.
//
// Past what a cache reads, Facts carries what Database.Predicate plans
// from: the shape's readPlan and the values the text's literals were
// extracted to, which the shape's parameters stand for. Both are the plan
// cache's. And it carries the statement resolved for execution, which
// Session.ExecResolved runs without resolving the text again: stmt — the
// shape's shared tree with args bound to its parameters, or a parse of
// the literal text — or err, the error that text's parse reports.
type Facts struct {
	Digest, Norm string
	Tables       []string
	Cacheable    bool
	args         []Value
	reads        *readPlan
	stmt         Stmt
	err          error
}

// PlanCache is an LRU of parsed statement shapes, bounded in count and in
// bytes.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	bytes   int                   // of the entries' keys and normalized texts
	entries map[string]*planEntry // by key
	lru     *list.List            // front = most recently used; values are entries

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypasses atomic.Uint64
}

// newPlanCache returns a cache holding at most cap shapes. cap <= 0
// means DefaultPlanCacheCap.
func newPlanCache(cap int) *PlanCache {
	if cap <= 0 {
		cap = DefaultPlanCacheCap
	}
	return &PlanCache{
		cap:     cap,
		entries: map[string]*planEntry{},
		lru:     list.New(),
	}
}

// size is what an entry counts against maxPlanCacheBytes.
func (e *planEntry) size() int { return len(e.key) + len(e.facts.Norm) }

// lookup returns the shape cached under key, bumping its recency.
func (pc *PlanCache) lookup(key []byte) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[string(key)]
	if !ok {
		return nil
	}
	pc.lru.MoveToFront(e.elem)
	return e
}

// store inserts e, evicting the least recently used shapes while over the
// count or the byte bound. Two sessions that missed on one shape both
// store it; the later parse replaces its equal.
func (pc *PlanCache) store(e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.entries[e.key]; ok {
		pc.remove(old)
	}
	e.elem = pc.lru.PushFront(e)
	pc.entries[e.key] = e
	pc.bytes += e.size()
	for pc.lru.Len() > pc.cap || (pc.bytes > maxPlanCacheBytes && pc.lru.Len() > 1) {
		pc.remove(pc.lru.Back().Value.(*planEntry))
	}
}

// remove drops e from the map and the LRU. Caller holds mu.
func (pc *PlanCache) remove(e *planEntry) {
	pc.lru.Remove(e.elem)
	delete(pc.entries, e.key)
	pc.bytes -= e.size()
}

// len reports the number of cached shapes (including negative entries).
func (pc *PlanCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// PlanCached reports whether the shape of sql — of the statement under
// it, when sql is an EXPLAIN — currently has a parse cached, along with
// that statement's digest, so tools (sqlsh's EXPLAIN footer) can probe
// provenance without executing anything.
func (db *Database) PlanCached(sql string) (digest string, cached bool) {
	toks, err := lexSQL(sql)
	if err != nil {
		return "", false
	}
	toks, _ = explainTarget(toks)
	sh := getShaper()
	defer sh.release()
	if _, ok := sh.shapeTokens(toks); ok {
		pc := db.plans
		pc.mu.Lock()
		e := pc.entries[string(sh.key)]
		pc.mu.Unlock()
		cached = e != nil && e.facts.stmt != nil
	}
	return digestOf(normalizeTokens(toks)), cached
}

// PlanCacheStats is a point-in-time summary of the plan cache, shown on
// /server-status ("Planner") and exported as db2www_sqldb_plan_cache_*
// metrics.
type PlanCacheStats struct {
	Size     int    `json:"size"`
	Cap      int    `json:"cap"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Bypasses uint64 `json:"bypasses"`
}

// PlanCacheStats returns current plan-cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	pc := db.plans
	return PlanCacheStats{
		Size:     pc.len(),
		Cap:      pc.cap,
		Hits:     pc.hits.Load(),
		Misses:   pc.misses.Load(),
		Bypasses: pc.bypasses.Load(),
	}
}

// --- literal extraction ---

// paramizableHeads are the statement kinds whose literals extract into
// bind parameters. DDL stays literal (schema text is not hot-path), and
// EXPLAIN stays literal so its rendering matches the written statement.
var paramizableHeads = map[string]bool{
	"SELECT": true, "INSERT": true, "UPDATE": true, "DELETE": true,
}

// shaper is the one pass from a statement to its shape. Fed the tokens of
// the statement in order, it replaces every string and number literal by a
// ? parameter and collects the values in parameter order, a caller's ?
// taking the next of the caller's arguments (args) as its value, and
// renders the key of what is left (the shape) as it goes. It counts the
// caller's ? (holes) whatever the statement, so that a missing argument is
// an error before anything runs. The statement bypasses the shape tier —
// it takes the literal path — when it does not have a DML/SELECT head.
//
// Numbers in the ORDER BY list are kept literal — a bare integer there is
// a projection ordinal, which the executor resolves from the *Literal*
// node; parameterizing it would silently change semantics. With no
// subquery in the grammar, ORDER BY is the last clause of the statement,
// so its list runs to the end of the text. The pass looks back, never
// ahead: BY opens the ORDER BY list when the token before it was ORDER.
//
// The key renders every token as the parser reads it, one space apart, so
// that two statements with one key parse to one tree: identifiers as
// written, which is how the tree names output columns, and quoted, so that
// none reads as a keyword or as two; the numbers left in place as written.
// Only the extracted values and the positions error messages cite are not
// in it. A shaper is reused (shapers); its buffers are scratch, and it
// drops the caller's arguments when it is released.
type shaper struct {
	key      []byte
	vals     []Value
	args     []Value // the caller's, bound to its ? in order
	holes    int     // the caller's ? seen so far
	lits     int     // literals extracted so far
	order    bool    // the ORDER BY list is open
	prevKind tokKind
	prevText string
	started  bool
	bypass   bool
}

// shapers keeps a few shapers, and their buffers, between statements. It
// is a free list rather than a sync.Pool, which a collection empties and
// the race detector makes drop at random: a statement allocates the same
// on every run, under -race too.
var shapers = make(chan *shaper, 8)

// getShaper takes a shaper from the free list, or makes one.
func getShaper() *shaper {
	select {
	case sh := <-shapers:
		return sh
	default:
		return new(shaper)
	}
}

// maxKeptScratch bounds the buffers a shaper keeps when it goes back to
// the free list: a statement of a 100 000-literal IN list should not pin
// its megabytes.
const maxKeptScratch = 64 << 10

func (sh *shaper) release() {
	if cap(sh.key) > maxKeptScratch {
		sh.key = nil
	}
	if cap(sh.vals) > maxKeptScratch/32 {
		sh.vals = nil
	}
	clear(sh.vals[:cap(sh.vals)]) // drop the strings the values point into
	sh.args = nil
	select {
	case shapers <- sh:
	default: // the list is full
	}
}

// reset readies the shaper for a statement, keeping its buffers and the
// arguments.
func (sh *shaper) reset() {
	*sh = shaper{key: sh.key[:0], vals: sh.vals[:0], args: sh.args}
}

// step feeds the next token and reports whether it was extracted as a
// parameter. After the token that decides a bypass it only counts holes.
func (sh *shaper) step(t *token) (param bool) {
	if t.kind == tkParam {
		sh.holes++
	}
	if sh.bypass {
		return false
	}
	prevKind, prevText := sh.prevKind, sh.prevText
	sh.prevKind, sh.prevText = t.kind, t.text
	if !sh.started {
		sh.started = true
		if t.kind != tkKeyword || !paramizableHeads[t.text] {
			sh.bypass = true
			return false
		}
	}
	switch t.kind {
	case tkEOF:
		return false
	case tkParam:
		if sh.holes <= len(sh.args) {
			sh.vals = append(sh.vals, sh.args[sh.holes-1])
		}
	case tkKeyword:
		if t.text == "BY" && prevKind == tkKeyword && prevText == "ORDER" {
			sh.order = true
		}
	case tkNumber:
		if !sh.order {
			sh.lits++
			sh.vals = append(sh.vals, t.num)
			sh.key = append(sh.key, " ?"...)
			return true
		}
	case tkString:
		sh.lits++
		sh.vals = append(sh.vals, NewString(t.text))
		sh.key = append(sh.key, " ?"...)
		return true
	}
	sh.key = append(sh.key, ' ')
	if t.kind != tkIdent {
		sh.key = append(sh.key, t.text...)
		return false
	}
	sh.key = append(sh.key, '"')
	for i := 0; i < len(t.text); i++ {
		if t.text[i] == '"' {
			sh.key = append(sh.key, '"')
		}
		sh.key = append(sh.key, t.text[i])
	}
	sh.key = append(sh.key, '"')
	return false
}

// shapeText runs the pass over sql with the caller's arguments, lexing it
// one token at a time into no slice: the path of every text a statement
// is resolved from. ok is false when the statement bypasses; err is the
// lexer's, which the whole text is lexed for, bypass or not.
func (sh *shaper) shapeText(sql string, args []Value) (ok bool, err error) {
	sh.args = args
	sh.reset()
	lx := lexer{src: sql}
	var t token
	for {
		if err := lx.next(&t); err != nil {
			return false, err
		}
		sh.step(&t)
		if t.kind == tkEOF {
			return !sh.bypass, nil
		}
	}
}

// shapeTokens runs the pass over a lexed statement, with the arguments
// of the last shapeText, and returns its tokens with every extracted
// literal replaced by a parameter: what parseTokens parses once for the
// shape.
func (sh *shaper) shapeTokens(toks []token) (ptoks []token, ok bool) {
	sh.reset()
	ptoks = make([]token, 0, len(toks))
	for _, t := range toks {
		if sh.step(&t) {
			t = token{kind: tkParam, text: "?", pos: t.pos}
		}
		ptoks = append(ptoks, t)
	}
	return ptoks, !sh.bypass
}

// values returns the values of the shape's parameters, nil when there
// are none: the caller's arguments as they are when the text extracted no
// literal, else a copy, which the caller keeps while the shaper goes back
// to the free list.
func (sh *shaper) values() []Value {
	switch {
	case len(sh.vals) == 0:
		return nil
	case sh.lits == 0:
		return sh.args[:len(sh.vals)]
	}
	return append(make([]Value, 0, len(sh.vals)), sh.vals...)
}

// StatementFacts resolves sql through the plan cache: what the cache
// knows of its shape, parsed and walked once per shape — a shape seen
// before costs one pass over the text and a map lookup — with the
// statement to execute. A statement the plan cache does not take (DDL,
// transaction control, EXPLAIN, a shape that does not parse) is not
// cacheable and carries the literal text's parse, or its error. sql is
// resolved without arguments, so a text with a ? answers SQLSTATE 07001.
func (db *Database) StatementFacts(sql string) Facts { return db.plans.resolve(sql, nil) }

// resolve is the path of every text through the plan cache, with the
// caller's arguments for its ?: one pass over the text to its shape key
// and values, and a lookup. Only a shape not cached yet lexes the text
// into tokens, to parse it. A statement that takes the literal path —
// shape not parameterizable, or its parameterized form failed to parse —
// is parsed once as written, which reports the authoritative error: from
// the tokens a new shape lexed, from the text otherwise; a lexer error is
// the pass's own. A statement that parses with fewer arguments than it has
// ? is an error, SQLSTATE 07001, whatever rows it would read; arguments
// past the last ? are ignored.
func (pc *PlanCache) resolve(sql string, args []Value) Facts {
	sh := getShaper()
	defer sh.release()
	ok, err := sh.shapeText(sql, args)
	if err != nil {
		return Facts{err: err}
	}
	f := pc.shaped(sh, sql, ok)
	if f.err == nil && sh.holes > len(args) {
		return Facts{err: &Error{Code: CodeParamCount,
			Message: fmt.Sprintf("missing value for parameter %d of %d", len(args)+1, sh.holes)}}
	}
	return f
}

// shaped answers sql from the plan cache after sh's pass over it; ok is
// the pass's.
func (pc *PlanCache) shaped(sh *shaper, sql string, ok bool) Facts {
	if !ok {
		pc.bypasses.Add(1)
		return literal(sql, sh.args, Facts{})
	}
	vals := sh.values()
	if e := pc.lookup(sh.key); e != nil {
		if e.facts.stmt == nil {
			pc.bypasses.Add(1)
			return literal(sql, sh.args, e.facts)
		}
		pc.hits.Add(1)
		f := e.facts
		f.args = vals
		return f
	}
	pc.misses.Add(1)
	toks, err := lexSQL(sql)
	if err != nil {
		return Facts{err: err} // unreachable: the pass lexed the same text
	}
	ptoks, _ := sh.shapeTokens(toks)
	norm := normalizeTokens(toks)
	e := &planEntry{key: string(sh.key), facts: Facts{Digest: digestOf(norm), Norm: norm}}
	if st, err := parseTokens(ptoks); err == nil {
		e.facts.stmt = st
		e.facts.Tables, e.facts.Cacheable = stmtFacts(st)
		if e.facts.Cacheable {
			e.facts.reads = &readPlan{sel: st.(*SelectStmt)}
		}
	}
	// Without a parse, a negative entry: this shape never parses in
	// parameterized form (e.g. a literal in a position the grammar needs
	// verbatim).
	pc.store(e)
	f := e.facts
	if f.stmt == nil {
		f.stmt, f.err = parseTokens(toks)
		f.args = sh.args
		return f
	}
	f.args = vals
	return f
}

// literal is f with sql parsed as written and args bound to its ?: the
// statement of a text the shape tier does not take.
func literal(sql string, args []Value, f Facts) Facts {
	f.stmt, f.err = Parse(sql)
	f.args = args
	return f
}
