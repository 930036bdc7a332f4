package sqldb

import (
	"container/list"
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
// bounded map, building no token slice. A hit skips parsing: the cached
// AST is executed as it is — nothing writes to a parsed tree, so
// concurrent executions share it — with the extracted values bound. A
// verbatim repeat of a text skips the lex as well.
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

// textCapFactor sizes the exact-text front map relative to the shape
// cap: distinct literal texts outnumber shapes (one per literal binding),
// but each entry is just a pointer to its shape and a value slice.
const textCapFactor = 4

// textEntry is the exact-text fast path: production traffic is
// zipf-skewed, so the same literal text repeats verbatim; remembering
// its extracted values and the shape it resolved to lets a repeat skip
// even the lex.
type textEntry struct {
	shape *planEntry
	vals  []Value
	elem  *list.Element
}

// planEntry is one cached shape, immutable once stored. stmt is the parsed
// statement every execution of the shape shares; a nil stmt is a negative
// entry recording that the shape cannot take the parameterized path (so
// repeat executions skip the doomed parse attempt). facts is what a result
// cache asks about the shape — like the parse, a pure function of the
// tokens.
type planEntry struct {
	key   string // the shaper's key of the statement
	facts Facts
	stmt  Stmt
	elem  *list.Element
}

// Facts is what a result cache needs to know of a statement before it
// runs: the digest and normalized shape it is recorded under, the
// lower-cased base tables it reads (sorted, deduplicated), and whether its
// result depends on nothing but those tables' contents and the statement
// text (stmtFacts' rule). The zero Facts says: not cacheable.
type Facts struct {
	Digest, Norm string
	Tables       []string
	Cacheable    bool
}

// PlanCache is a bounded LRU of parsed statement shapes, with a bounded
// LRU of the texts that resolved to them in front.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry // by key
	lru     *list.List            // front = most recently used; values are keys
	texts   map[string]*textEntry
	tlru    *list.List // text-map LRU; values are SQL texts

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
		texts:   map[string]*textEntry{},
		tlru:    list.New(),
	}
}

// lookupText returns the exact-text entry for sql, bumping its recency and
// its shape's (which may have left the shape map since: the text entry
// keeps the parse, and moving an element no list holds does nothing).
func (pc *PlanCache) lookupText(sql string) *textEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	te, ok := pc.texts[sql]
	if !ok {
		return nil
	}
	pc.tlru.MoveToFront(te.elem)
	pc.lru.MoveToFront(te.shape.elem)
	return te
}

// lookup returns the shape cached under key, bumping its recency, and
// remembers that sql resolves to it with vals extracted.
func (pc *PlanCache) lookup(key []byte, sql string, vals []Value) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[string(key)]
	if !ok {
		return nil
	}
	pc.lru.MoveToFront(e.elem)
	pc.putText(sql, e, vals)
	return e
}

// store inserts e, which sql resolved to with vals extracted, evicting the
// least recently used shape when over capacity. Two sessions that missed
// on one shape both store it; the later parse replaces its equal.
func (pc *PlanCache) store(e *planEntry, sql string, vals []Value) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.entries[e.key]; ok {
		pc.lru.Remove(old.elem)
	}
	e.elem = pc.lru.PushFront(e.key)
	pc.entries[e.key] = e
	for pc.lru.Len() > pc.cap {
		delete(pc.entries, pc.lru.Remove(pc.lru.Back()).(string))
	}
	pc.putText(sql, e, vals)
}

// putText records that sql resolves to e with vals extracted; a shape
// without a parse gets no text entries. Caller holds mu.
func (pc *PlanCache) putText(sql string, e *planEntry, vals []Value) {
	if e.stmt == nil {
		return
	}
	if old, ok := pc.texts[sql]; ok {
		pc.tlru.Remove(old.elem)
	}
	pc.texts[sql] = &textEntry{shape: e, vals: vals, elem: pc.tlru.PushFront(sql)}
	for pc.tlru.Len() > pc.cap*textCapFactor {
		delete(pc.texts, pc.tlru.Remove(pc.tlru.Back()).(string))
	}
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
	sh := shapers.Get().(*shaper)
	defer sh.release()
	if _, ok := sh.shapeTokens(toks); ok {
		pc := db.plans
		pc.mu.Lock()
		e := pc.entries[string(sh.key)]
		pc.mu.Unlock()
		cached = e != nil && e.stmt != nil
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

// typeKeywords introduce a parenthesised length/precision whose numbers
// are part of the type, not values (CAST(x AS VARCHAR(10))).
var typeKeywords = map[string]bool{
	"VARCHAR": true, "CHAR": true, "CHARACTER": true,
	"DECIMAL": true, "NUMERIC": true, "FLOAT": true,
}

// shaper is the one pass from a statement to its shape. Fed the tokens of
// the statement in order, it replaces every string and number literal by a
// ? parameter, collects the values in parameter order, and renders the key
// of what is left (the shape) as it goes. The statement bypasses the shape
// tier — it takes the literal path — when it does not have a DML/SELECT
// head or already carries ? parameters.
//
// Numbers in ORDER BY lists are kept literal — a bare integer there is a
// projection ordinal, which the executor resolves from the *Literal*
// node; parameterizing it would silently change semantics. Numbers in
// type suffixes (VARCHAR(10)) are kept literal because they are part of
// the type. The pass looks back, never ahead: BY opens an ORDER BY list
// when the token before it was ORDER, and ( opens a type suffix when the
// token before it was a type keyword.
//
// The key renders every token as the parser reads it, one space apart, so
// that two statements with one key parse to one tree: identifiers as
// written, which is how the tree names output columns, and quoted, so that
// none reads as a keyword or as two; the numbers left in place as written.
// Only the extracted values and the positions error messages cite are not
// in it. A shaper is reused (shapers); its buffers are scratch.
type shaper struct {
	key       []byte
	vals      []Value
	orders    []int // paren depths with an active ORDER BY list
	depth     int
	typeParen int // paren depth of an open type-suffix group, -1 when none
	prevKind  tokKind
	prevText  string
	started   bool
	bypass    bool
}

// shapers keeps shapers, and their buffers, between statements.
var shapers = sync.Pool{New: func() any { return new(shaper) }}

// maxKeptScratch bounds the buffers a shaper keeps when it goes back to
// the pool: a statement of a 100 000-literal IN list should not pin its
// megabytes.
const maxKeptScratch = 64 << 10

func (sh *shaper) release() {
	if cap(sh.key) > maxKeptScratch {
		sh.key = nil
	}
	if cap(sh.vals) > maxKeptScratch/32 {
		sh.vals = nil
	}
	clear(sh.vals[:cap(sh.vals)]) // drop the strings the values point into
	shapers.Put(sh)
}

func (sh *shaper) reset() {
	*sh = shaper{key: sh.key[:0], vals: sh.vals[:0], orders: sh.orders[:0], typeParen: -1}
}

// step feeds the next token and reports whether it was extracted as a
// parameter. After the token that decides a bypass it does nothing.
func (sh *shaper) step(t *token) (param bool) {
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
		sh.bypass = true
		return false
	case tkOp:
		switch t.text {
		case "(":
			sh.depth++
			if prevKind == tkKeyword && typeKeywords[prevText] {
				sh.typeParen = sh.depth
			}
		case ")":
			sh.depth--
			if sh.typeParen >= 0 && sh.depth < sh.typeParen {
				sh.typeParen = -1
			}
			for n := len(sh.orders); n > 0 && sh.depth < sh.orders[n-1]; n = len(sh.orders) {
				sh.orders = sh.orders[:n-1]
			}
		case ";":
			sh.orders = sh.orders[:0]
		}
	case tkKeyword:
		switch t.text {
		case "BY":
			if prevKind == tkKeyword && prevText == "ORDER" {
				sh.orders = append(sh.orders, sh.depth)
			}
		case "LIMIT", "OFFSET", "FETCH", "UNION":
			if n := len(sh.orders); n > 0 && sh.orders[n-1] == sh.depth {
				sh.orders = sh.orders[:n-1]
			}
		}
	case tkNumber:
		inOrder := len(sh.orders) > 0 && sh.depth >= sh.orders[len(sh.orders)-1]
		inType := sh.typeParen >= 0 && sh.depth >= sh.typeParen
		if !inOrder && !inType {
			sh.vals = append(sh.vals, t.num)
			sh.key = append(sh.key, " ?"...)
			return true
		}
	case tkString:
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

// shapeText runs the pass over sql, lexing it one token at a time into no
// slice: the path of every text the exact-text tier does not hold. ok is
// false when the statement bypasses; err is the lexer's, which the whole
// text is lexed for, bypass or not.
func (sh *shaper) shapeText(sql string) (ok bool, err error) {
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

// shapeTokens runs the pass over a lexed statement and returns its tokens
// with every extracted literal replaced by a parameter: what parseTokens
// parses once for the shape.
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

// values returns a copy of the extracted values, nil when there are none:
// the caller keeps it, the shaper goes back to the pool.
func (sh *shaper) values() []Value {
	if len(sh.vals) == 0 {
		return nil
	}
	return append(make([]Value, 0, len(sh.vals)), sh.vals...)
}

// prepareCached resolves sql through the plan cache: the shape's parsed
// statement, which the caller must not write to, with the extracted
// literal values as its bind parameters and the digest and normalized
// shape (saving the recording path its own lex). It returns nil when the
// statement must take the literal Parse path (see resolve).
func (db *Database) prepareCached(sql string) *prepared {
	pc := db.plans
	// Exact-text fast path: a verbatim repeat skips even the lex. The
	// values slice is copied out because callers hand it to execution.
	if te := pc.lookupText(sql); te != nil {
		pc.hits.Add(1)
		return te.shape.prepared(append([]Value(nil), te.vals...))
	}
	if e, vals := pc.resolve(sql); e != nil {
		return e.prepared(vals)
	}
	return nil
}

// StatementFacts is what the plan cache knows of sql's shape, parsed and
// walked once per shape: a text seen before costs a map lookup, and the
// execution that follows a first sight finds the text cached. A statement
// the plan cache does not take (DDL, caller-supplied parameters, a syntax
// error) is not cacheable.
func (db *Database) StatementFacts(sql string) Facts {
	pc := db.plans
	if te := pc.lookupText(sql); te != nil {
		pc.hits.Add(1)
		return te.shape.facts
	}
	if e, _ := pc.resolve(sql); e != nil {
		return e.facts
	}
	return Facts{}
}

// resolve is the path of a text the exact-text tier does not hold: one
// pass over the text to its shape key and values, and a lookup. Only a
// shape not cached yet lexes the text into tokens, to parse it. It returns
// nil when the statement must take the literal Parse path — shape not
// parameterizable, or the parameterized form failed to parse (the literal
// path then reports the authoritative error).
func (pc *PlanCache) resolve(sql string) (*planEntry, []Value) {
	sh := shapers.Get().(*shaper)
	defer sh.release()
	if ok, err := sh.shapeText(sql); err != nil {
		return nil, nil
	} else if !ok {
		pc.bypasses.Add(1)
		return nil, nil
	}
	vals := sh.values()
	if e := pc.lookup(sh.key, sql, vals); e != nil {
		if e.stmt == nil {
			pc.bypasses.Add(1)
			return nil, nil
		}
		pc.hits.Add(1)
		return e, vals
	}
	pc.misses.Add(1)
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, nil // unreachable: the pass lexed the same text
	}
	ptoks, _ := sh.shapeTokens(toks)
	norm := normalizeTokens(toks)
	e := &planEntry{key: string(sh.key), facts: Facts{Digest: digestOf(norm), Norm: norm}}
	if st, err := parseTokens(ptoks); err == nil {
		e.stmt = st
		e.facts.Tables, e.facts.Cacheable = stmtFacts(st)
	}
	// Without a parse, a negative entry: this shape never parses in
	// parameterized form (e.g. a literal in a position the grammar needs
	// verbatim).
	pc.store(e, sql, vals)
	if e.stmt == nil {
		return nil, nil
	}
	return e, vals
}

// prepared is the shape's statement with vals bound.
func (e *planEntry) prepared(vals []Value) *prepared {
	return &prepared{st: e.stmt, params: vals, digest: e.facts.Digest, norm: e.facts.Norm}
}
