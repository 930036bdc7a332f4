package sqldb

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Prepared-plan cache.
//
// The macro layer substitutes request values into SQL text, so production
// traffic collapses to a handful of statement shapes differing only in
// literals. Instead of re-lexing and re-parsing every statement, the
// session lexes once, extracts the literals into bind parameters, and
// looks the shape up by its statement digest (the same normalization
// stmtstats keys on). A hit skips parsing entirely: the cached AST is
// executed as it is — nothing writes to a parsed tree, so concurrent
// executions share it — with the extracted values bound.
//
// Cached entries are validated against per-table *schema* versions — a
// DDL-only counter separate from the DML-bumped result-cache versions,
// because data changes never affect a parsed statement's validity but
// catalog changes may affect planning. Execution re-resolves tables by
// name under the catalog lock every time, so a stale entry can never
// produce wrong results; validation exists to keep planning decisions and
// the cache's bookkeeping honest, and the invalidation counter observable.

// DefaultPlanCacheCap bounds the number of cached statement shapes.
const DefaultPlanCacheCap = 256

// textCapFactor sizes the exact-text front map relative to the shape
// cap: distinct literal texts outnumber shapes (one per literal binding),
// but each entry is just a digest and a value slice.
const textCapFactor = 4

// textEntry is the exact-text fast path: production traffic is
// zipf-skewed, so the same literal text repeats verbatim; remembering
// its extracted values and shape digest lets a repeat skip even the lex.
type textEntry struct {
	digest string
	norm   string
	vals   []Value
	elem   *list.Element
}

// planEntry is one cached shape. stmt is the parsed statement every
// execution of the shape shares; a nil stmt is a negative entry recording
// that the shape
// cannot take the parameterized path (so repeat executions skip the
// doomed parse attempt).
type planEntry struct {
	digest  string
	norm    string // full normalized shape, guarding against digest collisions
	stmt    Stmt
	nparams int
	tables  []string // lower-cased tables the statement references
	vers    []uint64 // schema versions of those tables at cache time
	epoch   uint64   // db schema epoch at cache time
	elem    *list.Element
}

// PlanCache is a bounded LRU of parsed statement shapes keyed by digest.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	lru     *list.List // front = most recently used; values are digests
	texts   map[string]*textEntry
	tlru    *list.List // text-map LRU; values are SQL texts

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypasses      atomic.Uint64
	invalidations atomic.Uint64
}

// NewPlanCache returns a cache holding at most cap shapes. cap <= 0
// means DefaultPlanCacheCap.
func NewPlanCache(cap int) *PlanCache {
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

// lookupText returns the exact-text entry for sql, bumping its recency.
func (pc *PlanCache) lookupText(sql string) *textEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	te, ok := pc.texts[sql]
	if !ok {
		return nil
	}
	pc.tlru.MoveToFront(te.elem)
	return te
}

// storeText records sql's extracted values and shape digest.
func (pc *PlanCache) storeText(sql, digest, norm string, vals []Value) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.texts[sql]; ok {
		pc.tlru.Remove(old.elem)
	}
	te := &textEntry{digest: digest, norm: norm, vals: vals}
	te.elem = pc.tlru.PushFront(sql)
	pc.texts[sql] = te
	for pc.tlru.Len() > pc.cap*textCapFactor {
		back := pc.tlru.Back()
		pc.tlru.Remove(back)
		delete(pc.texts, back.Value.(string))
	}
}

// removeText drops the exact-text entry for sql if present.
func (pc *PlanCache) removeText(sql string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if te, ok := pc.texts[sql]; ok {
		pc.tlru.Remove(te.elem)
		delete(pc.texts, sql)
	}
}

// entry returns the entry for digest with no shape checks, bumping its
// recency; the caller validates norm/arity itself.
func (pc *PlanCache) entry(digest string) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[digest]
	if !ok {
		return nil
	}
	pc.lru.MoveToFront(e.elem)
	return e
}

// lookup returns the entry for digest if its shape and arity match,
// bumping it to the LRU front. A digest whose stored shape differs (an
// FNV collision) is treated as absent.
func (pc *PlanCache) lookup(digest, norm string, nparams int) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[digest]
	if !ok {
		return nil
	}
	if e.norm != norm || (e.stmt != nil && e.nparams != nparams) {
		return nil
	}
	pc.lru.MoveToFront(e.elem)
	return e
}

// store inserts or replaces the entry for e.digest, evicting the least
// recently used shape when over capacity.
func (pc *PlanCache) store(e *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, ok := pc.entries[e.digest]; ok {
		pc.lru.Remove(old.elem)
	}
	e.elem = pc.lru.PushFront(e.digest)
	pc.entries[e.digest] = e
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(string))
	}
}

// remove drops the entry for digest if present.
func (pc *PlanCache) remove(digest string) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.entries[digest]; ok {
		pc.lru.Remove(e.elem)
		delete(pc.entries, digest)
	}
}

// len reports the number of cached shapes (including negative entries).
func (pc *PlanCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// contains reports whether digest currently has a positive cached plan.
func (pc *PlanCache) contains(digest string) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[digest]
	return ok && e.stmt != nil
}

// PlanCached reports whether sql's shape currently has a positive plan
// cached, along with the digest that keys it. Because literal extraction
// preserves the normalized shape, the digest of literal SQL equals the
// digest of its parameterized form, so tools (sqlsh's EXPLAIN footer)
// can probe provenance without executing anything.
func (db *Database) PlanCached(sql string) (digest string, cached bool) {
	digest, _ = DigestSQL(sql)
	return digest, db.plans.contains(digest)
}

// PlanCacheStats is a point-in-time summary of the plan cache, shown on
// /server-status ("Planner") and exported as db2www_sqldb_plan_cache_*
// metrics.
type PlanCacheStats struct {
	Size          int    `json:"size"`
	Cap           int    `json:"cap"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Bypasses      uint64 `json:"bypasses"`
	Invalidations uint64 `json:"invalidations"`
}

// PlanCacheStats returns current plan-cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	pc := db.plans
	return PlanCacheStats{
		Size:          pc.len(),
		Cap:           pc.cap,
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Bypasses:      pc.bypasses.Load(),
		Invalidations: pc.invalidations.Load(),
	}
}

// PlanCacheStatusRows renders PlanCacheStats for the /server-status
// "Planner" section.
func (db *Database) PlanCacheStatusRows() [][2]string {
	st := db.PlanCacheStats()
	return [][2]string{
		{"Cached plans", fmt.Sprintf("%d / %d", st.Size, st.Cap)},
		{"Hits", strconv.FormatUint(st.Hits, 10)},
		{"Misses", strconv.FormatUint(st.Misses, 10)},
		{"Bypasses", strconv.FormatUint(st.Bypasses, 10)},
		{"Invalidations", strconv.FormatUint(st.Invalidations, 10)},
	}
}

// --- schema versions ---

// bumpSchema advances the DDL schema version of each named table. Called
// from table DDL (create/alter/drop) and index DDL (access paths feed
// planning even though results don't change).
func (db *Database) bumpSchema(names ...string) {
	db.sv.mu.Lock()
	if db.sv.versions == nil {
		db.sv.versions = map[string]uint64{}
	}
	for _, n := range names {
		if n == "" {
			continue
		}
		db.sv.seq++
		db.sv.versions[strings.ToLower(n)] = db.sv.seq
	}
	db.sv.mu.Unlock()
}

// bumpSchemaAll invalidates every cached plan at once by advancing the
// schema epoch; used when a transaction rolls back DDL (the undo replay
// may touch catalog state no single table name captures).
func (db *Database) bumpSchemaAll() { db.schemaEpoch.Add(1) }

// schemaVersions snapshots the schema versions of the named tables.
func (db *Database) schemaVersions(names []string) []uint64 {
	out := make([]uint64, len(names))
	db.sv.mu.Lock()
	for i, n := range names {
		out[i] = db.sv.versions[n]
	}
	db.sv.mu.Unlock()
	return out
}

// planEntryValid reports whether e's schema snapshot still holds.
func (db *Database) planEntryValid(e *planEntry) bool {
	if e.epoch != db.schemaEpoch.Load() {
		return false
	}
	for i, v := range db.schemaVersions(e.tables) {
		if v != e.vers[i] {
			return false
		}
	}
	return true
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

// paramizeTokens rewrites toks with every string and number literal
// replaced by a ? parameter, returning the extracted values in parameter
// order. ok is false when the statement should take the literal path:
// not a DML/SELECT head, or it already carries ? parameters.
//
// Numbers in ORDER BY lists are kept literal — a bare integer there is a
// projection ordinal, which the executor resolves from the *Literal*
// node; parameterizing it would silently change semantics. Numbers in
// type suffixes (VARCHAR(10)) are kept literal because they are part of
// the type. Both exclusions only forgo extraction, never correctness.
func paramizeTokens(toks []token) ([]token, []Value, bool) {
	if len(toks) == 0 || toks[0].kind != tkKeyword || !paramizableHeads[toks[0].text] {
		return nil, nil, false
	}
	out := make([]token, 0, len(toks))
	var vals []Value
	depth := 0
	var orderDepths []int // paren depths with an active ORDER BY list
	typeParen := -1       // paren depth of an open type-suffix group, -1 when none
	for i, t := range toks {
		switch t.kind {
		case tkParam:
			return nil, nil, false
		case tkOp:
			switch t.text {
			case "(":
				depth++
			case ")":
				depth--
				if typeParen >= 0 && depth < typeParen {
					typeParen = -1
				}
				for n := len(orderDepths); n > 0 && depth < orderDepths[n-1]; n = len(orderDepths) {
					orderDepths = orderDepths[:n-1]
				}
			case ";":
				orderDepths = orderDepths[:0]
			}
		case tkKeyword:
			switch t.text {
			case "ORDER":
				if i+1 < len(toks) && toks[i+1].kind == tkKeyword && toks[i+1].text == "BY" {
					orderDepths = append(orderDepths, depth)
				}
			case "LIMIT", "OFFSET", "FETCH", "UNION":
				if n := len(orderDepths); n > 0 && orderDepths[n-1] == depth {
					orderDepths = orderDepths[:n-1]
				}
			default:
				if typeKeywords[t.text] && i+1 < len(toks) &&
					toks[i+1].kind == tkOp && toks[i+1].text == "(" {
					typeParen = depth + 1
				}
			}
		case tkNumber:
			inOrder := len(orderDepths) > 0 && depth >= orderDepths[len(orderDepths)-1]
			inType := typeParen >= 0 && depth >= typeParen
			if !inOrder && !inType {
				vals = append(vals, t.num)
				out = append(out, token{kind: tkParam, text: "?", pos: t.pos})
				continue
			}
		case tkString:
			vals = append(vals, NewString(t.text))
			out = append(out, token{kind: tkParam, text: "?", pos: t.pos})
			continue
		}
		out = append(out, t)
	}
	return out, vals, true
}

// stmtTables collects the lower-cased names of every table st references:
// FROM entries, joins, DML targets, and all subqueries (derived tables,
// IN/EXISTS/scalar subqueries, UNION arms).
func stmtTables(st Stmt) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		ln := strings.ToLower(n)
		if ln != "" && !seen[ln] {
			seen[ln] = true
			out = append(out, ln)
		}
	}
	var visitSel func(s *SelectStmt)
	visitExpr := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			if sq, ok := x.(*Subquery); ok {
				visitSel(sq.Sel)
			}
			return true
		})
	}
	visitSel = func(s *SelectStmt) {
		if s == nil {
			return
		}
		for i := range s.From {
			tr := &s.From[i]
			add(tr.Table)
			visitSel(tr.Sub)
			for j := range tr.Joins {
				add(tr.Joins[j].Table)
				visitSel(tr.Joins[j].Sub)
				visitExpr(tr.Joins[j].On)
			}
		}
		for _, it := range s.Items {
			visitExpr(it.Expr)
		}
		visitExpr(s.Where)
		for _, g := range s.GroupBy {
			visitExpr(g)
		}
		visitExpr(s.Having)
		for _, o := range s.OrderBy {
			visitExpr(o.Expr)
		}
		visitExpr(s.Limit)
		visitExpr(s.Offset)
		for _, u := range s.Unions {
			visitSel(u.Sel)
		}
	}
	switch x := st.(type) {
	case *SelectStmt:
		visitSel(x)
	case *InsertStmt:
		add(x.Table)
		for _, row := range x.Rows {
			for _, e := range row {
				visitExpr(e)
			}
		}
	case *UpdateStmt:
		add(x.Table)
		for _, sc := range x.Set {
			visitExpr(sc.Value)
		}
		visitExpr(x.Where)
	case *DeleteStmt:
		add(x.Table)
		visitExpr(x.Where)
	}
	return out
}

// prepareCached resolves sql through the plan cache. On success it
// returns the shape's parsed statement, which the caller must not write
// to, with the extracted literal values as its bind parameters, plus the
// digest/normalized shape (saving the recording path its own lex). ok is
// false when the
// statement must take the literal Parse path — shape not parameterizable,
// or the parameterized form failed to parse (the literal path then
// reports the authoritative error).
func (db *Database) prepareCached(sql string) (st Stmt, vals []Value, digest, norm string, hit, ok bool) {
	pc := db.plans
	// Exact-text fast path: a verbatim repeat skips even the lex. The
	// values slice is copied out because callers hand it to execution.
	if te := pc.lookupText(sql); te != nil {
		e := pc.entry(te.digest)
		if e != nil && e.stmt != nil && e.norm == te.norm &&
			e.nparams == len(te.vals) && db.planEntryValid(e) {
			pc.hits.Add(1)
			return e.stmt, append([]Value(nil), te.vals...), e.digest, e.norm, true, true
		}
		// Stale or gone; re-resolve through the token path (a stale shape
		// entry is removed there, counting the invalidation).
		pc.removeText(sql)
	}
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, nil, "", "", false, false
	}
	ptoks, vals, pok := paramizeTokens(toks)
	if !pok {
		pc.bypasses.Add(1)
		return nil, nil, "", "", false, false
	}
	norm = normalizeTokens(toks)
	digest = digestOf(norm)
	if e := pc.lookup(digest, norm, len(vals)); e != nil {
		if e.stmt == nil {
			pc.bypasses.Add(1)
			return nil, nil, "", "", false, false
		}
		if db.planEntryValid(e) {
			pc.hits.Add(1)
			pc.storeText(sql, digest, norm, vals)
			return e.stmt, vals, digest, norm, true, true
		}
		pc.remove(digest)
		pc.invalidations.Add(1)
	}
	pc.misses.Add(1)
	master, perr := parseTokens(ptoks)
	if perr != nil {
		// Negative entry: this shape never parses in parameterized form
		// (e.g. a literal in a position the grammar needs verbatim).
		pc.store(&planEntry{digest: digest, norm: norm})
		return nil, nil, "", "", false, false
	}
	tables := stmtTables(master)
	e := &planEntry{
		digest:  digest,
		norm:    norm,
		stmt:    master,
		nparams: len(vals),
		tables:  tables,
		vers:    db.schemaVersions(tables),
		epoch:   db.schemaEpoch.Load(),
	}
	pc.store(e)
	pc.storeText(sql, digest, norm, vals)
	return master, vals, digest, norm, false, true
}
