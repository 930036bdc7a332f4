package sqldb

import "strings"

// Join methods. A join step is a nested loop unless the planner found, at
// plan time, one conjunct of its condition a hash can serve (hashKeyFor);
// the choice is on the joinPlan, EXPLAIN prints it, and joinOn does what
// it says. Either way the whole condition decides each pair it is
// evaluated on — the hash only chooses which pairs those are — so a hash
// join returns the nested loop's rows in the nested loop's order.

// keyClass is the kind of map that compares the two columns of a hash key
// the way Compare does.
type keyClass int

const (
	keyInt    keyClass = iota // INTEGER = INTEGER, exact; BOOLEAN = BOOLEAN as 0 and 1
	keyFloat                  // a DOUBLE on either side: both through AsFloat
	keyString                 // VARCHAR = VARCHAR
)

// keyClassOf returns the class two declared column types compare in. A
// VARCHAR beside a number has none: Compare parses the string, and fails
// on the pair whose string is not a number.
func keyClassOf(a, b Type) (keyClass, bool) {
	numeric := func(t Type) bool { return t == TInt || t == TFloat }
	switch {
	case a == TInt && b == TInt, a == TBool && b == TBool:
		return keyInt, true
	case numeric(a) && numeric(b):
		return keyFloat, true
	case a == TString && b == TString:
		return keyString, true
	}
	return 0, false
}

// hashKeyFor chooses the join method of a step that joins the last of
// rels onto the join of the others under cond: the first conjunct
// `L.col = R.col` with one column from the left and one from the right —
// what a table stores has its column's declared type or is NULL — and of
// one comparison class. nil means a nested loop. The references are
// resolved as the compiler will resolve them against the step's layout,
// so where it succeeds the two agree on which side each column is.
func hashKeyFor(cond Expr, rels []*relPlan) *hashKey {
	if cond == nil {
		return nil
	}
	left := rels[:len(rels)-1]
	var buf [4]Expr
	for _, conj := range appendConjuncts(buf[:0], cond) {
		b, ok := conj.(*Binary)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := baseColumn(b.L, rels)
		r, rok := baseColumn(b.R, rels)
		if !lok || !rok || (l.rel == len(left)) == (r.rel == len(left)) {
			continue
		}
		if class, ok := keyClassOf(l.typ(rels), r.typ(rels)); ok {
			return &hashKey{conj: b, class: class}
		}
	}
	return nil
}

// relColumn is a column of a base table among a FROM clause's relations:
// the relation's index and the column's position in its table.
type relColumn struct{ rel, pos int }

func (c relColumn) typ(rels []*relPlan) Type { return rels[c.rel].t.Columns[c.pos].Type }

// baseColumn resolves e, when it is a reference to a column of a base
// table among rels, as the compiler will resolve it.
func baseColumn(e Expr, rels []*relPlan) (relColumn, bool) {
	c, ok := e.(*ColumnRef)
	if !ok {
		return relColumn{}, false
	}
	rel := refRel(c, rels)
	if rel < 0 {
		return relColumn{}, false
	}
	name := strings.ToLower(c.Column)
	for pos, col := range rels[rel].cols {
		if col.name == name {
			return relColumn{rel, pos}, true
		}
	}
	return relColumn{}, false
}

// hashTable finds the right rows of a hash join by key. Rows with one key
// are chained through next in right order, so a probe walks them as the
// nested loop would meet them; a NULL key is in no chain and finds none.
type hashTable struct {
	class  keyClass
	ints   map[int64]int32 // key → first row with it
	floats map[float64]int32
	strs   map[string]int32
	next   []int32 // next[i]: the next row with row i's key, -1 after the last
}

// buildHash hashes column slot of rows. It goes through them backwards, so
// that each chain starts at the first row with its key.
func buildHash(rows [][]Value, slot int, class keyClass) *hashTable {
	h := &hashTable{class: class, next: make([]int32, len(rows))}
	switch class {
	case keyInt:
		h.ints = make(map[int64]int32, len(rows))
	case keyFloat:
		h.floats = make(map[float64]int32, len(rows))
	case keyString:
		h.strs = make(map[string]int32, len(rows))
	}
	for i := len(rows) - 1; i >= 0; i-- {
		v := rows[i][slot]
		if v.IsNull() {
			continue
		}
		h.next[i] = h.first(v)
		switch class {
		case keyInt:
			h.ints[v.I] = int32(i)
		case keyFloat:
			f, _ := v.AsFloat()
			h.floats[f] = int32(i)
		case keyString:
			h.strs[v.S] = int32(i)
		}
	}
	return h
}

// equal reports whether a probe key finds a build key in the hash of
// class k: neither is NULL, and they are one key of the class's map.
func (k *hashKey) equal(probe, build Value) bool {
	switch {
	case probe.IsNull() || build.IsNull():
		return false
	case k.class == keyFloat:
		p, _ := probe.AsFloat()
		b, _ := build.AsFloat()
		return p == b
	case k.class == keyInt:
		return probe.I == build.I
	}
	return probe.S == build.S
}

// first returns the first row whose key compares equal to v, or -1.
func (h *hashTable) first(v Value) int32 {
	var i int32
	var ok bool
	switch {
	case v.IsNull():
	case h.class == keyInt:
		i, ok = h.ints[v.I]
	case h.class == keyFloat:
		f, _ := v.AsFloat()
		i, ok = h.floats[f]
	default:
		i, ok = h.strs[v.S]
	}
	if !ok {
		return -1
	}
	return i
}

// joinOn performs the join jp of a with b: for each row of a in order,
// the rows of b in order that the condition holds with — every one in a
// cross join, which has none; LEFT emits a NULL-padded row for a left row
// that has none. Each pair is put together in one scratch row, the
// condition is evaluated on it, and a pair kept goes to emit as that row,
// which is valid only during the call: nothing is copied here. It returns
// the pairs it evaluated and the rows it emitted.
func joinOn(a, b [][]Value, jp *joinPlan, emit func(row []Value)) (examined, returned int, err error) {
	if jp.predErr != nil {
		return 0, 0, jp.predErr
	}
	wa := jp.leftWidth
	// One left row probes once: a pass over the right rows that compares
	// their keys as the hash would finds the same pairs, without the hash.
	var hash *hashTable
	if jp.hash != nil && len(a) > 1 {
		hash = buildHash(b, jp.hash.build, jp.hash.class)
	}
	scratch := make([]Value, jp.width)
	// pair evaluates the condition on the scratch row with rb in its right
	// half, and emits the row when the condition holds.
	pair := func(rb []Value) (bool, error) {
		examined++
		copy(scratch[wa:], rb)
		if jp.pred != nil {
			if t, err := jp.pred(scratch); err != nil || t != triTrue {
				return false, err
			}
		}
		returned++
		emit(scratch)
		return true, nil
	}
	for _, ra := range a {
		copy(scratch, ra)
		matched := false
		if hash != nil {
			for i := hash.first(ra[jp.hash.probe]); i >= 0; i = hash.next[i] {
				kept, err := pair(b[i])
				if err != nil {
					return 0, 0, err
				}
				matched = matched || kept
			}
		} else {
			for _, rb := range b {
				if jp.hash != nil && !jp.hash.equal(ra[jp.hash.probe], rb[jp.hash.build]) {
					continue
				}
				kept, err := pair(rb)
				if err != nil {
					return 0, 0, err
				}
				matched = matched || kept
			}
		}
		if jp.kind == JoinLeft && !matched {
			clear(scratch[wa:])
			returned++
			emit(scratch)
		}
	}
	return examined, returned, nil
}

// rowArena keeps copies of rows in chunks, each one backing array for
// many rows, so that a row kept is not an allocation of its own. A chunk
// is never regrown — a row handed out stays where it is, read-only — and
// each chunk is twice the rows of the last, from one.
type rowArena struct {
	free  []Value // what is left of the current chunk
	chunk int     // the rows of the current chunk
}

// keep returns a copy of r.
func (ar *rowArena) keep(r []Value) []Value {
	if len(ar.free) < len(r) {
		ar.chunk = max(1, 2*ar.chunk)
		ar.free = make([]Value, ar.chunk*len(r))
	}
	row := ar.free[:len(r):len(r)]
	copy(row, r)
	ar.free = ar.free[len(r):]
	return row
}
