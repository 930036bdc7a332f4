package sqldb

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"strings"
)

// ORDER BY sorts abbreviated keys. The rows' first sort keys are values
// behind two pointers each — a row's slice, then a string's bytes — and a
// comparator that chases them misses the cache four times a call. So the
// sort runs on a contiguous slice of small records instead, one a row: the
// row's ordinal, whether its first key is NULL, and sixteen bytes that
// order the way the first key does wherever they differ. Most comparisons
// end on those integers; the ones that tie go to the keys themselves, as
// every comparison once did. docs/PLANNER.md, "Sort and projection".

// sortKeys addresses the sort keys of a row set, nk a row. Keys that are
// columns of the rows are read where they are: key j of row i is
// rows[i][slots[j]]. Keys that had to be evaluated lie row after row in
// flat, and slots is nil.
type sortKeys struct {
	nk    int
	rows  [][]Value
	slots []int
	flat  []Value
}

func (k *sortKeys) len() int {
	if k.slots != nil {
		return len(k.rows)
	}
	return len(k.flat) / k.nk
}

func (k *sortKeys) at(i int32, j int) *Value {
	if k.slots != nil {
		return &k.rows[i][k.slots[j]]
	}
	return &k.flat[int(i)*k.nk+j]
}

// sortRec is one row in the sort. Of two records the one with the smaller
// (nonNull, hi, lo) comes first, whichever way the first key is ordered:
// a descending key's three fields are stored complemented.
type sortRec struct {
	hi, lo  uint64 // the abbreviation; zero for NULL
	ord     int32
	nonNull uint8
}

// sortOrder returns the order ORDER BY puts the rows of k in, as a
// permutation of their ordinals. NULLs sort first ascending and last
// descending; rows that tie on every key keep their ordinal order, which
// makes the sort stable without a stable algorithm. The records hold no
// pointers, so the garbage collector's write barrier stays out of the
// swaps. An abbreviation only ever decides what the keys would decide the
// same way, so the comparisons made, their answers and the first error
// raised among them are those of comparing the keys alone.
func sortOrder(k sortKeys, order []OrderItem) ([]int32, error) {
	recs := k.abbreviate(order[0].Desc)
	var sortErr error
	slices.SortFunc(recs, func(a, b sortRec) int {
		switch {
		case a.nonNull != b.nonNull:
			return cmp.Compare(a.nonNull, b.nonNull)
		case a.hi != b.hi:
			return cmp.Compare(a.hi, b.hi)
		case a.lo != b.lo:
			return cmp.Compare(a.lo, b.lo)
		}
		for j := range order {
			c, err := compareSortKeys(k.at(a.ord, j), k.at(b.ord, j))
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c == 0 {
				continue
			}
			if order[j].Desc {
				return -c
			}
			return c
		}
		return cmp.Compare(a.ord, b.ord)
	})
	perm := make([]int32, len(recs))
	for i := range recs {
		perm[i] = recs[i].ord
	}
	return perm, sortErr
}

// abbreviate builds the records of k's rows from their first keys. What
// an abbreviation is depends on what the column holds besides NULLs:
//
//	INTEGER only            the integer, sign bit flipped
//	DOUBLE, or both         the total-order bits of the value as a float64,
//	                        which is how Compare sees an INTEGER beside a DOUBLE
//	VARCHAR only            its first sixteen bytes, big-endian, zero-padded
//	BOOLEAN only            0 or 1
//	anything else, or NaN   zero: Compare parses, fails or calls everything
//	                        equal there, so every pair is left to it
//
// Each maps values Compare calls different to integers in the same order
// or to the same integer, never to the opposite order: float64(i) is
// monotone in i, and a string sorts before every extension of itself as
// its padding sorts before or with the extension's bytes.
func (k *sortKeys) abbreviate(desc bool) []sortRec {
	const (
		ints, floats, strs, bools = 1 << TInt, 1 << TFloat, 1 << TString, 1 << TBool
		nan                       = 1 << 7
	)
	recs := make([]sortRec, k.len())
	var class uint8
	for i := range recs {
		v := k.at(int32(i), 0)
		class |= 1 << v.T
		if v.T == TFloat && v.Float() != v.Float() {
			class |= nan
		}
	}
	class &^= 1 << TNull
	for i := range recs {
		r := &recs[i]
		r.ord = int32(i)
		if v := k.at(r.ord, 0); v.T != TNull {
			r.nonNull = 1
			switch class {
			case ints:
				r.hi = uint64(v.I) ^ 1<<63
			case floats, ints | floats:
				f, _ := v.AsFloat()
				r.hi = floatOrderBits(f)
			case strs:
				var b [16]byte
				copy(b[:], v.S)
				r.hi, r.lo = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
			case bools:
				if v.Bool() {
					r.hi = 1
				}
			}
		}
		if desc {
			r.nonNull, r.hi, r.lo = r.nonNull^1, ^r.hi, ^r.lo
		}
	}
	return recs
}

// floatOrderBits maps the floats that are not NaN to integers in their
// order, −0 with +0.
func floatOrderBits(f float64) uint64 {
	if f == 0 {
		f = 0 // −0 is 0 to Compare
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// compareSortKeys is Compare with NULL ordered before every value.
func compareSortKeys(a, b *Value) (int, error) {
	switch {
	case a.T == TNull && b.T == TNull:
		return 0, nil
	case a.T == TNull:
		return -1, nil
	case b.T == TNull:
		return 1, nil
	case a.T == TString && b.T == TString:
		return strings.Compare(a.S, b.S), nil
	}
	return Compare(*a, *b)
}
