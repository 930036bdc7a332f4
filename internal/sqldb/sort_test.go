package sqldb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceSortOrder is sortOrder as it was before it sorted abbreviated
// keys, word for word: a permutation of ordinals, every comparison made on
// the keys themselves. It is the oracle for the permutation and for the
// first error; here it only checks.
func referenceSortOrder(keys []Value, order []OrderItem) ([]int32, error) {
	nk := len(order)
	perm := make([]int32, len(keys)/nk)
	for i := range perm {
		perm[i] = int32(i)
	}
	var sortErr error
	slices.SortFunc(perm, func(a, b int32) int {
		ka, kb := keys[int(a)*nk:], keys[int(b)*nk:]
		for j := range order {
			c, err := compareSortKeys(&ka[j], &kb[j])
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
		return cmp.Compare(a, b)
	})
	return perm, sortErr
}

// checkSortOrder holds sortOrder against the reference on one key set, in
// both shapes sortOrder is handed keys in: evaluated, row after row, and
// as columns of rows that hold other columns too.
func checkSortOrder(t *testing.T, flat []Value, order []OrderItem) {
	t.Helper()
	nk := len(order)
	n := len(flat) / nk
	want, wantErr := referenceSortOrder(flat, order)

	// The same keys as columns 1, 3, 5… of rows twice as wide, the last
	// key first.
	rows, slots := make([][]Value, n), make([]int, nk)
	for j := range slots {
		slots[j] = 2*(nk-1-j) + 1
	}
	for i := range rows {
		rows[i] = make([]Value, 2*nk)
		for j, slot := range slots {
			rows[i][slot] = flat[i*nk+j]
			rows[i][slot-1] = NewInt(int64(i)) // never looked at
		}
	}
	for _, k := range []sortKeys{
		{nk: nk, flat: flat},
		{nk: nk, rows: rows, slots: slots},
	} {
		got, err := sortOrder(k, order)
		if !slices.Equal(got, want) {
			t.Fatalf("order %v, keys %v:\n got %v\nwant %v", order, flat, got, want)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("order %v, keys %v: error %v, want %v", order, flat, err, wantErr)
		}
	}
}

// sortKeyKinds are the columns a sort key can be. Each draws from few
// enough values that ties are common, and from the ones an abbreviation
// could get wrong.
var sortKeyKinds = []func(r *rand.Rand) Value{
	func(r *rand.Rand) Value { // INTEGER
		return NewInt(pick(r, []int64{0, 1, -1, 2, 7, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1),
			math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}))
	},
	func(r *rand.Rand) Value { // DOUBLE
		return NewFloat(pick(r, []float64{0, math.Copysign(0, -1), 1, -1, 1.5, -1.5, 1 << 53, 1e300, -1e300,
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}))
	},
	func(r *rand.Rand) Value { // INTEGER beside DOUBLE
		if r.Intn(2) == 0 {
			return NewInt(pick(r, []int64{0, 1, 2, -2, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64, math.MinInt64}))
		}
		return NewFloat(pick(r, []float64{0, math.Copysign(0, -1), 1, 1.5, -2, 1 << 53, 1<<53 + 2, 1 << 63, -(1 << 63)}))
	},
	func(r *rand.Rand) Value { // DOUBLE with NaN in it: equal to everything
		return NewFloat(pick(r, []float64{math.NaN(), 0, 1, -1, 2}))
	},
	func(r *rand.Rand) Value { return NewBool(r.Intn(2) == 0) },
	func(r *rand.Rand) Value { // VARCHAR sharing prefixes of 0, 7, 8, 9, 16 and 17 bytes
		const stem = "abcdefghijklmnopqrstuvwxyz"
		s := stem[:pick(r, []int{0, 7, 8, 9, 16, 17})]
		return NewString(s + pick(r, []string{"", "", "\x00", "\x00\x00", "a", "b", "\xff", "\xc3\x28", "é", "zz\x00z"}))
	},
	func(r *rand.Rand) Value { // VARCHAR beside INTEGER: parsed where it parses, an error where not
		if r.Intn(2) == 0 {
			return NewInt(int64(r.Intn(4)))
		}
		return NewString(pick(r, []string{"0", "2", " 3 ", "1.5", "x", ""}))
	},
	func(r *rand.Rand) Value { // VARCHAR beside BOOLEAN: never comparable
		if r.Intn(2) == 0 {
			return NewBool(r.Intn(2) == 0)
		}
		return NewString(pick(r, []string{"TRUE", "a"}))
	},
}

func pick[T any](r *rand.Rand, from []T) T { return from[r.Intn(len(from))] }

// TestSortOrderMatchesReference requires of the abbreviated-key sort the
// identical permutation and the identical first error as the sort it
// replaced, over generated key sets of one to three keys.
func TestSortOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for round := 0; round < 3000; round++ {
		nk := 1 + r.Intn(3)
		order := make([]OrderItem, nk)
		kinds := make([]func(*rand.Rand) Value, nk)
		nulls := make([]int, nk) // one key in nulls[j] is NULL; 0 for none
		for j := range order {
			order[j].Desc = r.Intn(2) == 0
			kinds[j] = pick(r, sortKeyKinds)
			nulls[j] = pick(r, []int{0, 0, 1, 3, 10})
		}
		n := pick(r, []int{0, 1, 2, 3, 11, 12, 13, 50, 300})
		flat := make([]Value, n*nk)
		for i := range flat {
			if j := i % nk; nulls[j] == 0 || r.Intn(nulls[j]) > 0 {
				flat[i] = kinds[j](r)
			}
		}
		checkSortOrder(t, flat, order)
	}
}

// sortKeysFromBytes decodes a fuzz input into a key set: the number of
// keys and their directions, then value after value.
func sortKeysFromBytes(data []byte) ([]Value, []OrderItem) {
	if len(data) == 0 {
		return nil, nil
	}
	order := make([]OrderItem, 1+int(data[0])%3)
	for j := range order {
		order[j].Desc = data[0]>>(2+j)&1 != 0
	}
	data = data[1:]
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	word := func() uint64 {
		var b [8]byte
		copy(b[:], take(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	var flat []Value
	for len(data) > 0 && len(flat) < 600 {
		switch tag := take(1)[0]; tag % 8 {
		case 0:
			flat = append(flat, Null)
		case 1:
			flat = append(flat, NewInt(int64(word())))
		case 2:
			flat = append(flat, NewFloat(math.Float64frombits(word())))
		case 3:
			flat = append(flat, NewBool(tag&8 != 0))
		case 4, 5:
			flat = append(flat, NewString(string(take(int(tag>>3)))))
		case 6:
			flat = append(flat, NewInt(int64(tag>>3)-16))
		case 7:
			flat = append(flat, NewFloat((float64(tag>>3)-16)/2))
		}
	}
	return flat[:len(flat)/len(order)*len(order)], order
}

// FuzzSortOrder is TestSortOrderMatchesReference on key sets decoded from
// the fuzzer's bytes. Run with
//
//	go test -run '^$' -fuzz FuzzSortOrder -fuzztime 20s ./internal/sqldb
func FuzzSortOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x00\x24abcd\x24abce\x00\x0c"))                                                                                     // one key: strings and a NULL
	f.Add([]byte("\x05\x0e\x16\x0e\x1e\x06\x26\x0f\x17\x07\x00\x03\x0b\x03"))                                                         // two keys, DESC first: small numbers, a boolean
	f.Add([]byte("\x04\x01\x00\x00\x00\x00\x00\x00\x00\x80\x02\x00\x00\x00\x00\x00\x00\x00\x80\x02\x01\x00\x00\x00\x00\x00\xf8\x7f")) // MinInt64, −0, NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		flat, order := sortKeysFromBytes(data)
		if len(order) == 0 {
			return
		}
		checkSortOrder(t, flat, order)
	})
}
