package sqldb

import (
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestBTreePropertyInsertLookup checks that after an arbitrary sequence of
// inserts, every (key, rowID) pair is found by lookup and the ascend order
// is sorted.
func TestBTreePropertyInsertLookup(t *testing.T) {
	f := func(keys []int16) bool {
		tree := newBTree()
		want := map[int64][]int64{}
		for i, k := range keys {
			kv := NewInt(int64(k))
			tree.insert(kv, int64(i))
			want[int64(k)] = append(want[int64(k)], int64(i))
		}
		for k, ids := range want {
			post := tree.lookup(NewInt(k))
			if len(post) != len(ids) {
				return false
			}
		}
		// Ascend must be strictly increasing over distinct keys.
		prev := int64(-1 << 62)
		okOrder := true
		first := true
		tree.ascend(func(k Value, post []int64) bool {
			if !first && k.I <= prev {
				okOrder = false
				return false
			}
			first = false
			prev = k.I
			return true
		})
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreePropertyDelete checks deletes remove exactly the targeted
// posting entries.
func TestBTreePropertyDelete(t *testing.T) {
	f := func(keys []uint8, delMask []bool) bool {
		tree := newBTree()
		for i, k := range keys {
			tree.insert(NewInt(int64(k)), int64(i))
		}
		deleted := map[int]bool{}
		for i := range keys {
			if i < len(delMask) && delMask[i] {
				if !tree.delete(NewInt(int64(keys[i])), int64(i)) {
					return false
				}
				deleted[i] = true
			}
		}
		counts := map[int64]int{}
		tree.ascend(func(k Value, post []int64) bool {
			counts[k.I] += len(post)
			return true
		})
		want := map[int64]int{}
		for i, k := range keys {
			if !deleted[i] {
				want[int64(k)]++
			}
		}
		if len(counts) > len(want) {
			return false
		}
		for k, n := range want {
			if counts[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeRangeMatchesSort cross-checks ascendRange against a sorted
// reference for random bounds.
func TestBTreeRangeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		tree := newBTree()
		var all []int64
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(100))
			tree.insert(NewInt(k), int64(i))
			all = append(all, k)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		lo := NewInt(int64(rng.Intn(100)))
		hi := NewInt(lo.I + int64(rng.Intn(50)))
		var got []int64
		tree.ascendRange(&lo, &hi, true, true, func(k Value, post []int64) bool {
			for range post {
				got = append(got, k.I)
			}
			return true
		})
		var want []int64
		for _, k := range all {
			if k >= lo.I && k <= hi.I {
				want = append(want, k)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: range [%d,%d] got %d keys, want %d",
				trial, lo.I, hi.I, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%d want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// likeToRegexp builds a reference regexp for a LIKE pattern with no escape
// character, used as an oracle.
func likeToRegexp(pattern string) *regexp.Regexp {
	var sb strings.Builder
	sb.WriteString(`(?s)\A`)
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString(`\z`)
	return regexp.MustCompile(sb.String())
}

// TestLikeMatchesRegexpOracle cross-checks the LIKE program against a regexp
// translation on random short strings over a small alphabet.
func TestLikeMatchesRegexpOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ab%_")
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for trial := 0; trial < 2000; trial++ {
		s := strings.ReplaceAll(strings.ReplaceAll(randStr(rng.Intn(8)), "%", "a"), "_", "b")
		pat := randStr(rng.Intn(6))
		got := compileLike(pat).match(s)
		if want := likeToRegexp(pat).MatchString(s); got != want {
			t.Fatalf("LIKE(%q, %q) = %v, oracle says %v", s, pat, got, want)
		}
	}
}

// TestComparePropertyAntisymmetry checks Compare(a,b) == -Compare(b,a) and
// reflexivity for random int/float/string values.
func TestComparePropertyAntisymmetry(t *testing.T) {
	mk := func(kind uint8, i int32, s string) Value {
		switch kind % 3 {
		case 0:
			return NewInt(int64(i))
		case 1:
			return NewFloat(float64(i) / 4)
		default:
			return NewString(s)
		}
	}
	f := func(k1, k2 uint8, i1, i2 int32, s1, s2 string) bool {
		a := mk(k1, i1, s1)
		b := mk(k2, i2, s2)
		ab, err1 := Compare(a, b)
		ba, err2 := Compare(b, a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true // incomparable both ways is consistent
		}
		if ab != -ba {
			return false
		}
		self, err := Compare(a, a)
		return err == nil && self == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestIdentityKeyInjective checks different value rows get different keys
// and equal rows get equal keys.
func TestIdentityKeyInjective(t *testing.T) {
	f := func(a1, a2 int32, s1, s2 string) bool {
		r1 := []Value{NewInt(int64(a1)), NewString(s1)}
		r2 := []Value{NewInt(int64(a2)), NewString(s2)}
		k1, k2 := identityKey(r1), identityKey(r2)
		same := a1 == a2 && s1 == s2
		return (k1 == k2) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertSelectRoundTrip property: every inserted row comes back via
// SELECT with identical values.
func TestInsertSelectRoundTrip(t *testing.T) {
	f := func(ids []int16, names []string) bool {
		db := NewDatabase("prop")
		s := NewSession(db)
		if _, err := s.Exec("CREATE TABLE t (id INTEGER, name VARCHAR(100))"); err != nil {
			return false
		}
		n := len(ids)
		if len(names) < n {
			n = len(names)
		}
		for i := 0; i < n; i++ {
			if _, err := s.Exec("INSERT INTO t VALUES (?, ?)",
				NewInt(int64(ids[i])), NewString(names[i])); err != nil {
				return false
			}
		}
		res, err := s.Exec("SELECT id, name FROM t")
		if err != nil || len(res.Rows) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if res.Rows[i][0].I != int64(ids[i]) || res.Rows[i][1].S != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTxnRollbackProperty: arbitrary DML inside BEGIN/ROLLBACK leaves the
// table byte-identical to its pre-transaction state.
func TestTxnRollbackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		db := NewDatabase("prop")
		s := NewSession(db)
		if _, err := s.ExecScript(`CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20))`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Exec("INSERT INTO t VALUES (?, ?)",
				NewInt(int64(i)), NewString(strings.Repeat("x", rng.Intn(5)))); err != nil {
				t.Fatal(err)
			}
		}
		before, err := s.Exec("SELECT id, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 10; op++ {
			switch rng.Intn(3) {
			case 0:
				_, _ = s.Exec("INSERT INTO t VALUES (?, 'new')", NewInt(int64(100+op+trial*100)))
			case 1:
				_, _ = s.Exec("UPDATE t SET v = 'upd' WHERE id = ?", NewInt(int64(rng.Intn(25))))
			case 2:
				_, _ = s.Exec("DELETE FROM t WHERE id = ?", NewInt(int64(rng.Intn(25))))
			}
		}
		if _, err := s.Exec("ROLLBACK"); err != nil {
			t.Fatal(err)
		}
		after, err := s.Exec("SELECT id, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if len(before.Rows) != len(after.Rows) {
			t.Fatalf("trial %d: row count %d -> %d after rollback",
				trial, len(before.Rows), len(after.Rows))
		}
		for i := range before.Rows {
			if identityKey(before.Rows[i]) != identityKey(after.Rows[i]) {
				t.Fatalf("trial %d row %d: %v -> %v", trial, i, before.Rows[i], after.Rows[i])
			}
		}
	}
}

// identityKey builds a string key for a value row that tells rows apart
// as GROUP BY does (groupKey), for comparing results. The encoding is
// injective per type.
func identityKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.T {
		case TNull:
			sb.WriteString("n|")
		case TInt:
			sb.WriteString("i")
			sb.WriteString(strconv.FormatInt(v.I, 10))
			sb.WriteByte('|')
		case TFloat:
			// Normalise integral floats so 1 and 1.0 group together,
			// mirroring Compare's numeric cross-type semantics.
			if v.Float() == math.Trunc(v.Float()) && !math.IsInf(v.Float(), 0) &&
				v.Float() >= math.MinInt64 && v.Float() <= math.MaxInt64 {
				sb.WriteString("i")
				sb.WriteString(strconv.FormatInt(int64(v.Float()), 10))
			} else {
				sb.WriteString("f")
				sb.WriteString(strconv.FormatFloat(v.Float(), 'b', -1, 64))
			}
			sb.WriteByte('|')
		case TString:
			sb.WriteString("s")
			sb.WriteString(strconv.Itoa(len(v.S)))
			sb.WriteByte(':')
			sb.WriteString(v.S)
			sb.WriteByte('|')
		case TBool:
			if v.Bool() {
				sb.WriteString("bt|")
			} else {
				sb.WriteString("bf|")
			}
		}
	}
	return sb.String()
}

// TestValueLayout: a Value is 32 bytes, and a DOUBLE or BOOLEAN kept in
// its I word reads back as it was put, bit for bit.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("Value is %d bytes, want 32", size)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -899.99, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()} {
		if v := NewFloat(f); v.T != TFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("NewFloat(%v).Float() = %v", f, v.Float())
		}
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() || NewBool(false) != (Value{T: TBool}) {
		t.Error("BOOLEAN values do not read back")
	}
}
