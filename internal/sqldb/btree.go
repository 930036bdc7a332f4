package sqldb

// An in-memory B-tree mapping column values to posting lists of row IDs.
// It backs CREATE INDEX: equality lookups, ordered range scans, and string
// prefix scans (for LIKE 'abc%' predicates). All keys within one tree come
// from a single typed column, so Compare never fails; a failure indicates
// an engine bug and panics via mustCompare.

const btreeOrder = 32 // max keys per node

type btreeNode struct {
	keys     []Value
	posts    [][]int64    // posts[i] holds row IDs for keys[i]
	children []*btreeNode // nil for leaves; len = len(keys)+1 otherwise
}

func (n *btreeNode) leaf() bool { return n.children == nil }

type btree struct {
	root *btreeNode
	size int // number of distinct keys
}

func newBTree() *btree {
	return &btree{root: &btreeNode{}}
}

func mustCompare(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		panic("sqldb: incomparable keys in index: " + err.Error())
	}
	return c
}

// findKey returns the insertion position of key in n.keys and whether an
// equal key exists at that position.
func (n *btreeNode) findKey(key Value) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if mustCompare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && mustCompare(n.keys[lo], key) == 0
}

// insert adds rowID to the posting list for key, creating the key if
// needed. It returns true when a new distinct key was created.
func (t *btree) insert(key Value, rowID int64) bool {
	if len(t.root.keys) == btreeOrder {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.root.splitChild(0)
	}
	added := t.root.insertNonFull(key, rowID)
	if added {
		t.size++
	}
	return added
}

func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeOrder / 2
	right := &btreeNode{
		keys:  append([]Value(nil), child.keys[mid+1:]...),
		posts: append([][]int64(nil), child.posts[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
	}
	upKey, upPost := child.keys[mid], child.posts[mid]
	child.keys = child.keys[:mid]
	child.posts = child.posts[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, Null)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = upKey
	n.posts = append(n.posts, nil)
	copy(n.posts[i+1:], n.posts[i:])
	n.posts[i] = upPost
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
}

func (n *btreeNode) insertNonFull(key Value, rowID int64) bool {
	i, found := n.findKey(key)
	if found {
		n.posts[i] = append(n.posts[i], rowID)
		return false
	}
	if n.leaf() {
		n.keys = append(n.keys, Null)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.posts = append(n.posts, nil)
		copy(n.posts[i+1:], n.posts[i:])
		n.posts[i] = []int64{rowID}
		return true
	}
	if len(n.children[i].keys) == btreeOrder {
		n.splitChild(i)
		if mustCompare(key, n.keys[i]) == 0 {
			n.posts[i] = append(n.posts[i], rowID)
			return false
		}
		if mustCompare(key, n.keys[i]) > 0 {
			i++
		}
	}
	return n.children[i].insertNonFull(key, rowID)
}

// delete removes rowID from key's posting list, in place: a posting list
// is read and written only under the table latch, readers shared and
// writers exclusive, as insert appends to it in place. Empty posting lists
// are kept (the key becomes a tombstone) — simpler than B-tree key
// deletion and harmless for scan correctness; lookups skip empty posts.
func (t *btree) delete(key Value, rowID int64) bool {
	n := t.root
	for n != nil {
		i, found := n.findKey(key)
		if found {
			post := n.posts[i]
			for j, id := range post {
				if id == rowID {
					n.posts[i] = append(post[:j], post[j+1:]...)
					if len(n.posts[i]) == 0 {
						t.size--
					}
					return true
				}
			}
			return false
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
	return false
}

// lookup returns the posting list for key, or nil.
func (t *btree) lookup(key Value) []int64 {
	n := t.root
	for n != nil {
		i, found := n.findKey(key)
		if found {
			return n.posts[i]
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
	return nil
}

// ascend visits keys in ascending order, calling fn for each non-empty
// posting list; fn returns false to stop.
func (t *btree) ascend(fn func(key Value, post []int64) bool) {
	t.root.ascend(fn)
}

func (n *btreeNode) ascend(fn func(Value, []int64) bool) bool {
	for i := range n.keys {
		if !n.leaf() {
			if !n.children[i].ascend(fn) {
				return false
			}
		}
		if len(n.posts[i]) > 0 {
			if !fn(n.keys[i], n.posts[i]) {
				return false
			}
		}
	}
	if !n.leaf() {
		return n.children[len(n.keys)].ascend(fn)
	}
	return true
}

// ascendRange visits keys in [lo, hi] in ascending order. A nil bound is
// unbounded on that side; incLo/incHi control bound inclusivity.
func (t *btree) ascendRange(lo, hi *Value, incLo, incHi bool, fn func(key Value, post []int64) bool) {
	t.ascend(func(k Value, post []int64) bool {
		if lo != nil {
			c := mustCompare(k, *lo)
			if c < 0 || (c == 0 && !incLo) {
				return true
			}
		}
		if hi != nil {
			c := mustCompare(k, *hi)
			if c > 0 || (c == 0 && !incHi) {
				return false
			}
		}
		return fn(k, post)
	})
}

// scanPrefix visits all string keys beginning with prefix, in order.
func (t *btree) scanPrefix(prefix string, fn func(key Value, post []int64) bool) {
	lo := NewString(prefix)
	t.ascend(func(k Value, post []int64) bool {
		if k.T != TString {
			return true
		}
		if k.S < lo.S {
			return true
		}
		if len(k.S) < len(prefix) || k.S[:len(prefix)] != prefix {
			// Past the prefix range once we exceed it lexicographically.
			return k.S <= prefix
		}
		return fn(k, post)
	})
}
