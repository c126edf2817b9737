// Package treap implements a randomized balanced search tree (treap, per
// Seidel and Aragon) and, on top of it, the sliding-window dominance store
// used by the paper's sliding-window sampling algorithm (Algorithm 3).
//
// The treap is the data structure the paper names for the per-site set T_i of
// tuples that may still become the window sample in the future. Expected
// depth is O(log n) because every node receives an independent uniformly
// random heap priority.
package treap

import "repro/internal/hashing"

// Treap is an ordered map from K to V with expected O(log n) insert, delete
// and lookup. Ordering is provided by the less function supplied at
// construction. The zero value is not usable; use New or NewWithSeed.
type Treap[K any, V any] struct {
	less  func(a, b K) bool
	root  *node[K, V]
	size  int
	state uint64 // SplitMix64 state used to draw node priorities
}

type node[K any, V any] struct {
	key         K
	value       V
	priority    uint64
	left, right *node[K, V]
}

// New constructs an empty treap ordered by less, seeding the priority stream
// from a fixed default. Use NewWithSeed to control reproducibility.
func New[K any, V any](less func(a, b K) bool) *Treap[K, V] {
	return NewWithSeed[K, V](less, 0x9e3779b97f4a7c15)
}

// NewWithSeed constructs an empty treap whose node priorities are drawn from
// a SplitMix64 stream seeded with seed, making tree shape reproducible.
func NewWithSeed[K any, V any](less func(a, b K) bool, seed uint64) *Treap[K, V] {
	return &Treap[K, V]{less: less, state: seed}
}

// Len returns the number of keys stored.
func (t *Treap[K, V]) Len() int { return t.size }

func (t *Treap[K, V]) nextPriority() uint64 {
	var out uint64
	t.state, out = hashing.SplitMix64(t.state)
	return out
}

// Get returns the value stored under key, and whether it was present.
func (t *Treap[K, V]) Get(key K) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return n.value, true
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (t *Treap[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Set inserts key with value, replacing the value if key is already present.
// It reports whether a new key was inserted (false means replaced).
func (t *Treap[K, V]) Set(key K, value V) bool {
	inserted := false
	t.root = t.insert(t.root, key, value, &inserted)
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Treap[K, V]) insert(n *node[K, V], key K, value V, inserted *bool) *node[K, V] {
	if n == nil {
		*inserted = true
		return &node[K, V]{key: key, value: value, priority: t.nextPriority()}
	}
	switch {
	case t.less(key, n.key):
		n.left = t.insert(n.left, key, value, inserted)
		if n.left.priority > n.priority {
			n = rotateRight(n)
		}
	case t.less(n.key, key):
		n.right = t.insert(n.right, key, value, inserted)
		if n.right.priority > n.priority {
			n = rotateLeft(n)
		}
	default:
		n.value = value
	}
	return n
}

// Delete removes key and reports whether it was present.
func (t *Treap[K, V]) Delete(key K) bool {
	removed := false
	t.root = t.remove(t.root, key, &removed)
	if removed {
		t.size--
	}
	return removed
}

func (t *Treap[K, V]) remove(n *node[K, V], key K, removed *bool) *node[K, V] {
	if n == nil {
		return nil
	}
	switch {
	case t.less(key, n.key):
		n.left = t.remove(n.left, key, removed)
	case t.less(n.key, key):
		n.right = t.remove(n.right, key, removed)
	default:
		*removed = true
		return t.merge(n.left, n.right)
	}
	return n
}

// merge joins two treaps where every key in a precedes every key in b.
func (t *Treap[K, V]) merge(a, b *node[K, V]) *node[K, V] {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.priority > b.priority:
		a.right = t.merge(a.right, b)
		return a
	default:
		b.left = t.merge(a, b.left)
		return b
	}
}

func rotateRight[K any, V any](n *node[K, V]) *node[K, V] {
	l := n.left
	n.left = l.right
	l.right = n
	return l
}

func rotateLeft[K any, V any](n *node[K, V]) *node[K, V] {
	r := n.right
	n.right = r.left
	r.left = n
	return r
}

// Min returns the smallest key and its value. ok is false on an empty treap.
func (t *Treap[K, V]) Min() (key K, value V, ok bool) {
	n := t.root
	if n == nil {
		return key, value, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.value, true
}

// Max returns the largest key and its value. ok is false on an empty treap.
func (t *Treap[K, V]) Max() (key K, value V, ok bool) {
	n := t.root
	if n == nil {
		return key, value, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, n.value, true
}

// DeleteMin removes and returns the smallest key and its value.
func (t *Treap[K, V]) DeleteMin() (key K, value V, ok bool) {
	key, value, ok = t.Min()
	if ok {
		t.Delete(key)
	}
	return key, value, ok
}

// Ascend calls fn on every key/value pair in ascending key order until fn
// returns false.
func (t *Treap[K, V]) Ascend(fn func(key K, value V) bool) {
	ascend(t.root, fn)
}

func ascend[K any, V any](n *node[K, V], fn func(key K, value V) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return ascend(n.right, fn)
}

// AscendGreaterOrEqual calls fn on every pair with key >= pivot in ascending
// order until fn returns false.
func (t *Treap[K, V]) AscendGreaterOrEqual(pivot K, fn func(key K, value V) bool) {
	t.ascendGE(t.root, pivot, fn)
}

func (t *Treap[K, V]) ascendGE(n *node[K, V], pivot K, fn func(key K, value V) bool) bool {
	if n == nil {
		return true
	}
	if !t.less(n.key, pivot) { // n.key >= pivot
		if !t.ascendGE(n.left, pivot, fn) {
			return false
		}
		if !fn(n.key, n.value) {
			return false
		}
	}
	return t.ascendGE(n.right, pivot, fn)
}

// Floor returns the largest key strictly less than pivot and its value.
// ok is false when no such key exists.
func (t *Treap[K, V]) Floor(pivot K) (key K, value V, ok bool) {
	n := t.root
	var best *node[K, V]
	for n != nil {
		if t.less(n.key, pivot) {
			best = n
			n = n.right
		} else {
			n = n.left
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.value, true
}

// Ceiling returns the smallest key greater than or equal to pivot and its
// value. ok is false when no such key exists.
func (t *Treap[K, V]) Ceiling(pivot K) (key K, value V, ok bool) {
	n := t.root
	var best *node[K, V]
	for n != nil {
		if t.less(n.key, pivot) {
			n = n.right
		} else {
			best = n
			n = n.left
		}
	}
	if best == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return best.key, best.value, true
}

// Keys returns all keys in ascending order. Intended for tests and small
// diagnostic dumps.
func (t *Treap[K, V]) Keys() []K {
	keys := make([]K, 0, t.size)
	t.Ascend(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// Height returns the height of the tree (0 for empty). Expected O(log n);
// exposed so tests and the space-complexity experiments can observe it.
func (t *Treap[K, V]) Height() int { return height(t.root) }

func height[K any, V any](n *node[K, V]) int {
	if n == nil {
		return 0
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// checkInvariants verifies the BST ordering and heap-priority properties and
// that the recorded size matches the number of reachable nodes. It is used
// by the test suite.
func (t *Treap[K, V]) checkInvariants() error {
	count := 0
	if err := t.check(t.root, nil, nil, &count); err != nil {
		return err
	}
	if count != t.size {
		return errSizeMismatch{want: t.size, got: count}
	}
	return nil
}

type errSizeMismatch struct{ want, got int }

func (e errSizeMismatch) Error() string {
	return "treap: size field disagrees with reachable node count"
}

type errOrder struct{ msg string }

func (e errOrder) Error() string { return "treap: " + e.msg }

func (t *Treap[K, V]) check(n *node[K, V], lower, upper *K, count *int) error {
	if n == nil {
		return nil
	}
	*count++
	if lower != nil && !t.less(*lower, n.key) {
		return errOrder{"BST order violated (left bound)"}
	}
	if upper != nil && !t.less(n.key, *upper) {
		return errOrder{"BST order violated (right bound)"}
	}
	if n.left != nil && n.left.priority > n.priority {
		return errOrder{"heap priority violated (left child)"}
	}
	if n.right != nil && n.right.priority > n.priority {
		return errOrder{"heap priority violated (right child)"}
	}
	if err := t.check(n.left, lower, &n.key, count); err != nil {
		return err
	}
	return t.check(n.right, &n.key, upper, count)
}
