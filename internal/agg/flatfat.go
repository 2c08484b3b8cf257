package agg

import "slices"

// FlatFAT is a flat fixed-capacity aggregate tree (Tangwongsan et al.,
// "General Incremental Sliding-Window Aggregation", VLDB 2015) extended with
// ring-buffer semantics and arbitrary range queries.
//
// Leaves hold partial aggregates in FIFO order; internal nodes cache the
// combination of their children. Appending to the back and evicting from the
// front are O(log n); querying the aggregate of any contiguous logical range
// is O(log n) combines. The structure never reorders partials, so it is
// correct for non-commutative (merely associative) aggregates.
//
// Cutty uses a FlatFAT over *slices*; the B-Int baseline uses a FlatFAT over
// individual elements, which is exactly the cost model that makes B-Int an
// order of magnitude slower at high rates (E2).
type FlatFAT[A any] struct {
	combine  func(a, b A) A
	identity A

	cap   int // leaf capacity, power of two
	tree  []A // 2*cap nodes; leaves at [cap, 2*cap)
	valid []bool
	front int // physical index of logical element 0
	size  int
}

// NewFlatFAT returns an empty tree with the given identity element and
// associative combine function. initialCap is rounded up to a power of two
// (minimum 2); the tree grows automatically.
func NewFlatFAT[A any](identity A, combine func(a, b A) A, initialCap int) *FlatFAT[A] {
	c := 2
	for c < initialCap {
		c <<= 1
	}
	t := &FlatFAT[A]{combine: combine, identity: identity, cap: c}
	t.tree = make([]A, 2*c)
	t.valid = make([]bool, 2*c)
	for i := range t.tree {
		t.tree[i] = identity
	}
	return t
}

// Clone returns an independent copy of the tree: the same leaves in the same
// physical layout, so every range query on it combines exactly as the
// original's does.
func (t *FlatFAT[A]) Clone() FlatFAT[A] {
	c := *t
	c.tree, c.valid = slices.Clone(t.tree), slices.Clone(t.valid)
	return c
}

// Len returns the number of leaves currently stored.
func (t *FlatFAT[A]) Len() int { return t.size }

// Append adds a partial aggregate at the back of the window.
func (t *FlatFAT[A]) Append(a A) {
	if t.size == t.cap {
		t.grow()
	}
	pos := (t.front + t.size) % t.cap
	t.size++
	t.setLeaf(pos, a, true)
}

// UpdateBack replaces the most recently appended leaf (used to fold new
// elements into the current open slice). It panics if the tree is empty.
func (t *FlatFAT[A]) UpdateBack(a A) {
	if t.size == 0 {
		panic("agg: UpdateBack on empty FlatFAT")
	}
	pos := (t.front + t.size - 1) % t.cap
	t.setLeaf(pos, a, true)
}

// Back returns the most recently appended leaf. It panics if empty.
func (t *FlatFAT[A]) Back() A {
	if t.size == 0 {
		panic("agg: Back on empty FlatFAT")
	}
	return t.tree[t.cap+(t.front+t.size-1)%t.cap]
}

// Front returns the oldest leaf. It panics if empty.
func (t *FlatFAT[A]) Front() A {
	if t.size == 0 {
		panic("agg: Front on empty FlatFAT")
	}
	return t.tree[t.cap+t.front]
}

// EvictFront removes the oldest leaf.
func (t *FlatFAT[A]) EvictFront() {
	if t.size == 0 {
		panic("agg: EvictFront on empty FlatFAT")
	}
	t.setLeaf(t.front, t.identity, false)
	t.front = (t.front + 1) % t.cap
	t.size--
}

// Aggregate returns the combination of all leaves, or identity if empty.
func (t *FlatFAT[A]) Aggregate() A {
	return t.Range(0, t.size)
}

// Leaf returns the partial at logical index i (0 = oldest). It panics when
// out of range.
func (t *FlatFAT[A]) Leaf(i int) A {
	if i < 0 || i >= t.size {
		panic("agg: Leaf index out of range")
	}
	return t.tree[t.cap+(t.front+i)%t.cap]
}

// FoldRange combines leaves in [i, j) by a linear left fold — O(j-i)
// combines, no tree reads. It exists for the evaluation-strategy ablation
// (E11): Range answers in O(log n), FoldRange in O(n), and both must agree.
func (t *FlatFAT[A]) FoldRange(i, j int) A {
	if i < 0 {
		i = 0
	}
	if j > t.size {
		j = t.size
	}
	acc := t.identity
	first := true
	for k := i; k < j; k++ {
		leaf := t.Leaf(k)
		if first {
			acc = leaf
			first = false
		} else {
			acc = t.combine(acc, leaf)
		}
	}
	return acc
}

// Range combines leaves with logical indices in [i, j), oldest==0, in FIFO
// order. Out-of-bounds indices are clamped; an empty range yields identity.
func (t *FlatFAT[A]) Range(i, j int) A {
	if i < 0 {
		i = 0
	}
	if j > t.size {
		j = t.size
	}
	if i >= j {
		return t.identity
	}
	// Map logical to physical; the occupied region may wrap around.
	pi := (t.front + i) % t.cap
	pj := (t.front + j) % t.cap // exclusive
	if pi < pj {
		return t.rangePhysical(pi, pj)
	}
	// Wrapped: [pi, cap) then [0, pj).
	left := t.rangePhysical(pi, t.cap)
	if pj == 0 {
		return left
	}
	return t.combine(left, t.rangePhysical(0, pj))
}

// rangePhysical aggregates physical leaf positions [l, r) using the classic
// iterative segment-tree walk: O(log n) combines, preserving left-to-right
// order for non-commutative functions.
func (t *FlatFAT[A]) rangePhysical(l, r int) A {
	resL := t.identity
	resR := t.identity
	hasL, hasR := false, false
	lo := l + t.cap
	hi := r + t.cap
	for lo < hi {
		if lo&1 == 1 {
			if hasL {
				resL = t.combine(resL, t.tree[lo])
			} else {
				resL = t.tree[lo]
				hasL = true
			}
			lo++
		}
		if hi&1 == 1 {
			hi--
			if hasR {
				resR = t.combine(t.tree[hi], resR)
			} else {
				resR = t.tree[hi]
				hasR = true
			}
		}
		lo >>= 1
		hi >>= 1
	}
	switch {
	case hasL && hasR:
		return t.combine(resL, resR)
	case hasL:
		return resL
	case hasR:
		return resR
	default:
		return t.identity
	}
}

func (t *FlatFAT[A]) setLeaf(pos int, a A, valid bool) {
	i := t.cap + pos
	t.tree[i] = a
	t.valid[i] = valid
	for i >>= 1; i >= 1; i >>= 1 {
		l, r := 2*i, 2*i+1
		switch {
		case t.valid[l] && t.valid[r]:
			t.tree[i] = t.combine(t.tree[l], t.tree[r])
			t.valid[i] = true
		case t.valid[l]:
			t.tree[i] = t.tree[l]
			t.valid[i] = true
		case t.valid[r]:
			t.tree[i] = t.tree[r]
			t.valid[i] = true
		default:
			t.tree[i] = t.identity
			t.valid[i] = false
		}
	}
}

func (t *FlatFAT[A]) grow() {
	old := make([]A, 0, t.size)
	for k := 0; k < t.size; k++ {
		old = append(old, t.tree[t.cap+(t.front+k)%t.cap])
	}
	t.cap *= 2
	t.tree = make([]A, 2*t.cap)
	t.valid = make([]bool, 2*t.cap)
	for i := range t.tree {
		t.tree[i] = t.identity
	}
	t.front = 0
	t.size = 0
	for _, a := range old {
		pos := t.size
		t.size++
		t.setLeaf(pos, a, true)
	}
}
