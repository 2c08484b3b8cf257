package state

import (
	"cmp"
	"slices"
)

// table is one key group of a MapCell: an open-addressing hash table with
// linear probing over a power-of-two slice of (key, value) slots, so a
// value stored inline (a float64, an int64, a pointer) sits next to its key
// and a lookup touches one cache line. Key 0 marks an empty slot; the key 0
// itself lives in two fields beside the slots. The load factor stays at or
// below 3/4, and delete shifts the rest of the probe chain back, so there
// are no tombstones and every probe ends at an empty slot.
//
// A table value is a header over its slots: copying it shares them, which
// is how a capture holds a group without copying it (see MapCell.thaw).
type table[V any] struct {
	slots   []slot[V]
	n       int // occupied slots
	zero    V   // the value of key 0, when hasZero
	hasZero bool
}

type slot[V any] struct {
	key uint64
	val V
}

const minSlots = 8

// slotHash is the splitmix64 finalizer. Hash64 chose the key's group; a
// different mix spreads a group's keys over its slots.
func slotHash(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	return key ^ key>>31
}

func (t *table[V]) len() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// probe returns key's slot and true, or the empty slot that ends key's
// probe chain and false. The key is not 0 and the table has slots.
func (t *table[V]) probe(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(slotHash(key)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// slotOf returns key's slot, or -1 when key is absent or 0.
func (t *table[V]) slotOf(key uint64) int {
	if key != 0 && len(t.slots) > 0 {
		if i, ok := t.probe(key); ok {
			return i
		}
	}
	return -1
}

// find returns a pointer to key's value, or nil when key is absent. The
// pointer is valid until the next put or delete.
func (t *table[V]) find(key uint64) *V {
	if key == 0 {
		if t.hasZero {
			return &t.zero
		}
		return nil
	}
	if i := t.slotOf(key); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

func (t *table[V]) get(key uint64) (V, bool) {
	if p := t.find(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// put stores v under key, inserting the key when it is absent.
func (t *table[V]) put(key uint64, v V) {
	if key == 0 {
		t.zero, t.hasZero = v, true
		return
	}
	i, ok := -1, false
	if len(t.slots) > 0 {
		i, ok = t.probe(key)
	}
	if !ok {
		if (t.n+1)*4 > len(t.slots)*3 {
			t.reserve(t.n + 1)
			i, _ = t.probe(key)
		}
		t.slots[i].key = key
		t.n++
	}
	t.slots[i].val = v
}

// delete removes key, shifting the keys after it in its probe chain back
// over any slot between them and their home.
func (t *table[V]) delete(key uint64) {
	if key == 0 {
		var zero V
		t.zero, t.hasZero = zero, false
		return
	}
	i := t.slotOf(key)
	if i < 0 {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if home := int(slotHash(t.slots[j].key)) & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
}

// reserve grows the slots, if needed, to hold n keys within the load factor.
func (t *table[V]) reserve(n int) {
	size := max(minSlots, len(t.slots))
	for n*4 > size*3 {
		size *= 2
	}
	if size == len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]slot[V], size)
	mask := size - 1
	for _, s := range old {
		if s.key != 0 {
			i := int(slotHash(s.key)) & mask
			for t.slots[i].key != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// all yields the entries: key 0 first, then slot order.
func (t *table[V]) all(yield func(uint64, V) bool) {
	if t.hasZero && !yield(0, t.zero) {
		return
	}
	for _, s := range t.slots {
		if s.key != 0 && !yield(s.key, s.val) {
			return
		}
	}
}

// sortSlots sorts s by key. A small s is sorted in place; a larger one by an
// LSD radix sort over the key's bytes, which moves the entries between s and
// tmp and skips a byte every key shares. It returns the sorted entries and
// the other buffer, for reuse.
func sortSlots[V any](s, tmp []slot[V]) (sorted, spare []slot[V]) {
	if len(s) <= 128 {
		slices.SortFunc(s, func(a, b slot[V]) int { return cmp.Compare(a.key, b.key) })
		return s, tmp
	}
	var counts [8][256]int
	for _, e := range s {
		for d := range counts {
			counts[d][byte(e.key>>(8*d))]++
		}
	}
	tmp = slices.Grow(tmp[:0], len(s))[:len(s)]
	for d := range counts {
		c := &counts[d]
		if c[byte(s[0].key>>(8*d))] == len(s) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, e := range s {
			b := byte(e.key >> (8 * d))
			tmp[c[b]] = e
			c[b]++
		}
		s, tmp = tmp, s
	}
	return s, tmp
}
