package state

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSortSlots: both of sortSlots' paths order entries by key, values
// travelling with their keys, also when every key shares some of its bytes.
func TestSortSlots(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var tmp []slot[int]
	for _, n := range []int{0, 1, 2, 128, 129, 1000, 5000} {
		for _, mask := range []uint64{math.MaxUint64, 0xff00ff, 1<<63 | 0xffff} {
			keys := make([]uint64, n)
			s := make([]slot[int], n)
			for i := range s {
				keys[i] = r.Uint64() & mask
				s[i] = slot[int]{key: keys[i], val: i}
			}
			var got []slot[int]
			got, tmp = sortSlots(s, tmp)
			if !slices.IsSortedFunc(got, func(a, b slot[int]) int { return cmp.Compare(a.key, b.key) }) {
				t.Fatalf("n=%d mask=%#x: not sorted", n, mask)
			}
			seen := make([]bool, n)
			for i, e := range got {
				if keys[e.val] != e.key || seen[e.val] {
					t.Fatalf("n=%d mask=%#x: entry %d holds key %#x with the value of key %#x", n, mask, i, e.key, keys[e.val])
				}
				seen[e.val] = true
			}
		}
	}
}
