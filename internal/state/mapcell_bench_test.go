package state

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchCell fills a float64 cell over every key group with n spread keys.
func benchCell(n int) (*KeyedState, *MapCell[float64], []uint64) {
	ks := NewKeyedState(DefaultNumKeyGroups, 0, DefaultNumKeyGroups)
	cell := RegisterMap(ks, "acc", ValueCodec[float64]())
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		cell.Put(keys[i], float64(i))
	}
	return ks, cell, keys
}

// BenchmarkMapCell times the keyed reduce's access pattern — resolve a ref,
// read the value, write it back — at the key counts of the dist (64Ki) and
// checkpoint (512Ki) workloads, under uniform and Zipf(1.2) key draws, and
// the copy-on-write thaw of one group that a write pays during a capture.
func BenchmarkMapCell(b *testing.B) {
	for _, n := range []int{64 << 10, 512 << 10} {
		_, cell, keys := benchCell(n)
		r := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(r, 1.2, 1, uint64(n-1))
		for _, dist := range []string{"uniform", "zipf"} {
			draws := make([]uint64, 1<<16)
			for i := range draws {
				if dist == "uniform" {
					draws[i] = keys[r.Intn(n)]
				} else {
					draws[i] = keys[zipf.Uint64()]
				}
			}
			b.Run(fmt.Sprintf("ref-get-put/%dKi/%s", n>>10, dist), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ref := cell.RefFor(draws[i&(len(draws)-1)])
					v, _ := ref.Get()
					ref.Put(v + 1)
				}
			})
		}
	}
	b.Run("thaw-under-capture/512Ki", func(b *testing.B) {
		ks, cell, keys := benchCell(512 << 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := ks.Capture()
			cell.Put(keys[i&(len(keys)-1)], 1)
			c.Release()
		}
	})
}
