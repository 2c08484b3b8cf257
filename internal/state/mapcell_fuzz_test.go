package state

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math"
	"slices"
	"testing"
)

// fuzzGroups is the key-group count of FuzzMapCellOps's state.
const fuzzGroups = 2

// fuzzKeys is FuzzMapCellOps's key alphabet: 0 (the table's empty marker),
// math.MaxUint64, small keys, and sixteen keys of group 0 whose slot hash
// puts them on the last slot of every table of up to 64 slots, so their
// probe chain wraps past the end of the slot slice at every size the
// alphabet reaches.
var fuzzKeys = func() []uint64 {
	keys := []uint64{0, math.MaxUint64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	for k := uint64(15); len(keys) < 32; k++ {
		if slotHash(k)&63 == 63 && KeyGroupFor(k, fuzzGroups) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}()

// intsCodec is a typed codec of an append-only []int cell, with a Clone.
func intsCodec() Codec[[]int] {
	return Codec[[]int]{
		Append: func(b []byte, v []int) []byte {
			b = binary.AppendUvarint(b, uint64(len(v)))
			for _, x := range v {
				b = binary.AppendVarint(b, int64(x))
			}
			return b
		},
		Read: func(b []byte) ([]int, []byte, error) {
			n, b, err := ReadCount(b, 1)
			if err != nil {
				return nil, b, err
			}
			v := make([]int, n)
			for i := range v {
				var x int64
				if x, b, err = ReadVarint(b); err != nil {
					return nil, b, err
				}
				v[i] = int(x)
			}
			return v, b, nil
		},
		Clone: slices.Clone[[]int],
	}
}

// cellPair is the two cells FuzzMapCellOps drives, on one KeyedState.
type cellPair struct {
	ks *KeyedState
	f  *MapCell[float64]
	s  *MapCell[[]int]
}

func newCellPair() cellPair {
	ks := NewKeyedState(fuzzGroups, 0, fuzzGroups)
	return cellPair{ks: ks, f: RegisterMap(ks, "f", ValueCodec[float64]()), s: RegisterMap(ks, "s", intsCodec())}
}

// oracle is the plain-map model of a cellPair.
type oracle struct {
	f map[uint64]float64
	s map[uint64][]int
}

func (o oracle) clone() oracle {
	s := make(map[uint64][]int, len(o.s))
	for k, v := range o.s {
		s[k] = slices.Clone(v)
	}
	return oracle{f: maps.Clone(o.f), s: s}
}

// blobs encodes the oracle's state the way a capture must: per group, each
// cell's name and section, a section being the key count, the ascending
// keys as deltas and the values in key order. It shares only the value
// codecs and AppendBytes with the code under test.
func (o oracle) blobs() map[int][]byte {
	out := make(map[int][]byte, fuzzGroups)
	for g := 0; g < fuzzGroups; g++ {
		var blob []byte
		blob = AppendBytes(AppendBytes(blob, "f"), section(o.f, g, AppendFloat64))
		blob = AppendBytes(AppendBytes(blob, "s"), section(o.s, g, intsCodec().Append))
		out[g] = blob
	}
	return out
}

func section[V any](m map[uint64]V, group int, appendV func([]byte, V) []byte) []byte {
	var keys []uint64
	for k := range m {
		if KeyGroupFor(k, fuzzGroups) == group {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	b := binary.AppendUvarint(nil, uint64(len(keys)))
	prev := uint64(0)
	for _, k := range keys {
		b, prev = binary.AppendUvarint(b, k-prev), k
	}
	for _, k := range keys {
		b = appendV(b, m[k])
	}
	return b
}

// checkCell compares a cell with its model through Len, Get and Range.
func checkCell[V any](t *testing.T, step int, c *MapCell[V], m map[uint64]V, eq func(a, b V) bool) {
	t.Helper()
	if c.Len() != len(m) {
		t.Fatalf("step %d: cell %q Len %d, model %d", step, c.name, c.Len(), len(m))
	}
	seen := 0
	c.Range(func(k uint64, v V) bool {
		if w, ok := m[k]; !ok || !eq(v, w) {
			t.Fatalf("step %d: cell %q ranges %#x = %v, model %v (present %v)", step, c.name, k, v, w, ok)
		}
		seen++
		return true
	})
	if seen != len(m) {
		t.Fatalf("step %d: cell %q ranged over %d keys, model holds %d", step, c.name, seen, len(m))
	}
	for k, w := range m {
		if v, ok := c.Get(k); !ok || !eq(v, w) {
			t.Fatalf("step %d: cell %q Get(%#x) = %v, %v; model %v", step, c.name, k, v, ok, w)
		}
	}
}

func eqFloat(a, b float64) bool { return a == b }

func (p cellPair) check(t *testing.T, step int, o oracle) {
	t.Helper()
	checkCell(t, step, p.f, o.f, eqFloat)
	checkCell(t, step, p.s, o.s, slices.Equal[[]int])
}

// checkCapture encodes a capture and compares it with the model's state as
// of the capture: byte for byte with the model's own encoding, and through a
// restore into a fresh state that must hold the model's values and encode
// to the same bytes again.
func checkCapture(t *testing.T, step int, c *Captured, want oracle) {
	t.Helper()
	got, err := c.EncodeGroups()
	if err != nil {
		t.Fatalf("step %d: encode: %v", step, err)
	}
	exp := want.blobs()
	for g := 0; g < fuzzGroups; g++ {
		if !bytes.Equal(got[g], exp[g]) {
			t.Fatalf("step %d: group %d blob\n got %x\nwant %x", step, g, got[g], exp[g])
		}
	}
	fresh := newCellPair()
	for g, blob := range got {
		if err := fresh.ks.RestoreGroup(g, blob); err != nil {
			t.Fatalf("step %d: restore group %d: %v", step, g, err)
		}
	}
	fresh.check(t, step, want)
	again, err := fresh.ks.Capture().EncodeGroups()
	if err != nil {
		t.Fatalf("step %d: re-encode: %v", step, err)
	}
	for g := 0; g < fuzzGroups; g++ {
		if !bytes.Equal(again[g], got[g]) {
			t.Fatalf("step %d: group %d re-encodes differently after a restore", step, g)
		}
	}
}

// FuzzMapCellOps runs a byte string as a sequence of operations on a float64
// cell and a []int cell with a Clone, and checks both against plain maps
// after every operation. Two bytes make an operation: the first picks it
// (low four bits) and one of four held refs (next two bits), the second
// picks a key of fuzzKeys (low five bits) and a small value (high three
// bits). Refs are held across inserts that grow the table and deletes that
// shift keys between slots; up to three captures are in flight at once, and
// each must encode the state of its own moment.
func FuzzMapCellOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 4, 1, 11, 3, 5, 1, 6, 0xe1, 5, 1})
	f.Add([]byte{0, 1, 4, 1, 8, 0, 6, 0xe1, 9, 0}) // a ref's write after a capture
	f.Add([]byte{0, 16, 0, 17, 0, 18, 0, 19, 0, 20, 3, 16, 1, 17, 1, 18})
	f.Add([]byte{0, 0, 0, 0x3f, 8, 0, 2, 0x40, 6, 0, 0, 0x21, 3, 0, 9, 0, 1, 0})
	f.Add([]byte{
		0, 16, 4, 16, 0x14, 17, 0x24, 18, 0x34, 19, // refs to a wrapping chain
		11, 1, 11, 2, 0x15, 0, 0x26, 0xa0, 8, 0, // grow under the refs, capture
		3, 17, 0x16, 0x60, 0x27, 0x40, 7, 0xe0, 11, 3, 8, 0, // shift, mutate
		9, 1, 0x35, 0, 3, 16, 0x36, 0x80, 9, 0, 10, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newCellPair()
		o := oracle{f: map[uint64]float64{}, s: map[uint64][]int{}}
		type heldRef struct {
			f  KeyRef[float64]
			s  KeyRef[[]int]
			ok bool
		}
		var refs [4]heldRef
		type capture struct {
			c    *Captured
			want oracle
		}
		var caps []capture
		for step := 0; len(data) >= 2; step++ {
			op, r, a := data[0]%16, data[0]/16%4, data[1]
			data = data[2:]
			k, x := fuzzKeys[a%32], int(a/32)
			ref := &refs[r]
			switch op {
			case 0: // Put; the []int value appends to the stored slice
				p.f.Put(k, float64(x))
				old, _ := p.s.Get(k)
				p.s.Put(k, append(old, x))
				o.f[k], o.s[k] = float64(x), append(slices.Clip(o.s[k]), x)
			case 1: // Get
				wv, wok := o.f[k]
				if v, ok := p.f.Get(k); ok != wok || !eqFloat(v, wv) {
					t.Fatalf("step %d: Get(%#x) = %v, %v", step, k, v, ok)
				}
			case 2: // GetMut, mutating the []int value in place
				if v, ok := p.s.GetMut(k); ok {
					v[0] = x
					o.s[k][0] = x
				}
				wv, wok := o.f[k]
				if v, ok := p.f.GetMut(k); ok != wok || !eqFloat(v, wv) {
					t.Fatalf("step %d: GetMut(%#x) = %v, %v", step, k, v, ok)
				}
			case 3:
				p.f.Delete(k)
				p.s.Delete(k)
				delete(o.f, k)
				delete(o.s, k)
			case 4:
				*ref = heldRef{f: p.f.RefFor(k), s: p.s.RefFor(k), ok: true}
			case 5, 6, 7:
				if !ref.ok {
					continue
				}
				rk := ref.f.Key()
				switch op {
				case 5:
					fv, fok := ref.f.Get()
					sv, sok := ref.s.Get()
					wf, wok := o.f[rk]
					if fok != wok || sok != wok || !eqFloat(fv, wf) || !slices.Equal(sv, o.s[rk]) {
						t.Fatalf("step %d: ref %#x reads %v %v / %v %v, model %v %v", step, rk, fv, fok, sv, sok, wf, o.s[rk])
					}
				case 6:
					ref.f.Put(float64(x))
					old, _ := ref.s.Get()
					ref.s.Put(append(old, x))
					o.f[rk], o.s[rk] = float64(x), append(slices.Clip(o.s[rk]), x)
				case 7:
					if v, ok := ref.s.GetMut(); ok {
						v[0] = x
						o.s[rk][0] = x
					}
				}
			case 8:
				if len(caps) < 3 {
					caps = append(caps, capture{c: p.ks.Capture(), want: o.clone()})
				}
			case 9, 10:
				if len(caps) == 0 {
					continue
				}
				i := int(a) % len(caps)
				if op == 9 {
					checkCapture(t, step, caps[i].c, caps[i].want)
				} else {
					caps[i].c.Release()
				}
				caps = slices.Delete(caps, i, i+1)
			case 11: // grow: sixteen keys outside the alphabet
				for j := range 16 {
					gk := 1<<32 + uint64(a%8)*16 + uint64(j)
					p.f.Put(gk, float64(j))
					p.s.Put(gk, []int{j})
					o.f[gk], o.s[gk] = float64(j), []int{j}
				}
			}
			p.check(t, step, o)
		}
		for _, c := range caps {
			checkCapture(t, -1, c.c, c.want)
		}
	})
}

// TestThawDuringCaptureAllocatesOnce: the first write to a group a capture
// still shares copies its slot slice — one allocation, whatever the group
// holds — and the capture keeps the slots it froze.
func TestThawDuringCaptureAllocatesOnce(t *testing.T) {
	ks, cell, keys := benchCell(64 << 10)
	captured := ks.Capture()
	defer captured.Release()
	g := cell.group(keys[0])
	shared := g.tab.slots
	allocs := testing.AllocsPerRun(20, func() {
		g.frozen = true
		cell.Put(keys[0], -1)
	})
	if allocs != 1 {
		t.Fatalf("a thaw under a capture allocated %v times, want 1", allocs)
	}
	if &shared[0] == &g.tab.slots[0] {
		t.Fatalf("the thaw wrote into the captured slots")
	}
	gi := ks.groupIndex(keys[0])
	if p := captured.cells[0].(*capturedMap[float64]).tabs[gi].find(keys[0]); p == nil || *p != 0 {
		t.Fatalf("the capture lost the value it froze")
	}
}
