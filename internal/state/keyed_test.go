package state

import (
	"testing"
)

func newTestState(t *testing.T, numGroups, parallelism, subtask int) (*KeyedState, *MapCell[float64]) {
	t.Helper()
	start, end := GroupRangeFor(numGroups, parallelism, subtask)
	ks := NewKeyedState(numGroups, start, end)
	return ks, RegisterMap(ks, "acc", ValueCodec[float64]())
}

func TestMapCellBasics(t *testing.T) {
	_, cell := newTestState(t, 8, 1, 0)
	if _, ok := cell.Get(1); ok {
		t.Fatalf("empty cell reported a value")
	}
	cell.Put(1, 10)
	cell.Put(2, 20)
	cell.Put(1, 11)
	if v, ok := cell.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %v, %v", v, ok)
	}
	if cell.Len() != 2 {
		t.Fatalf("Len = %d", cell.Len())
	}
	cell.Delete(1)
	if _, ok := cell.Get(1); ok {
		t.Fatalf("deleted key still present")
	}
	keys := cell.SortedKeys()
	if len(keys) != 1 || keys[0] != 2 {
		t.Fatalf("SortedKeys = %v", keys)
	}
}

func TestKeyOutsideOwnedRangePanics(t *testing.T) {
	// Parallelism 2, subtask 0 owns only the first half of the groups;
	// find a key owned by subtask 1 and write to it.
	ks, cell := newTestState(t, 8, 2, 0)
	var foreign uint64
	for k := uint64(0); ; k++ {
		if g := KeyGroupFor(k, 8); g < ks.start || g >= ks.end {
			foreign = k
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("write to un-owned key group did not panic")
		}
	}()
	cell.Put(foreign, 1)
}

// TestCaptureIsImmutable is the copy-on-write contract: mutations after a
// capture must not leak into what the capture serializes.
func TestCaptureIsImmutable(t *testing.T) {
	ks, cell := newTestState(t, 4, 1, 0)
	cell.Put(1, 10)
	cell.Put(2, 20)

	captured := ks.Capture()
	cell.Put(1, 999) // mutate while the capture is outstanding
	cell.Delete(2)
	cell.Put(3, 30)
	blobs, err := captured.EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 4 {
		t.Fatalf("captured %d groups, want 4", len(blobs))
	}

	// Restore the capture into a fresh state: it must hold the pre-mutation
	// values.
	ks2, cell2 := newTestState(t, 4, 1, 0)
	for g, blob := range blobs {
		if err := ks2.RestoreGroup(g, blob); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := cell2.Get(1); v != 10 {
		t.Fatalf("capture leaked a post-capture write: key 1 = %v, want 10", v)
	}
	if _, ok := cell2.Get(2); !ok {
		t.Fatalf("capture lost key 2 after live delete")
	}
	if _, ok := cell2.Get(3); ok {
		t.Fatalf("capture contains a post-capture insert")
	}
	// The live cell meanwhile has the new values.
	if v, _ := cell.Get(1); v != 999 {
		t.Fatalf("live value = %v, want 999", v)
	}
}

// TestCaptureCloneOnMutableValues: values with a Clone codec are deep-copied
// before in-place mutation while a capture is in flight, and shared (no
// clone) once it has been released.
func TestCaptureCloneOnMutableValues(t *testing.T) {
	ks := NewKeyedState(2, 0, 2)
	cell := RegisterMap(ks, "buf", intsCodec())
	cell.Put(1, []int{1, 2, 3})

	captured := ks.Capture()
	shared, _ := cell.Get(1)
	mut, _ := cell.GetMut(1)
	mut[0] = 99 // in-place mutation of the clone
	if shared[0] != 1 {
		t.Fatalf("GetMut did not clone while a capture was in flight")
	}
	// Second GetMut within the same capture window reuses the private copy.
	mut2, _ := cell.GetMut(1)
	if &mut2[0] != &mut[0] {
		t.Fatalf("value cloned twice within one capture window")
	}
	if _, err := captured.EncodeGroups(); err != nil {
		t.Fatal(err)
	}

	// Capture released: in-place mutation no longer clones.
	before, _ := cell.GetMut(1)
	after, _ := cell.GetMut(1)
	if &before[0] != &after[0] {
		t.Fatalf("value cloned after the capture was released")
	}
}

func TestPerGroupCellRoundTrip(t *testing.T) {
	ks := NewKeyedState(4, 0, 4)
	wm := RegisterPerGroup(ks, "wm", int64(-1), ValueCodec[int64]())
	if got := wm.Get(7); got != -1 {
		t.Fatalf("init = %d", got)
	}
	wm.SetAll(42)
	blobs, err := ks.Capture().EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	ks2 := NewKeyedState(4, 0, 4)
	wm2 := RegisterPerGroup(ks2, "wm", int64(-1), ValueCodec[int64]())
	for g, blob := range blobs {
		if err := ks2.RestoreGroup(g, blob); err != nil {
			t.Fatal(err)
		}
	}
	if got := wm2.Get(7); got != 42 {
		t.Fatalf("restored per-group scalar = %d, want 42", got)
	}
}

// TestRescaleRedistribution captures at parallelism 2 and restores at 1 and
// at 3: every key must land in exactly one new subtask's state, with its
// captured value.
func TestRescaleRedistribution(t *testing.T) {
	const numGroups = 8
	want := map[uint64]float64{}
	blobs := map[int][]byte{}
	for s := 0; s < 2; s++ {
		start, end := GroupRangeFor(numGroups, 2, s)
		ks := NewKeyedState(numGroups, start, end)
		cell := RegisterMap(ks, "acc", ValueCodec[float64]())
		for k := uint64(0); k < 200; k++ {
			if g := KeyGroupFor(k, numGroups); g >= start && g < end {
				cell.Put(k, float64(k)*2)
				want[k] = float64(k) * 2
			}
		}
		got, err := ks.Capture().EncodeGroups()
		if err != nil {
			t.Fatal(err)
		}
		for g, b := range got {
			blobs[g] = b
		}
	}
	if len(blobs) != numGroups {
		t.Fatalf("captured %d groups, want %d", len(blobs), numGroups)
	}

	for _, newPar := range []int{1, 3} {
		seen := map[uint64]float64{}
		for s := 0; s < newPar; s++ {
			start, end := GroupRangeFor(numGroups, newPar, s)
			ks := NewKeyedState(numGroups, start, end)
			cell := RegisterMap(ks, "acc", ValueCodec[float64]())
			for g := start; g < end; g++ {
				if err := ks.RestoreGroup(g, blobs[g]); err != nil {
					t.Fatal(err)
				}
			}
			cell.Range(func(k uint64, v float64) bool {
				if _, dup := seen[k]; dup {
					t.Fatalf("restore at parallelism %d duplicated key %d", newPar, k)
				}
				seen[k] = v
				return true
			})
		}
		if len(seen) != len(want) {
			t.Fatalf("restore at parallelism %d: %d keys, want %d", newPar, len(seen), len(want))
		}
		for k, v := range want {
			if seen[k] != v {
				t.Fatalf("restore at parallelism %d: key %d = %v, want %v", newPar, k, seen[k], v)
			}
		}
	}
}

func TestRestoreRejectsCellMismatch(t *testing.T) {
	ks := NewKeyedState(2, 0, 2)
	RegisterMap(ks, "acc", ValueCodec[float64]())
	blobs, err := ks.Capture().EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	ks2 := NewKeyedState(2, 0, 2)
	RegisterMap(ks2, "other", ValueCodec[float64]())
	if err := ks2.RestoreGroup(0, blobs[0]); err == nil {
		t.Fatalf("restore with renamed cell must fail")
	}
	ks3 := NewKeyedState(2, 0, 1)
	RegisterMap(ks3, "acc", ValueCodec[float64]())
	if err := ks3.RestoreGroup(1, blobs[1]); err == nil {
		t.Fatalf("restore of un-owned group must fail")
	}
}

func TestGroupBlobsAreDeterministic(t *testing.T) {
	build := func() *Captured {
		ks := NewKeyedState(1, 0, 1)
		cell := RegisterMap(ks, "acc", ValueCodec[float64]())
		// Insertion order differs; blobs must not.
		for _, k := range []uint64{5, 1, 9, 3} {
			cell.Put(k, float64(k))
		}
		return ks.Capture()
	}
	a, err := build().EncodeGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().EncodeGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("group blob depends on insertion order")
	}
}

// TestPutAliasedValueDoesNotGrantPrivacy is the regression test for a
// capture-corruption bug: a value stored with Put may alias captured
// memory (an appended slice sharing its backing array with the captured
// header), so Put must not mark the key private — the next GetMut has to
// clone before in-place mutation reaches the shared array.
func TestPutAliasedValueDoesNotGrantPrivacy(t *testing.T) {
	ks := NewKeyedState(1, 0, 1)
	cell := RegisterMap(ks, "buf", intsCodec())
	s := make([]int, 1, 4)
	s[0] = 30
	cell.Put(1, s)

	captured := ks.Capture()
	v, _ := cell.Get(1)
	cell.Put(1, append(v, 7)) // extends the captured backing array in place
	mut, _ := cell.GetMut(1)
	mut[0] = 999 // must hit a clone, not the captured array
	blob, err := captured.EncodeGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	captured.Release()

	ks2 := NewKeyedState(1, 0, 1)
	cell2 := RegisterMap(ks2, "buf", intsCodec())
	if err := ks2.RestoreGroup(0, blob); err != nil {
		t.Fatal(err)
	}
	got, _ := cell2.Get(1)
	if len(got) != 1 || got[0] != 30 {
		t.Fatalf("capture corrupted by aliased Put: restored %v, want [30]", got)
	}
}
