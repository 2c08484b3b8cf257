package state

import "testing"

// TestKeyRefMatchesCellAccess: the resolved handle reads and writes the
// same slot as the cell's hashed path, and a ref resolved before a write
// observes it.
func TestKeyRefMatchesCellAccess(t *testing.T) {
	ks := NewKeyedState(8, 0, 8)
	cell := RegisterMap(ks, "acc", ValueCodec[float64]())
	ref := cell.RefFor(5)
	if _, ok := ref.Get(); ok {
		t.Fatalf("ref saw a value in an empty cell")
	}
	ref.Put(1.5)
	if v, ok := cell.Get(5); !ok || v != 1.5 {
		t.Fatalf("cell.Get after ref.Put = %v, %v", v, ok)
	}
	cell.Put(5, 2.5)
	if v, _ := ref.Get(); v != 2.5 {
		t.Fatalf("ref.Get after cell.Put = %v", v)
	}
	if ref.Key() != 5 {
		t.Fatalf("ref.Key = %d", ref.Key())
	}
}

// TestKeyRefClonesDuringCapture is the copy-on-write contract for
// run-grouped state access: a ref resolved BEFORE an asynchronous snapshot
// capture begins must still clone shared structures when mutated through
// GetMut while the capture is in flight — vectorized keyed operators hold
// refs for a whole data run, and a barrier-triggered capture between runs
// must never see their later mutations.
func TestKeyRefClonesDuringCapture(t *testing.T) {
	ks := NewKeyedState(4, 0, 4)
	cell := RegisterMap(ks, "buf", intsCodec())
	ref := cell.RefFor(1)
	ref.Put([]int{1, 2, 3})

	captured := ks.Capture()
	shared, _ := ref.Get()
	mut, ok := ref.GetMut()
	if !ok {
		t.Fatalf("GetMut lost the value")
	}
	mut[0] = 99
	if shared[0] != 1 {
		t.Fatalf("KeyRef.GetMut did not clone while a capture was in flight")
	}
	// A second GetMut through the ref inside the same capture window reuses
	// the private copy instead of cloning again.
	mut2, _ := ref.GetMut()
	if &mut2[0] != &mut[0] {
		t.Fatalf("value cloned twice within one capture window")
	}
	// The capture still serializes the pre-mutation value.
	blobs, err := captured.EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	ks2 := NewKeyedState(4, 0, 4)
	cell2 := RegisterMap(ks2, "buf", intsCodec())
	for group, blob := range blobs {
		if err := ks2.RestoreGroup(group, blob); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := cell2.Get(1)
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("capture saw post-capture mutation: %v", got)
	}

	// Capture released: mutation through the ref no longer clones.
	before, _ := ref.GetMut()
	after, _ := ref.GetMut()
	if &before[0] != &after[0] {
		t.Fatalf("value cloned after the capture was released")
	}
}
