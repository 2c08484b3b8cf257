package state

import (
	"bytes"
	"math"
	"os"
	goruntime "runtime"
	"strings"
	"testing"
)

// fuzzState is the KeyedState FuzzKeyedGroupDecode restores into: a float64
// MapCell and an int64 GroupCell, the reduce's and the window watermark's
// typed encodings.
func fuzzState() (*KeyedState, *MapCell[float64], *GroupCell[int64]) {
	ks := NewKeyedState(4, 0, 4)
	acc := RegisterMap(ks, "acc", ValueCodec[float64]())
	wm := RegisterPerGroup(ks, "wm", int64(math.MinInt64), ValueCodec[int64]())
	return ks, acc, wm
}

// fuzzBlobs are real group blobs of fuzzState, groups 0 to 3 of each state:
// empty, a few keys, many keys with integral and fractional sums, and
// extreme values.
func fuzzBlobs(t testing.TB) [][]byte {
	var out [][]byte
	for _, fill := range []func(*MapCell[float64], *GroupCell[int64]){
		func(*MapCell[float64], *GroupCell[int64]) {},
		func(acc *MapCell[float64], wm *GroupCell[int64]) {
			acc.Put(0, 1)
			acc.Put(4, 2.5)
			wm.SetAll(1_700_000_000_000)
		},
		func(acc *MapCell[float64], wm *GroupCell[int64]) {
			for k := uint64(0); k < 400; k++ {
				acc.Put(k*k*2654435761, float64(k)/3)
			}
			wm.SetAll(-7)
		},
		func(acc *MapCell[float64], wm *GroupCell[int64]) {
			acc.Put(math.MaxUint64, math.Inf(-1))
			acc.Put(1, math.NaN())
			acc.Put(2, -0.0)
			wm.SetAll(math.MaxInt64)
		},
	} {
		ks, acc, wm := fuzzState()
		fill(acc, wm)
		blobs, err := ks.Capture().EncodeGroups()
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 4; g++ {
			out = append(out, blobs[g])
		}
	}
	return out
}

func TestGroupBlobRoundTrip(t *testing.T) {
	ks, acc, wm := fuzzState()
	want := map[uint64]float64{}
	for k := uint64(1); k < 2000; k++ {
		key := k * 0x9e3779b97f4a7c15
		want[key] = float64(k%13) * 1.25
		acc.Put(key, want[key])
	}
	wm.SetAll(-42)
	blobs, err := ks.Capture().EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	ks2, acc2, wm2 := fuzzState()
	for g, blob := range blobs {
		if err := ks2.RestoreGroup(g, blob); err != nil {
			t.Fatal(err)
		}
	}
	if acc2.Len() != len(want) {
		t.Fatalf("restored %d keys, want %d", acc2.Len(), len(want))
	}
	for k, v := range want {
		if got, _ := acc2.Get(k); got != v {
			t.Fatalf("key %#x = %v, want %v", k, got, v)
		}
		if got := wm2.Get(k); got != -42 {
			t.Fatalf("watermark of key %#x's group = %d, want -42", k, got)
		}
	}
}

// TestCursorErrorSticks: the first bad field's error sticks — every later
// read is a zero value and Done reports it — and Done names bytes left over
// after clean reads.
func TestCursorErrorSticks(t *testing.T) {
	c := Cursor{B: []byte{2, 1, 1, 'a'}}
	if c.Bool() || c.Uvarint() != 0 || c.Bytes() != nil || c.Done() == nil || !strings.Contains(c.Err.Error(), "bool encoded as 2") {
		t.Fatalf("after a bad bool: %+v", c)
	}
	c = Cursor{B: append(AppendBool(AppendBytes(nil, "ab"), true), 7)}
	if string(c.Bytes()) != "ab" || !c.Bool() || c.Done() == nil || c.Err.Error() != "1 trailing bytes" {
		t.Fatalf("clean reads then a byte left: %+v", c)
	}
}

func TestGroupBlobRejectsMalformed(t *testing.T) {
	ks, acc, _ := fuzzState()
	acc.Put(1, 1)
	acc.Put(2, 2)
	g := KeyGroupFor(1, 4)
	blob, err := ks.Capture().EncodeGroup(g)
	if err != nil {
		t.Fatal(err)
	}
	wmCell := blob[4+int(blob[4])+1:] // after "acc" and its section
	for name, tc := range map[string]struct {
		blob []byte
		want string
	}{
		"trailing byte":          {append(bytes.Clone(blob), 0), "trailing bytes"},
		"truncated":              {blob[:len(blob)-1], "does not fit"},
		"key count past the end": {append([]byte{3, 'a', 'c', 'c', 2, 0xff, 0x7f}, wmCell...), "count 16383 does not fit"},
		"keys not ascending":     {append([]byte{3, 'a', 'c', 'c', 5, 2, 1, 0, 0, 0}, wmCell...), "not ascending"},
		"renamed cell":           {append([]byte{3, 'a', 'c', 'x'}, blob[4:]...), `cell "acx" in snapshot, "acc" registered`},
	} {
		ks2, _, _ := fuzzState()
		if err := ks2.RestoreGroup(g, tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// FuzzKeyedGroupDecode restores an arbitrary blob into a float64 MapCell and
// an int64 GroupCell: an error or a value, never a panic, and never an
// allocation beyond a bound proportional to the input. What restores
// re-encodes to a blob that restores and re-encodes to itself. Besides the
// blobs of fuzzBlobs, testdata/fuzz holds a session window's key group (one
// engine per key) and a window join's, which internal/dataflow's
// TestStateFuzzSeedsAreCurrent writes.
func FuzzKeyedGroupDecode(f *testing.F) {
	for i, blob := range fuzzBlobs(f) {
		f.Add(uint8(i%4), blob)
	}
	f.Fuzz(func(t *testing.T, group uint8, blob []byte) {
		g := int(group) % 4
		ks, _, _ := fuzzState()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := ks.RestoreGroup(g, blob)
		goruntime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(blob)); got > bound {
			t.Fatalf("restoring %d bytes allocated %d, bound %d", len(blob), got, bound)
		}
		if err != nil {
			return
		}
		canon, err := ks.Capture().EncodeGroup(g)
		if err != nil {
			t.Fatal(err)
		}
		ks2, _, _ := fuzzState()
		if err := ks2.RestoreGroup(g, canon); err != nil {
			t.Fatalf("re-encoded blob does not restore: %v", err)
		}
		if again, _ := ks2.Capture().EncodeGroup(g); !bytes.Equal(again, canon) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", canon, again)
		}
	})
}

func TestFileBytesAreDeterministic(t *testing.T) {
	snap := NewSnapshot(3)
	snap.NumKeyGroups = 8
	for i := 0; i < 20; i++ {
		snap.Put(SubtaskKey{OperatorID: i % 3, Subtask: i}, []byte{byte(i)})
		snap.PutGroup(GroupKey{OperatorID: i % 2, KeyGroup: i}, bytes.Repeat([]byte{byte(i)}, i))
	}
	var files [][]byte
	for i := 0; i < 2; i++ {
		b, err := NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Persist(snap); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(b.path(3))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("the same snapshot persisted to different file bytes")
	}
}
