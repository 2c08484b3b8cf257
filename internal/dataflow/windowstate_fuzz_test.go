package dataflow

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/state"
	"repro/internal/window"
)

// fuzzQuerySets are the operators FuzzWindowStateDecode restores into: one,
// two and four function stores. The first is the query set of internal/core's
// parent-written fixture.
var fuzzQuerySets = [][]WindowQuery{
	{{Spec: window.Tumbling(100), Fn: agg.SumF64()}, {Spec: window.Sliding(200, 50), Fn: agg.SumF64()}},
	{{Spec: window.Tumbling(10), Fn: agg.SumF64()}, {Spec: window.Tumbling(10), Fn: agg.MaxF64()}},
	windowsQueries(100),
}

// FuzzWindowStateDecode restores a window operator from an arbitrary key-group
// blob. Seeds are real blobs — the operator's own, the blobs of the
// parent-written fixture — and a key holding an empty reorder buffer, which
// the format allows. Whatever
// the bytes, the restore returns an error or an operator that runs: it never
// panics, now or at the next fire, and never allocates beyond a bound
// proportional to the input (plus the 10 MB encoding/gob reads ahead on the
// word of a message's length prefix, which is the blob codec's to fix).
func FuzzWindowStateDecode(f *testing.F) {
	for set, queries := range fuzzQuerySets {
		op := NewWindowOp(queries...)().(*WindowOp)
		if err := op.Open(&OpContext{}); err != nil {
			f.Fatal(err)
		}
		for _, st := range oracleSchedule(rand.New(rand.NewSource(1)))[:120] {
			if st.run != nil {
				op.OnBatch(append([]Record{}, st.run...), nil)
				continue
			}
			op.OnWatermark(st.wm, &capCollector{})
		}
		groups := captureGroups(f, op)
		for g := 0; g < 8; g++ {
			f.Add(uint8(set), uint8(g), groups[g])
		}
	}
	backend, err := state.NewFileBackend("../core/testdata/parent_snapshot")
	if err != nil {
		f.Fatal(err)
	}
	snap, ok, err := backend.Latest()
	if err != nil || !ok {
		f.Fatalf("parent-written fixture: found %v, err %v", ok, err)
	}
	fixtureSeeds := 0
	for gk, blob := range snap.Groups {
		op := NewWindowOp(fuzzQuerySets[0]...)().(*WindowOp)
		if op.Open(&OpContext{RestoreGroups: map[int][]byte{gk.KeyGroup: blob}}) == nil && op.liveKeys > 0 {
			f.Add(uint8(0), uint8(gk.KeyGroup), blob)
			fixtureSeeds++
		}
	}
	if fixtureSeeds == 0 {
		f.Fatal("no window state in the parent-written fixture")
	}
	group, blob := emptyBufferBlob(f)
	f.Add(uint8(0), uint8(group), blob)

	f.Fuzz(func(t *testing.T, set, group uint8, blob []byte) {
		op := NewWindowOp(fuzzQuerySets[int(set)%len(fuzzQuerySets)]...)().(*WindowOp)
		g := int(group) % state.DefaultNumKeyGroups
		t0 := time.Now()
		defer func() {
			if d := time.Since(t0); d > 2*time.Second {
				t.Fatalf("slow input: %v", d)
			}
		}()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := op.Open(&OpContext{RestoreGroups: map[int][]byte{g: blob}})
		goruntime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(12<<20+1024*len(blob)); got > bound {
			t.Fatalf("restoring %d bytes allocated %d, bound %d", len(blob), got, bound)
		}
		if err != nil {
			return
		}
		out := &capCollector{}
		op.OnBatch([]Record{Data(40, 1, 1.0), Data(1<<40, 2, 1.0)}, nil)
		op.OnWatermark(50, out)
		op.OnWatermark(math.MaxInt64, out)
	})
}
