package cutty

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

// snapshotQueries is the query set used by the round-trip tests.
func snapshotQueries() []engine.Query {
	return []engine.Query{
		{Window: window.Sliding(20, 5), Fn: agg.SumF64()},
		{Window: window.Session(7), Fn: agg.MaxF64()},
		{Window: window.CountTumbling(9), Fn: agg.CountF64()},
	}
}

func buildEngine(emit engine.Emit, qs []engine.Query, t *testing.T) *Engine {
	t.Helper()
	e := New(emit)
	for _, q := range qs {
		if _, err := e.AddQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// The crash-recovery equivalence property: running a stream straight through
// must produce exactly the same results as running a prefix, snapshotting,
// restoring into a fresh engine, and running the suffix.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 200 + rng.Intn(200)
		cut := 1 + rng.Intn(n-1)
		elems := make([]window.Element, n)
		var ts int64
		for i := range elems {
			ts += rng.Int63n(4)
			elems[i] = window.Element{Ts: ts, V: float64(rng.Intn(10))}
		}

		var straight []engine.Result
		ref := buildEngine(func(r engine.Result) { straight = append(straight, r) }, snapshotQueries(), t)
		for _, el := range elems {
			ref.OnWatermark(el.Ts)
			ref.OnElement(el.Ts, el.V)
		}
		ref.OnWatermark(math.MaxInt64)

		var split []engine.Result
		first := buildEngine(func(r engine.Result) { split = append(split, r) }, snapshotQueries(), t)
		for _, el := range elems[:cut] {
			first.OnWatermark(el.Ts)
			first.OnElement(el.Ts, el.V)
		}
		second := buildEngine(func(r engine.Result) { split = append(split, r) }, snapshotQueries(), t)
		if rest, err := second.ReadState(first.AppendState(nil)); err != nil || len(rest) != 0 {
			t.Fatalf("trial %d: restore: %v, %d bytes left", trial, err, len(rest))
		}
		for _, el := range elems[cut:] {
			second.OnWatermark(el.Ts)
			second.OnElement(el.Ts, el.V)
		}
		second.OnWatermark(math.MaxInt64)

		if len(straight) != len(split) {
			t.Fatalf("trial %d (cut %d/%d): %d results straight, %d with snapshot",
				trial, cut, n, len(straight), len(split))
		}
		count := map[engine.Result]int{}
		for _, r := range straight {
			count[r]++
		}
		for _, r := range split {
			count[r]--
		}
		for r, c := range count {
			if c != 0 {
				t.Fatalf("trial %d: result multiset differs at %+v (delta %d)", trial, r, c)
			}
		}
	}
}

func TestRestoreRejectsQueryMismatch(t *testing.T) {
	e1 := buildEngine(func(engine.Result) {}, snapshotQueries(), t)
	e1.OnWatermark(1)
	e1.OnElement(1, 1)
	// Rebuild with a different (smaller) query set: must fail, not corrupt.
	e2 := buildEngine(func(engine.Result) {}, snapshotQueries()[:1], t)
	if _, err := e2.ReadState(e1.AppendState(nil)); err == nil {
		t.Fatalf("restore into mismatched engine should fail")
	}
}

func TestSnapshotEmptyEngine(t *testing.T) {
	e1 := buildEngine(func(engine.Result) {}, snapshotQueries(), t)
	// The deprecated gob shim carries the typed bytes.
	var buf bytes.Buffer
	var blob []byte
	if err := e1.Snapshot(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&blob); err != nil || !bytes.Equal(blob, e1.AppendState(nil)) {
		t.Fatalf("shim wrote %x (%v), want the typed state %x", blob, err, e1.AppendState(nil))
	}
	e2 := buildEngine(func(engine.Result) {}, snapshotQueries(), t)
	if _, err := e2.ReadState(blob); err != nil {
		t.Fatal(err)
	}
	// Restored empty engine must still work.
	var got []engine.Result
	e2.emit = func(r engine.Result) { got = append(got, r) }
	for ts := int64(0); ts < 50; ts++ {
		e2.OnWatermark(ts)
		e2.OnElement(ts, 1)
	}
	e2.OnWatermark(math.MaxInt64)
	if len(got) == 0 {
		t.Fatalf("restored engine produced no results")
	}
}
