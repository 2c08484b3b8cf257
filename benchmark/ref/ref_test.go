package ref

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/window"
)

// TestWindowsMatchOracle checks the reference against the engine's own window
// oracle on a small random in-order stream of one key: same windows, same
// contents.
func TestWindowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := []Query{
		{Size: 100, Slide: 100, Fn: Sum},
		{Size: 100, Slide: 100, Fn: Count},
		{Size: 1000, Slide: 100, Fn: Avg},
		{Size: 600, Slide: 50, Fn: Max},
	}
	var elems []window.Element
	ts := int64(0)
	for i := 0; i < 2000; i++ {
		ts += int64(rng.Intn(40)) // gaps longer than a slide leave empty windows
		elems = append(elems, window.Element{Ts: ts, V: float64(1 + rng.Intn(100))})
	}
	w := NewWindows(queries...)
	for _, e := range elems {
		w.Add(9, e.Ts, e.V)
	}
	got := w.Results()

	events := window.Interleave(elems, math.MaxInt64)
	total := 0
	for q, spec := range queries {
		ws := window.Sliding(spec.Size, spec.Slide)
		if spec.Size == spec.Slide {
			ws = window.Tumbling(spec.Size)
		}
		for _, ext := range window.Drive(ws, events) {
			if ext.ToPos == ext.FromPos {
				continue // the oracle may report a window that closed empty
			}
			total++
			var sum, mx float64 = 0, math.Inf(-1)
			for _, e := range elems[ext.FromPos:ext.ToPos] {
				sum += e.V
				mx = math.Max(mx, e.V)
			}
			n := ext.ToPos - ext.FromPos
			want := map[Agg]float64{Sum: sum, Count: float64(n), Avg: sum / float64(n), Max: mx}[spec.Fn]
			g, ok := got[WinID{Query: q, Key: 9, Start: ext.Start}]
			if !ok {
				t.Fatalf("query %d: oracle window [%d,%d) missing from the reference", q, ext.Start, ext.End)
			}
			if g.Count != n || !closeTo(g.Value, want) {
				t.Fatalf("query %d window [%d,%d): reference %v/%d, oracle %v/%d", q, ext.Start, ext.End, g.Value, g.Count, want, n)
			}
			if w.End(WinID{Query: q, Start: ext.Start}) != ext.End {
				t.Fatalf("query %d window %d: end %d, oracle %d", q, ext.Start, w.End(WinID{Query: q, Start: ext.Start}), ext.End)
			}
		}
	}
	if total != len(got) {
		t.Fatalf("reference has %d windows, oracle %d", len(got), total)
	}
}

func TestCadenceDropsOnlyBehindTheWatermark(t *testing.T) {
	c := Cadence{Every: 4, Lag: 10}
	// Four records, max 100: the watermark after them is 90.
	for _, ts := range []int64{100, 95, 98, 97} {
		if c.Late(ts) {
			t.Fatalf("ts %d late before any watermark", ts)
		}
	}
	for _, tc := range []struct {
		ts   int64
		late bool
	}{{91, false}, {90, true}, {50, true}, {200, false}} {
		if got := c.Late(tc.ts); got != tc.late {
			t.Fatalf("ts %d: late=%v, want %v", tc.ts, got, tc.late)
		}
	}
	// Those four advanced the clock to max 200: watermark 190, and a dropped
	// record counted towards the cadence like any other.
	if !c.Late(190) || c.Late(191) {
		t.Fatal("watermark after the second run of four should be 190")
	}
}

func TestCompare(t *testing.T) {
	want := map[WinID]WinVal{{0, 1, 0}: {10, 2}, {0, 1, 100}: {5, 1}, {1, 2, 0}: {7, 3}}
	got := map[WinID][]WinVal{
		{0, 1, 0}:   {{10, 2}, {10, 2}}, // duplicate: one extra
		{0, 1, 100}: {{6, 1}},           // wrong value
		{3, 3, 3}:   {{1, 1}},           // unknown: extra
	}
	d := CompareWindows(want, got)
	if d.Expected != 3 || d.Missing != 1 || d.Bad != 1 || d.Extra != 2 || d.Failed() != 4 {
		t.Fatalf("got %+v", d)
	}
	s := CompareSums(Sums{1: 2, 2: 3}, map[uint64][]float64{1: {2}, 2: {3.5}, 4: {1}})
	if s.Missing != 0 || s.Bad != 1 || s.Extra != 1 {
		t.Fatalf("got %+v", s)
	}
}
