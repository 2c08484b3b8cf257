package cutty

import (
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

func feed(e *Engine, from, to int64, v func(int64) float64) {
	for ts := from; ts < to; ts++ {
		e.OnWatermark(ts)
		e.OnElement(ts, v(ts))
	}
}

func TestMetaRing(t *testing.T) {
	var r metaRing
	if r.len() != 0 || r.nextAbs() != 0 {
		t.Fatalf("empty ring: len=%d next=%d", r.len(), r.nextAbs())
	}
	for i := 0; i < 100; i++ {
		r.append(sliceMeta{firstTs: int64(i * 10)})
	}
	for i := 0; i < 60; i++ {
		r.popFront()
	}
	if r.base != 60 || r.len() != 40 || r.nextAbs() != 100 {
		t.Fatalf("after pops: base=%d len=%d next=%d", r.base, r.len(), r.nextAbs())
	}
	if r.at(60).firstTs != 600 || r.at(99).firstTs != 990 {
		t.Fatalf("absolute addressing broken")
	}
}

func TestMetaRingFirstAtOrAfter(t *testing.T) {
	var r metaRing
	for _, ts := range []int64{0, 10, 20, 30} {
		r.append(sliceMeta{firstTs: ts})
	}
	cases := []struct{ from, cutoff, want int64 }{
		{0, 15, 2},
		{0, 10, 1},
		{0, 100, 4},
		{2, 5, 2}, // from beyond cutoff: empty range
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := r.firstAtOrAfter(c.from, c.cutoff); got != c.want {
			t.Errorf("firstAtOrAfter(%d,%d) = %d, want %d", c.from, c.cutoff, got, c.want)
		}
	}
}

func TestEvictionBoundsMemory(t *testing.T) {
	e := New(func(engine.Result) {})
	if _, err := e.AddQuery(engine.Query{Window: window.Sliding(100, 10), Fn: agg.SumF64()}); err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 10000, func(int64) float64 { return 1 })
	// Live slices must stay around range/slide = 10, regardless of stream length.
	if s := e.Slices(); s > 20 {
		t.Fatalf("eviction failed: %d live slices after 10k elements", s)
	}
}

func TestEvictAllWhenNoOpenWindows(t *testing.T) {
	e := New(func(engine.Result) {})
	id, _ := e.AddQuery(engine.Query{Window: window.Session(5), Fn: agg.SumF64()})
	feed(e, 0, 100, func(int64) float64 { return 1 })
	e.RemoveQuery(id)
	if s := e.Slices(); s != 0 {
		t.Fatalf("removing the only query should evict all slices, have %d", s)
	}
	if e.StoredPartials() != 0 {
		t.Fatalf("stores not dropped: %d partials", e.StoredPartials())
	}
}

func TestTwoFnStoresShareSlices(t *testing.T) {
	e := New(func(engine.Result) {})
	if _, err := e.AddQuery(engine.Query{Window: window.Sliding(50, 10), Fn: agg.SumF64()}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddQuery(engine.Query{Window: window.Sliding(50, 10), Fn: agg.MaxF64()}); err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 500, func(ts int64) float64 { return float64(ts % 7) })
	// Two stores over the same slice ring: partials = 2 * slices.
	if e.StoredPartials() != 2*e.Slices() {
		t.Fatalf("stores misaligned: %d partials, %d slices", e.StoredPartials(), e.Slices())
	}
}

func TestWatermarkRegressionIgnored(t *testing.T) {
	var results []engine.Result
	e := New(func(r engine.Result) { results = append(results, r) })
	if _, err := e.AddQuery(engine.Query{Window: window.Tumbling(10), Fn: agg.SumF64()}); err != nil {
		t.Fatal(err)
	}
	e.OnWatermark(5)
	e.OnElement(5, 1)
	e.OnWatermark(3) // regression: must be ignored
	e.OnWatermark(25)
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	if results[0].Start != 0 || results[0].End != 10 || results[0].Value != 1 {
		t.Fatalf("result = %+v", results[0])
	}
}

func TestResultCountsMatchElements(t *testing.T) {
	var results []engine.Result
	e := New(func(r engine.Result) { results = append(results, r) })
	if _, err := e.AddQuery(engine.Query{Window: window.Tumbling(10), Fn: agg.AvgF64()}); err != nil {
		t.Fatal(err)
	}
	feed(e, 0, 100, func(int64) float64 { return 2 })
	e.OnWatermark(math.MaxInt64)
	if len(results) != 10 {
		t.Fatalf("got %d windows", len(results))
	}
	for _, r := range results {
		if r.Count != 10 || r.Value != 2 {
			t.Fatalf("window %+v: want count 10 avg 2", r)
		}
	}
}

// TestIdle: an engine is idle when it is new and again once every window it
// opened has closed and its slices are evicted — for a session after the gap,
// for a count window only at the end of the stream.
func TestIdle(t *testing.T) {
	session := New(func(engine.Result) {})
	session.AddQuery(engine.Query{Window: window.Session(5), Fn: agg.SumF64()})
	count := New(func(engine.Result) {})
	count.AddQuery(engine.Query{Window: window.CountTumbling(3), Fn: agg.SumF64()})
	for name, e := range map[string]*Engine{"session": session, "count": count} {
		if !e.Idle() {
			t.Fatalf("%s: a new engine is not idle", name)
		}
		feed(e, 0, 10, func(int64) float64 { return 1 })
		if e.Idle() {
			t.Fatalf("%s: idle with a window open", name)
		}
	}
	session.OnWatermark(100)
	if !session.Idle() {
		t.Fatalf("session: not idle after its session closed (%d slices)", session.Slices())
	}
	count.OnWatermark(100)
	if count.Idle() {
		t.Fatal("count: idle with a count window open")
	}
	count.OnWatermark(math.MaxInt64)
	if !count.Idle() {
		t.Fatal("count: not idle after the end-of-stream watermark")
	}
}

func TestRemoveUnknownQueryNoop(t *testing.T) {
	e := New(func(engine.Result) {})
	e.RemoveQuery(42) // must not panic
}

func TestStableUnderManyQueriesSameFn(t *testing.T) {
	var n int
	e := New(func(engine.Result) { n++ })
	for i := 0; i < 16; i++ {
		if _, err := e.AddQuery(engine.Query{Window: window.Sliding(40, 8), Fn: agg.SumF64()}); err != nil {
			t.Fatal(err)
		}
	}
	feed(e, 0, 400, func(int64) float64 { return 1 })
	e.OnWatermark(math.MaxInt64)
	if len(e.stores) != 1 {
		t.Fatalf("expected a single shared store, got %d", len(e.stores))
	}
	if n == 0 {
		t.Fatalf("no results emitted")
	}
}
