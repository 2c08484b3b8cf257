package baselines_test

// Cross-engine conformance: every window aggregation engine — Cutty and all
// baselines — must produce exactly the windows that the window-package
// oracle derives, with values equal to folding each window's elements.
// This is the load-bearing correctness test of the whole sharing layer: the
// E1–E5 experiments are only meaningful because all strategies pass it.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/window"
)

type mkEngine struct {
	name     string
	make     func(engine.Emit) engine.Engine
	periodic bool // true if the engine only accepts periodic windows
}

func allEngines() []mkEngine {
	return []mkEngine{
		{"cutty", func(e engine.Emit) engine.Engine { return cutty.New(e) }, false},
		{"cutty-linear", func(e engine.Emit) engine.Engine { return cutty.New(e, cutty.WithLinearEval()) }, false},
		{"buckets", func(e engine.Emit) engine.Engine { return baselines.NewBuckets(e) }, false},
		{"eager", func(e engine.Emit) engine.Engine { return baselines.NewEager(e) }, false},
		{"b-int", func(e engine.Emit) engine.Engine { return baselines.NewBInt(e) }, false},
		{"pairs", baselines.NewPairs, true},
		{"panes", baselines.NewPanes, true},
	}
}

// drive feeds elements with the canonical watermark-before-element protocol
// and a final flush watermark.
func drive(e interface {
	OnWatermark(wm int64)
	OnElement(ts int64, v float64)
}, elems []window.Element) {
	for _, el := range elems {
		e.OnWatermark(el.Ts)
		e.OnElement(el.Ts, el.V)
	}
	e.OnWatermark(math.MaxInt64)
}

// expected computes the oracle result set for the given queries.
func expected(queries []engine.Query, elems []window.Element) []engine.Result {
	var out []engine.Result
	events := window.Interleave(elems, math.MaxInt64)
	for qid, q := range queries {
		for _, ext := range window.Drive(q.Window, events) {
			acc := q.Fn.Identity
			for p := ext.FromPos; p < ext.ToPos; p++ {
				if p == ext.FromPos {
					acc = q.Fn.Lift(elems[p].V)
				} else {
					acc = q.Fn.Combine(acc, q.Fn.Lift(elems[p].V))
				}
			}
			out = append(out, engine.Result{
				QueryID: qid,
				Start:   ext.Start,
				End:     ext.End,
				Value:   q.Fn.Lower(acc),
				Count:   acc.N,
			})
		}
	}
	return out
}

func sortResults(rs []engine.Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.QueryID != b.QueryID {
			return a.QueryID < b.QueryID
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		// Distinct windows may share (query, start, end) — e.g. consecutive
		// delta windows between equal timestamps — so break ties on content.
		if a.Count != b.Count {
			return a.Count < b.Count
		}
		return a.Value < b.Value
	})
}

func assertConform(t *testing.T, name string, got, want []engine.Result) {
	t.Helper()
	sortResults(got)
	sortResults(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d\n got: %+v\nwant: %+v", name, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.QueryID != w.QueryID || g.Start != w.Start || g.End != w.End || g.Count != w.Count {
			t.Fatalf("%s: result %d = %+v, want %+v", name, i, g, w)
		}
		if math.Abs(g.Value-w.Value) > 1e-6*(1+math.Abs(w.Value)) {
			t.Fatalf("%s: result %d value = %v, want %v (window %d..%d)", name, i, g.Value, w.Value, g.Start, g.End)
		}
	}
}

func runConformance(t *testing.T, queries []engine.Query, elems []window.Element, periodicOnly bool) {
	t.Helper()
	want := expected(queries, elems)
	for _, mk := range allEngines() {
		if mk.periodic && !periodicOnly {
			continue
		}
		var got []engine.Result
		e := mk.make(func(r engine.Result) { got = append(got, r) })
		for _, q := range queries {
			if _, err := e.AddQuery(q); err != nil {
				t.Fatalf("%s: AddQuery: %v", mk.name, err)
			}
		}
		drive(e, elems)
		assertConform(t, mk.name, got, want)
	}
	if periodicOnly {
		// Cutty's slice timeline — what a window operator runs for a periodic
		// query set instead of an engine per key — driven for one key.
		var got []engine.Result
		tl, ok := cutty.NewTimeline(func(r engine.Result) { got = append(got, r) }, queries)
		if !ok {
			t.Fatalf("cutty-timeline: periodic query set rejected")
		}
		drive(tl.Visit(cutty.NewKeySlices()), elems)
		assertConform(t, "cutty-timeline", got, want)
	}
}

func genStream(rng *rand.Rand, n int, maxGap int64) []window.Element {
	elems := make([]window.Element, n)
	var ts int64
	for i := range elems {
		ts += rng.Int63n(maxGap + 1)
		elems[i] = window.Element{Ts: ts, V: float64(rng.Intn(20)) - 5}
	}
	return elems
}

func TestConformTumblingSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	queries := []engine.Query{{Window: window.Tumbling(10), Fn: agg.SumF64()}}
	runConformance(t, queries, genStream(rng, 300, 4), true)
}

func TestConformSlidingAllFns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fname := range []string{"sum", "count", "min", "max", "avg", "var"} {
		queries := []engine.Query{{Window: window.Sliding(20, 5), Fn: agg.StdFnF64(fname)}}
		runConformance(t, queries, genStream(rng, 200, 3), true)
	}
}

func TestConformSlidingNonDividing(t *testing.T) {
	// size not a multiple of slide: exercises the pairs two-length slicing.
	rng := rand.New(rand.NewSource(3))
	queries := []engine.Query{{Window: window.Sliding(7, 3), Fn: agg.SumF64()}}
	runConformance(t, queries, genStream(rng, 250, 2), true)
}

func TestConformMultiQueryPeriodic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	queries := []engine.Query{
		{Window: window.Tumbling(8), Fn: agg.SumF64()},
		{Window: window.Sliding(12, 4), Fn: agg.SumF64()},
		{Window: window.Sliding(10, 5), Fn: agg.MaxF64()},
		{Window: window.Sliding(9, 3), Fn: agg.AvgF64()},
	}
	runConformance(t, queries, genStream(rng, 400, 3), true)
}

func TestConformSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	queries := []engine.Query{
		{Window: window.Session(6), Fn: agg.SumF64()},
		{Window: window.Session(9), Fn: agg.CountF64()},
	}
	// maxGap larger than session gaps so sessions actually split.
	runConformance(t, queries, genStream(rng, 300, 12), false)
}

func TestConformCountWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	queries := []engine.Query{
		{Window: window.CountTumbling(7), Fn: agg.SumF64()},
		{Window: window.CountSliding(10, 4), Fn: agg.MinF64()},
	}
	runConformance(t, queries, genStream(rng, 200, 3), false)
}

func TestConformPunctuationAndDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	elems := genStream(rng, 300, 3)
	queries := []engine.Query{
		{Window: window.Punctuation(func(v float64) bool { return v < -3 }), Fn: agg.SumF64()},
		{Window: window.Delta(8), Fn: agg.VarF64()},
	}
	runConformance(t, queries, elems, false)
}

func TestConformMixedPeriodicAndSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	queries := []engine.Query{
		{Window: window.Sliding(15, 5), Fn: agg.SumF64()},
		{Window: window.Session(7), Fn: agg.SumF64()},
		{Window: window.Tumbling(11), Fn: agg.MaxF64()},
		{Window: window.SessionWithMaxDuration(6, 20), Fn: agg.CountF64()},
	}
	runConformance(t, queries, genStream(rng, 350, 9), false)
}

// Randomized conformance sweep: random query sets over random streams.
func TestConformRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		nq := rng.Intn(4) + 1
		queries := make([]engine.Query, 0, nq)
		periodicOnly := true
		for i := 0; i < nq; i++ {
			var spec window.Spec
			switch rng.Intn(6) {
			case 0:
				spec = window.Tumbling(int64(rng.Intn(20) + 1))
			case 1:
				slide := int64(rng.Intn(8) + 1)
				spec = window.Sliding(slide*int64(rng.Intn(4)+1)+int64(rng.Intn(int(slide))), slide)
				if spec.Size < spec.Slide {
					spec = window.Sliding(spec.Slide, spec.Slide)
				}
			case 2:
				spec = window.Session(int64(rng.Intn(10) + 1))
				periodicOnly = false
			case 3:
				spec = window.CountTumbling(int64(rng.Intn(9) + 1))
				periodicOnly = false
			case 4:
				spec = window.Delta(float64(rng.Intn(10) + 1))
				periodicOnly = false
			case 5:
				spec = window.TimeOrCount(int64(rng.Intn(20)+5), int64(rng.Intn(8)+2))
				periodicOnly = false
			}
			fn := agg.StdFnF64([]string{"sum", "count", "min", "max", "avg", "var"}[rng.Intn(6)])
			queries = append(queries, engine.Query{Window: spec, Fn: fn})
		}
		elems := genStream(rng, rng.Intn(300)+50, int64(rng.Intn(6)+1))
		runConformance(t, queries, elems, periodicOnly)
	}
}

func TestPairsRejectsNonPeriodic(t *testing.T) {
	for _, mk := range []func(engine.Emit) engine.Engine{baselines.NewPairs, baselines.NewPanes} {
		e := mk(func(engine.Result) {})
		if _, err := e.AddQuery(engine.Query{Window: window.Session(5), Fn: agg.SumF64()}); err == nil {
			t.Fatalf("%s accepted a session window", e.Name())
		}
		if _, err := e.AddQuery(engine.Query{Window: window.Tumbling(5), Fn: agg.SumF64()}); err != nil {
			t.Fatalf("%s rejected a tumbling window: %v", e.Name(), err)
		}
	}
}

func TestEnginesRejectIncompleteQuery(t *testing.T) {
	for _, mk := range allEngines() {
		e := mk.make(func(engine.Result) {})
		if _, err := e.AddQuery(engine.Query{}); err == nil {
			t.Errorf("%s accepted an empty query", mk.name)
		}
	}
}

func TestRemoveQueryStopsResults(t *testing.T) {
	for _, mk := range allEngines() {
		var got []engine.Result
		e := mk.make(func(r engine.Result) { got = append(got, r) })
		spec := window.Tumbling(10)
		id1, _ := e.AddQuery(engine.Query{Window: spec, Fn: agg.SumF64()})
		id2, _ := e.AddQuery(engine.Query{Window: spec, Fn: agg.SumF64()})
		for ts := int64(0); ts < 50; ts++ {
			e.OnWatermark(ts)
			e.OnElement(ts, 1)
		}
		e.RemoveQuery(id1)
		before := len(got)
		for ts := int64(50); ts < 100; ts++ {
			e.OnWatermark(ts)
			e.OnElement(ts, 1)
		}
		e.OnWatermark(math.MaxInt64)
		for _, r := range got[before:] {
			if r.QueryID == id1 {
				t.Errorf("%s: removed query %d still produced results", mk.name, id1)
			}
		}
		var saw2 bool
		for _, r := range got[before:] {
			if r.QueryID == id2 {
				saw2 = true
			}
		}
		if !saw2 {
			t.Errorf("%s: surviving query %d produced no results after removal of %d", mk.name, id2, id1)
		}
	}
}

// Cutty must store partials at slice granularity, B-Int at element
// granularity: with elements arriving every tick and slide 5, Cutty holds an
// order of magnitude fewer partials.
func TestCuttyStoresFewerPartialsThanBInt(t *testing.T) {
	specs := []engine.Query{{Window: window.Sliding(100, 5), Fn: agg.SumF64()}}
	var c, b engine.Engine = cutty.New(func(engine.Result) {}), baselines.NewBInt(func(engine.Result) {})
	for _, e := range []engine.Engine{c, b} {
		for _, q := range specs {
			if _, err := e.AddQuery(q); err != nil {
				t.Fatal(err)
			}
		}
		for ts := int64(0); ts < 1000; ts++ {
			e.OnWatermark(ts)
			e.OnElement(ts, 1)
		}
	}
	cp, bp := c.StoredPartials(), b.StoredPartials()
	if cp*4 > bp {
		t.Fatalf("cutty stored %d partials, b-int %d; expected cutty << b-int", cp, bp)
	}
}

// Sharing: with N identical queries, Cutty's stored partials must not grow
// with N (one shared slice store), while Buckets' open-window state does.
func TestCuttySharingAcrossQueries(t *testing.T) {
	run := func(e engine.Engine, n int) int {
		for i := 0; i < n; i++ {
			if _, err := e.AddQuery(engine.Query{Window: window.Sliding(50, 10), Fn: agg.SumF64()}); err != nil {
				t.Fatal(err)
			}
		}
		for ts := int64(0); ts < 500; ts++ {
			e.OnWatermark(ts)
			e.OnElement(ts, 1)
		}
		return e.StoredPartials()
	}
	c1 := run(cutty.New(func(engine.Result) {}), 1)
	c8 := run(cutty.New(func(engine.Result) {}), 8)
	if c8 != c1 {
		t.Fatalf("cutty partials grew with identical queries: 1q=%d 8q=%d", c1, c8)
	}
	b1 := run(baselines.NewBuckets(func(engine.Result) {}), 1)
	b8 := run(baselines.NewBuckets(func(engine.Result) {}), 8)
	if b8 < 8*b1 {
		t.Fatalf("buckets should grow linearly: 1q=%d 8q=%d", b1, b8)
	}
}

// Slices are cut only at window begins: sliding(100, 5) over 1000 ticks must
// keep roughly range/slide slices alive, not one per element.
func TestCuttySliceCount(t *testing.T) {
	c := cutty.New(func(engine.Result) {})
	if _, err := c.AddQuery(engine.Query{Window: window.Sliding(100, 5), Fn: agg.SumF64()}); err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 1000; ts++ {
		c.OnWatermark(ts)
		c.OnElement(ts, 1)
	}
	slices := c.Slices()
	if slices < 15 || slices > 30 { // ~100/5 = 20 live slices
		t.Fatalf("live slices = %d, want ≈20", slices)
	}
}

// Dynamic registration: adding a query mid-stream must produce correct
// results for windows that start after registration.
func TestCuttyDynamicAddQuery(t *testing.T) {
	var got []engine.Result
	c := cutty.New(func(r engine.Result) { got = append(got, r) })
	if _, err := c.AddQuery(engine.Query{Window: window.Tumbling(10), Fn: agg.SumF64()}); err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 50; ts++ {
		c.OnWatermark(ts)
		c.OnElement(ts, 1)
	}
	id2, err := c.AddQuery(engine.Query{Window: window.Tumbling(10), Fn: agg.MaxF64()})
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(50); ts < 100; ts++ {
		c.OnWatermark(ts)
		c.OnElement(ts, float64(ts))
	}
	c.OnWatermark(math.MaxInt64)
	var maxResults []engine.Result
	for _, r := range got {
		if r.QueryID == id2 {
			maxResults = append(maxResults, r)
		}
	}
	if len(maxResults) != 5 { // windows [50,60) .. [90,100)
		t.Fatalf("late query produced %d windows: %+v", len(maxResults), maxResults)
	}
	for i, r := range maxResults {
		wantStart := int64(50 + 10*i)
		if r.Start != wantStart || r.Value != float64(wantStart+9) {
			t.Fatalf("late query window %d = %+v, want start %d max %d", i, r, wantStart, wantStart+9)
		}
	}
}
