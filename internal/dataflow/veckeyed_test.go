package dataflow

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// newKeyedReduce opens a fresh keyed reduce with a non-commutative fold, so
// any reordering or re-bracketing in the batched path changes the result.
func newKeyedReduce(t *testing.T, emitEach bool) *KeyedReduceOp {
	t.Helper()
	op := &KeyedReduceOp{
		F:        func(acc, v float64) float64 { return acc*2 + v },
		Init:     1,
		EmitEach: emitEach,
	}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	return op
}

// keyedRun builds a data run with repeated keys (adjacent and interleaved)
// and non-float64 records sprinkled in — the inputs the run-grouping scratch
// table has to get right.
func keyedRun(n int, tsBase int64) []Record {
	in := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := Data(tsBase+int64(i), uint64(i*i%5), float64(i%11)+0.25)
		switch {
		case i%9 == 4:
			r.Value = "not a float"
		case i%13 == 7:
			r.Value = i // int, not float64
		}
		in = append(in, r)
	}
	return in
}

// TestKeyedReduceRunCutsAreInvisible holds the keyed reduce to the contract:
// however a sequence of records is cut into runs, it emits the records runs
// of one do, with EmitEach both on and off, and leaves identical state behind
// (compared via Finish).
func TestKeyedReduceRunCutsAreInvisible(t *testing.T) {
	in := keyedRun(157, 0)
	for _, emitEach := range []bool{true, false} {
		ref := newKeyedReduce(t, emitEach)
		want := cutOutput(ref, in, 1)
		if emitEach && len(want) == 0 {
			t.Fatal("runs of one emitted nothing")
		}
		refOut := &capCollector{}
		ref.Finish(refOut)
		for _, size := range cutSizes[1:] {
			op := newKeyedReduce(t, emitEach)
			if got := cutOutput(op, in, size); !reflect.DeepEqual(got, want) {
				t.Fatalf("emitEach=%v: runs of %d diverged from runs of one:\n got %+v\nwant %+v", emitEach, size, got, want)
			}
			opOut := &capCollector{}
			op.Finish(opOut)
			if !reflect.DeepEqual(opOut.recs, refOut.recs) {
				t.Fatalf("emitEach=%v: Finish state after runs of %d diverged:\n got %+v\nwant %+v",
					emitEach, size, opOut.recs, refOut.recs)
			}
		}
	}
}

// TestKeyedReduceSnapshotCrossesRunLengths: a checkpoint taken mid-stream
// under whole-batch runs restores into an operator fed runs of one (and vice
// versa) with identical final state — writes deferred to the end of a run are
// never visible to a barrier, which lands between runs.
func TestKeyedReduceSnapshotCrossesRunLengths(t *testing.T) {
	first, second := keyedRun(40, 0), keyedRun(40, 100)

	ref := newKeyedReduce(t, false)
	cutOutput(ref, first, 1)
	cutOutput(ref, second, 1)
	want := &capCollector{}
	ref.Finish(want)

	for _, sizes := range [][2]int{{64, 1}, {1, 64}, {7, 2}} {
		half := newKeyedReduce(t, false)
		cutOutput(half, first, sizes[0])
		restored := &KeyedReduceOp{F: ref.F, Init: ref.Init}
		if err := restored.Open(&OpContext{RestoreGroups: captureGroups(t, half)}); err != nil {
			t.Fatal(err)
		}
		cutOutput(restored, second, sizes[1])
		got := &capCollector{}
		restored.Finish(got)
		if !reflect.DeepEqual(got.recs, want.recs) {
			t.Fatalf("runs of %d -> restore -> runs of %d diverged:\n got %+v\nwant %+v", sizes[0], sizes[1], got.recs, want.recs)
		}
	}
}

// windowScript drives a WindowOp through a fixed interleaving of data and
// watermarks, the data between two watermarks cut into runs of at most size,
// and returns everything emitted. The script includes exactly-late records
// (Ts == watermark, must drop), barely-in-time records (Ts == watermark+1,
// must keep) and out-of-order-but-not-late records.
func windowScript(t *testing.T, size int) ([]Record, int64) {
	t.Helper()
	deliver := func(op *WindowOp, b []Record, out Collector) {
		cut(b, size, func(run []Record) {
			if ret := op.OnBatch(run, out); len(ret) != 0 {
				t.Fatalf("WindowOp.OnBatch returned records: %+v", ret)
			}
		})
	}
	op := newWindowOp(t,
		WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()},
		WindowQuery{Spec: window.Sliding(20, 10), Fn: agg.CountF64()})
	out := &capCollector{}
	deliver(op, keyedRun(30, 0), out)
	op.OnWatermark(20, out)
	// One run mixing late and in-time elements across keys: Ts <= 20 drops,
	// Ts == 21 is the earliest survivor.
	late := []Record{
		Data(5, 1, 1.0),   // late
		Data(20, 1, 2.0),  // exactly at the watermark: late
		Data(21, 1, 3.0),  // barely in time
		Data(20, 4, 4.0),  // late, different key
		Data(35, 4, 5.0),  // in time
		Data(25, 2, 6.0),  // in time, out of order vs the 35 above
		Data(12, 3, "no"), // non-float64: ignored, not counted as late
	}
	deliver(op, late, out)
	deliver(op, keyedRun(30, 22), out)
	op.OnWatermark(40, out)
	deliver(op, keyedRun(15, 41), out)
	op.OnWatermark(math.MaxInt64, out)
	return out.recs, op.DroppedLate()
}

// TestWindowOpRunCutsAreInvisible holds the window operator to the contract:
// byte-identical emissions and the same late-drop count however the data is
// cut into runs, across watermark interleavings, including drops exactly at
// the allowed-lateness boundary.
func TestWindowOpRunCutsAreInvisible(t *testing.T) {
	want, wantDropped := windowScript(t, 1)
	if wantDropped != 3 {
		t.Fatalf("runs of one dropped %d late records, want 3", wantDropped)
	}
	if len(want) == 0 {
		t.Fatal("script emitted no windows")
	}
	for _, size := range cutSizes[1:] {
		got, gotDropped := windowScript(t, size)
		if gotDropped != wantDropped {
			t.Fatalf("DroppedLate = %d with runs of %d, %d with runs of one", gotDropped, size, wantDropped)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runs of %d diverged from runs of one:\n got %+v\nwant %+v", size, got, want)
		}
	}
}

// TestWindowOpSnapshotCrossesRunLengths: capture mid-script under whole-batch
// runs, restore, finish with runs of one — emissions match a run of the same
// script fed runs of one throughout.
func TestWindowOpSnapshotCrossesRunLengths(t *testing.T) {
	q := WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()}
	head, tail := keyedRun(30, 0), keyedRun(30, 25)

	ref := newWindowOp(t, q)
	refOut := &capCollector{}
	for _, r := range head {
		FeedOne(ref, r, refOut)
	}
	ref.OnWatermark(20, refOut)
	for _, r := range tail {
		FeedOne(ref, r, refOut)
	}
	ref.OnWatermark(math.MaxInt64, refOut)

	op := newWindowOp(t, q)
	opOut := &capCollector{}
	op.OnBatch(append([]Record{}, head...), opOut)
	op.OnWatermark(20, opOut)
	restored := NewWindowOp(q)().(*WindowOp)
	if err := restored.Open(&OpContext{RestoreGroups: captureGroups(t, op)}); err != nil {
		t.Fatal(err)
	}
	for _, r := range tail {
		FeedOne(restored, r, opOut)
	}
	restored.OnWatermark(math.MaxInt64, opOut)

	if !reflect.DeepEqual(opOut.recs, refOut.recs) {
		t.Fatalf("whole runs + restore diverged from runs of one:\n got %+v\nwant %+v", opOut.recs, refOut.recs)
	}
}

// joinScript drives a WindowJoinOp through data on both edges interleaved
// with watermarks, cut into runs of at most size, and returns everything
// emitted.
func joinScript(t *testing.T, size int) []Record {
	t.Helper()
	deliver := func(op *WindowJoinOp, edge int, b []Record, out Collector) {
		cut(b, size, func(run []Record) {
			if ret := op.OnBatchEdge(edge, run, out); len(ret) != 0 {
				t.Fatalf("OnBatchEdge returned records: %+v", ret)
			}
		})
	}
	op := &WindowJoinOp{Size: 10}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	out := &capCollector{}
	deliver(op, 0, keyedRun(25, 0), out)
	deliver(op, 1, keyedRun(25, 3), out)
	op.OnWatermark(20, out)
	deliver(op, 1, keyedRun(20, 21), out)
	deliver(op, 0, keyedRun(20, 24), out)
	op.OnWatermark(40, out)
	op.Finish(out)
	return out.recs
}

// TestWindowJoinRunCutsAreInvisible holds the two-input operator to the
// contract: the same pairs however each side's data is cut into runs.
func TestWindowJoinRunCutsAreInvisible(t *testing.T) {
	want := joinScript(t, 1)
	if len(want) == 0 {
		t.Fatal("join script emitted no pairs")
	}
	for _, size := range cutSizes[1:] {
		if got := joinScript(t, size); !reflect.DeepEqual(got, want) {
			t.Fatalf("runs of %d diverged from runs of one:\n got %d pairs\nwant %d pairs", size, len(got), len(want))
		}
	}
}

// vecKeyedResults runs a two-keyed-stage pipeline (windowed aggregation
// behind one hash edge feeding a keyed reduce behind another) and returns
// the sink contents in a canonical order.
func vecKeyedResults(t *testing.T, par, batch int, opts ...JobOption) []Record {
	t.Helper()
	g := NewGraph("veckeyed")
	g.BatchSize = batch
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		return &GenSource{N: 2000, WatermarkEvery: 64, Gen: func(i int64) Record {
			global := i*2 + int64(sub)
			return Data(global, uint64(global*global%23), float64(global%17))
		}}
	})
	win := g.AddOperator("win", par,
		NewWindowOp(WindowQuery{Spec: window.Tumbling(100), Fn: agg.SumF64()}),
		Edge{From: src, Part: HashPartition})
	toVal := g.AddOperator("toval", par, func() Operator {
		return &MapOp{F: func(r Record) Record {
			r.Value = r.Value.(WindowResult).Value
			return r
		}}
	}, Edge{From: win, Part: Forward})
	sum := g.AddOperator("sum", par, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
	}, Edge{From: toVal, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("out", 1, sink.Factory(), Edge{From: sum, Part: Rebalance})
	run(t, g, opts...)

	recs := sink.Records()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Key != recs[j].Key {
			return recs[i].Key < recs[j].Key
		}
		return recs[i].Ts < recs[j].Ts
	})
	return recs
}

// TestBatchSizeIsPhysicalOnlyKeyed proves the batch size is a pure execution
// knob for keyed stages too: identical sink contents at every size, at
// parallelism 1 and 4 — including under checkpointing, whose barriers land
// between the runs the keyed operators consume.
func TestBatchSizeIsPhysicalOnlyKeyed(t *testing.T) {
	for _, par := range []int{1, 4} {
		ref := vecKeyedResults(t, par, 1)
		if len(ref) == 0 {
			t.Fatalf("par=%d: empty reference run", par)
		}
		for _, batch := range cutSizes[1:] {
			got := vecKeyedResults(t, par, batch)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("par=%d batch=%d: results diverged from batch size 1 (%d vs %d records)",
					par, batch, len(got), len(ref))
			}
			ckpt := vecKeyedResults(t, par, batch,
				WithCheckpointing(state.NewMemoryBackend(1), 5*time.Millisecond))
			if !reflect.DeepEqual(ckpt, ref) {
				t.Fatalf("par=%d batch=%d: checkpointing changed results", par, batch)
			}
		}
	}
}

// TestKeyedRecordsInCounts: records_in on a keyed operator counts every
// record of every run it consumes whole.
func TestKeyedRecordsInCounts(t *testing.T) {
	const n = 500
	reg := metrics.NewRegistry()
	g := NewGraph("veckeyed-metrics")
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &GenSource{N: n, WatermarkEvery: 64, Gen: func(i int64) Record {
			return Data(i, uint64(i%7), float64(i))
		}}
	})
	sum := g.AddOperator("sum", 2, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }, EmitEach: true}
	}, Edge{From: src, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("out", 1, sink.Factory(), Edge{From: sum, Part: Rebalance})
	run(t, g, WithMetrics(reg))

	if got := reg.Counter("node.sum.records_in").Value(); got != n {
		t.Fatalf("node.sum.records_in = %d, want %d", got, n)
	}
	if got := len(sink.Records()); got != n {
		t.Fatalf("sink saw %d records, want %d", got, n)
	}
}
