package dataflow

import (
	"math"
	"testing"

	"repro/internal/agg"
	"repro/internal/window"
)

func newWindowOp(t *testing.T, qs ...WindowQuery) *WindowOp {
	t.Helper()
	op := NewWindowOp(qs...)().(*WindowOp)
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	return op
}

func TestWindowOpLateElementsDropped(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &collectList{}
	FeedOne(op, Data(5, 1, 1.0), out)
	op.OnWatermark(20, out) // closes [0,10)
	// ts=7 is now late: the watermark passed it. It must not corrupt the
	// engine or resurrect the closed window.
	FeedOne(op, Data(7, 1, 100.0), out)
	op.OnWatermark(math.MaxInt64, out)
	if op.DroppedLate() != 1 {
		t.Fatalf("DroppedLate = %d, want 1", op.DroppedLate())
	}
	if len(out.recs) != 1 {
		t.Fatalf("got %d windows: %+v", len(out.recs), out.recs)
	}
	wr := out.recs[0].Value.(WindowResult)
	if wr.Value != 1 || wr.Start != 0 {
		t.Fatalf("window %+v, want [0,10) sum 1", wr)
	}
}

func TestWindowOpInOrderWithinWatermarkKept(t *testing.T) {
	// Elements between watermarks may arrive in any order; all with
	// ts > curWM must be kept and correctly ordered on release.
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.CountF64()})
	out := &collectList{}
	FeedOne(op, Data(9, 1, 1.0), out)
	FeedOne(op, Data(3, 1, 1.0), out) // out of order but not late
	FeedOne(op, Data(6, 1, 1.0), out)
	op.OnWatermark(10, out)
	if len(out.recs) != 1 {
		t.Fatalf("got %d windows", len(out.recs))
	}
	if wr := out.recs[0].Value.(WindowResult); wr.Count != 3 {
		t.Fatalf("count = %d, want 3", wr.Count)
	}
	if op.DroppedLate() != 0 {
		t.Fatalf("dropped %d in-time elements", op.DroppedLate())
	}
}

func TestWindowOpNonFloatValuesIgnored(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &collectList{}
	FeedOne(op, Data(1, 1, "not a float"), out)
	FeedOne(op, Data(2, 1, 42), out) // int, not float64
	op.OnWatermark(math.MaxInt64, out)
	if len(out.recs) != 0 {
		t.Fatalf("non-float values produced windows: %+v", out.recs)
	}
}

func TestWindowOpSnapshotCarriesBufferAndWatermark(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &collectList{}
	op.OnWatermark(5, out)
	FeedOne(op, Data(7, 2, 3.0), out) // buffered, not yet released
	groups := captureGroups(t, op)
	restored := NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})().(*WindowOp)
	if err := restored.Open(&OpContext{RestoreGroups: groups}); err != nil {
		t.Fatal(err)
	}
	// The release watermark travels per key group: ts=4 is late for the
	// restored operator exactly as it was for the original.
	FeedOne(restored, Data(4, 2, 99.0), out)
	if restored.DroppedLate() != 1 {
		t.Fatalf("restored op lost the release watermark: DroppedLate = %d", restored.DroppedLate())
	}
	restored.OnWatermark(math.MaxInt64, out)
	if len(out.recs) != 1 {
		t.Fatalf("restored op lost the buffered record: %+v", out.recs)
	}
	if wr := out.recs[0].Value.(WindowResult); wr.Value != 3 {
		t.Fatalf("window %+v", wr)
	}
}

// TestWindowOpCaptureImmutableWhileProcessing pins the copy-on-write
// contract on the hardest cell: a capture is taken, the operator keeps
// processing (mutating engines and buffers in place) before the capture is
// serialized — the blobs must reflect the state at capture time exactly.
func TestWindowOpCaptureImmutableWhileProcessing(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &collectList{}
	FeedOne(op, Data(1, 1, 1.0), out)
	FeedOne(op, Data(2, 1, 2.0), out)
	op.OnWatermark(5, out) // engine for key 1 now holds sum 3 in window [0,10)

	captured := op.KeyedState().Capture()
	// Keep processing while the capture is outstanding: more elements into
	// the same key's engine and a new key entirely.
	FeedOne(op, Data(7, 1, 100.0), out)
	FeedOne(op, Data(8, 2, 50.0), out)
	op.OnWatermark(9, out)
	groups, err := captured.EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})().(*WindowOp)
	if err := restored.Open(&OpContext{RestoreGroups: groups}); err != nil {
		t.Fatal(err)
	}
	rout := &collectList{}
	restored.Finish(rout)
	if len(rout.recs) != 1 {
		t.Fatalf("restored op fired %d windows, want 1: %+v", len(rout.recs), rout.recs)
	}
	wr := rout.recs[0].Value.(WindowResult)
	if wr.Value != 3 || rout.recs[0].Key != 1 {
		t.Fatalf("capture leaked post-capture processing: window %+v (key %d), want sum 3 for key 1", wr, rout.recs[0].Key)
	}

	// The live operator, meanwhile, has everything.
	op.Finish(out)
	got := map[uint64]float64{}
	for _, r := range out.recs {
		got[r.Key] += r.Value.(WindowResult).Value
	}
	if got[1] != 103 || got[2] != 50 {
		t.Fatalf("live op results = %v, want key1=103 key2=50", got)
	}
}

// TestWindowOpCaptureSurvivesBufferReuse is the regression test for the
// aliased-Put corruption: OnWatermark keeps a buffer remainder whose
// backing array the next run appends into, and the subsequent
// release sort must not reorder memory a capture still references.
func TestWindowOpCaptureSurvivesBufferReuse(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &collectList{}
	FeedOne(op, Data(5, 1, 10.0), out)
	FeedOne(op, Data(9, 1, 30.0), out)
	op.OnWatermark(7, out) // releases ts=5; remainder [{9,30}] keeps spare capacity

	captured := op.KeyedState().Capture()
	FeedOne(op, Data(8, 1, 1000.0), out) // appends into the remainder's backing array
	op.OnWatermark(9, out)               // sorts + releases — must not touch the captured view
	groups, err := captured.EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})().(*WindowOp)
	if err := restored.Open(&OpContext{RestoreGroups: groups}); err != nil {
		t.Fatal(err)
	}
	rout := &collectList{}
	restored.Finish(rout)
	// Capture-time state: engine holds ts5 (sum 10), buffer holds {9,30} —
	// the restored window must sum to 40, untouched by the post-capture 1000.
	if len(rout.recs) != 1 {
		t.Fatalf("restored op fired %d windows, want 1: %+v", len(rout.recs), rout.recs)
	}
	if wr := rout.recs[0].Value.(WindowResult); wr.Value != 40 {
		t.Fatalf("captured state corrupted by post-capture buffer reuse: window sum %v, want 40", wr.Value)
	}
}
