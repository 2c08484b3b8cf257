package dataflow

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/state"
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

// TestWindowOpReleasesIdleKeys: window state used to be created on a key's
// first element and never deleted. A key none of whose windows is still open
// holds nothing — the cell is empty, a checkpoint is as small as a new
// operator's — and when the key returns its windows are exact.
func TestWindowOpReleasesIdleKeys(t *testing.T) {
	queries := []WindowQuery{
		{Spec: window.Tumbling(10), Fn: agg.SumF64()},
		{Spec: window.Sliding(40, 10), Fn: agg.CountF64()},
	}
	checkpointBytes := func(op *WindowOp) (n int) {
		for _, blob := range captureGroups(t, op) {
			n += len(blob)
		}
		return n
	}
	op := newWindowOp(t, queries...)
	empty := checkpointBytes(op)

	const keys = 5000
	run := make([]Record, keys)
	for i := range run {
		run[i] = Data(int64(i%30), uint64(i), 1.0)
	}
	out := &collectList{}
	op.OnBatch(run, nil)
	op.OnWatermark(35, out)
	if got := op.slices.Len(); got != keys {
		t.Fatalf("%d keys hold window state with windows open, want %d", got, keys)
	}
	if n := checkpointBytes(op); n < empty+keys {
		t.Fatalf("checkpoint of %d live keys is %d bytes, an empty one %d", keys, n, empty)
	}
	op.OnWatermark(70, out) // past the last window of every key: [20,60), [30,70)
	if got := op.slices.Len(); got != 0 {
		t.Fatalf("%d keys still hold window state after their last window fired", got)
	}
	// The release watermark is per-group state a new operator does not have
	// at another value; compare at the same one.
	fresh := newWindowOp(t, queries...)
	fresh.OnWatermark(70, &collectList{})
	if n, want := checkpointBytes(op), checkpointBytes(fresh); n != want {
		t.Fatalf("checkpoint after every key went idle is %d bytes, a new operator's %d", n, want)
	}

	out.recs = nil
	op.OnBatch([]Record{Data(75, 42, 2.0), Data(78, 42, 3.0), Data(60, 42, 100.0)}, nil) // ts 60 is late
	op.OnWatermark(math.MaxInt64, out)
	var got []WindowResult
	for _, r := range out.recs {
		got = append(got, r.Value.(WindowResult))
	}
	want := []WindowResult{
		{QueryID: 0, Start: 70, End: 80, Value: 5, Count: 2},
		{QueryID: 1, Start: 40, End: 80, Value: 2, Count: 2},
		{QueryID: 1, Start: 50, End: 90, Value: 2, Count: 2},
		{QueryID: 1, Start: 60, End: 100, Value: 2, Count: 2},
		{QueryID: 1, Start: 70, End: 110, Value: 2, Count: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("returning key fired %+v, want %+v", got, want)
	}

	// The engine layout releases a key once its engine is idle — no slice, no
	// open window — and emits what the sweep reference, which never releases
	// a key, emits. A count window is open from a key's first element to the
	// end of the stream, so mix holds its keys until then.
	for i := range run {
		run[i].Ts = int64(100 + i%20) // every session still open at 120
	}
	for _, name := range []string{"session", "session-maxdur", "sliding-long", "mix"} {
		queries := oracleSpecs[name]
		op, ref := newWindowOp(t, queries...), newSweepRef(queries...)
		step := func(run []Record, wm int64) {
			t.Helper()
			op.OnBatch(append([]Record{}, run...), nil)
			ref.OnBatch(run)
			got, want := &capCollector{}, &capCollector{}
			op.OnWatermark(wm, got)
			ref.OnWatermark(wm, want)
			if !reflect.DeepEqual(got.recs, want.recs) {
				t.Fatalf("%s, watermark %d: emissions diverged\n got %+v\nwant %+v", name, wm, got.recs, want.recs)
			}
		}
		step(run, 120)
		if got := op.engines.Len(); got != keys {
			t.Fatalf("%s: %d keys hold window state with windows open, want %d", name, got, keys)
		}
		const past = 3000 // past every session and every 2570-tick window
		step(nil, past)
		if name == "mix" {
			if got := op.engines.Len(); got != keys {
				t.Fatalf("mix: %d keys hold window state with count windows open, want %d", got, keys)
			}
		} else {
			if got := op.engines.Len(); got != 0 {
				t.Fatalf("%s: %d keys still hold window state after their last window fired", name, got)
			}
			fresh := newWindowOp(t, queries...)
			fresh.OnWatermark(past, &collectList{})
			if n, want := checkpointBytes(op), checkpointBytes(fresh); n != want {
				t.Fatalf("%s: checkpoint after every key went idle is %d bytes, a new operator's %d", name, n, want)
			}
		}
		step([]Record{Data(past+5, 42, 2.0), Data(past+8, 42, 3.0), Data(past-10, 42, 100.0)}, math.MaxInt64)
		if got := op.engines.Len(); got != 0 {
			t.Fatalf("%s: %d keys hold window state after the end-of-stream watermark", name, got)
		}
	}
}

// TestWindowOpWatermarkReleasingNothingIsFree: a watermark that releases
// nothing costs nothing however many keys are buffered ahead of it — it asks
// the release index, not the buffers. The one that reaches three keys'
// elements releases exactly those.
func TestWindowOpWatermarkReleasingNothingIsFree(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	const keys = 5000
	run := make([]Record, 0, keys+3)
	for i := range keys {
		run = append(run, Data(int64(1000+i%100), uint64(i), 1.0))
	}
	due := []uint64{7, 2500, 4999}
	var want []Record
	for j, key := range due {
		run = append(run, Data(500, key, float64(j+1)))
		want = append(want, Data(510, key, WindowResult{QueryID: 0, Start: 500, End: 510, Value: float64(j + 1), Count: 1}))
	}
	op.OnBatch(run, nil)

	out := &collectList{}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for wm := int64(1); wm <= 100; wm++ {
		op.OnWatermark(wm, out)
	}
	goruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Fatalf("100 watermarks releasing nothing over %d buffered keys allocated %d bytes", keys, got)
	}
	if len(out.recs) != 0 {
		t.Fatalf("watermarks releasing nothing emitted %+v", out.recs)
	}
	op.OnWatermark(600, out)
	if !reflect.DeepEqual(out.recs, want) {
		t.Fatalf("watermark 600 emitted %+v, want %+v", out.recs, want)
	}
	if got := op.buf.Len(); got != keys {
		t.Fatalf("%d keys buffered after the release, want %d", got, keys)
	}
}

// TestWindowOpEndOfStreamReleasesEveryBufferedKey: an element at ts MaxInt64
// has no release deadline an index can hold, yet the end-of-stream watermark
// releases it like any other, so the key closes out among the released keys,
// as in the sweep reference, not among the fired ones.
func TestWindowOpEndOfStreamReleasesEveryBufferedKey(t *testing.T) {
	queries := oracleSpecs["session"]
	op, ref := newWindowOp(t, queries...), newSweepRef(queries...)
	for _, st := range []oracleStep{
		{run: []Record{Data(5, 0, 1.0), Data(10, 1, 2.0)}}, {wm: 11},
		{run: []Record{Data(math.MaxInt64, 1, 4.0)}}, {wm: math.MaxInt64},
	} {
		if st.run != nil {
			op.OnBatch(append([]Record{}, st.run...), nil)
			ref.OnBatch(st.run)
			continue
		}
		got, want := &capCollector{}, &capCollector{}
		op.OnWatermark(st.wm, got)
		ref.OnWatermark(st.wm, want)
		if !reflect.DeepEqual(got.recs, want.recs) || (st.wm == math.MaxInt64 && len(got.recs) != 2) {
			t.Fatalf("watermark %d: emitted %+v, sweep %+v", st.wm, got.recs, want.recs)
		}
	}
}

// emptyBufferBlob encodes one key group in which key 7 holds an empty reorder
// buffer — a state the operator never writes but the blob format allows.
func emptyBufferBlob(t testing.TB) (group int, blob []byte) {
	t.Helper()
	ks := state.NewKeyedState(state.DefaultNumKeyGroups, 0, state.DefaultNumKeyGroups)
	state.RegisterMap(ks, "slices", keySlicesWriter)
	buf := state.RegisterMap(ks, "buf", bufCodec)
	state.RegisterPerGroup(ks, "wm", int64(5), state.ValueCodec[int64]())
	buf.Put(7, []bufEntry{})
	group = state.KeyGroupFor(7, state.DefaultNumKeyGroups)
	blob, err := ks.Capture().EncodeGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	return group, blob
}

// TestWindowOpRestoreDropsEmptyBuffer: Open drops a restored key whose reorder
// buffer is empty — nothing of it is ever due, so it would otherwise stay in
// the buffer cell for ever — and the key works as a new one afterwards.
func TestWindowOpRestoreDropsEmptyBuffer(t *testing.T) {
	group, blob := emptyBufferBlob(t)
	op := NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})().(*WindowOp)
	if err := op.Open(&OpContext{RestoreGroups: map[int][]byte{group: blob}}); err != nil {
		t.Fatal(err)
	}
	if n := op.buf.Len(); n != 0 {
		t.Fatalf("%d keys buffered after restoring an empty buffer, want 0", n)
	}
	out := &collectList{}
	op.OnBatch([]Record{Data(12, 7, 2.0)}, nil)
	op.OnWatermark(math.MaxInt64, out)
	want := []Record{Data(20, 7, WindowResult{QueryID: 0, Start: 10, End: 20, Value: 2, Count: 1})}
	if !reflect.DeepEqual(out.recs, want) {
		t.Fatalf("emitted %+v, want %+v", out.recs, want)
	}
	if n := op.buf.Len(); n != 0 {
		t.Fatalf("%d keys buffered after the end-of-stream watermark", n)
	}
}

// keySlicesWriter writes the timeline layout's per-key snapshots without the
// checks of the operator's own codec, which reads them with a Timeline.
var keySlicesWriter = state.Codec[*cutty.KeySlices]{
	Append: cutty.AppendKeySlices,
	Read: func(b []byte) (*cutty.KeySlices, []byte, error) {
		return nil, b, errors.New("write-only codec")
	},
}

// keySlicesBlob encodes one key group holding the given per-key states in the
// timeline layout's snapshot format, bypassing every check the operator's own
// codec makes.
func keySlicesBlob(t testing.TB, wm int64, keys map[uint64]*cutty.KeySlices) (group int, blob []byte) {
	t.Helper()
	ks := state.NewKeyedState(state.DefaultNumKeyGroups, 0, state.DefaultNumKeyGroups)
	cell := state.RegisterMap(ks, "slices", keySlicesWriter)
	state.RegisterMap(ks, "buf", bufCodec)
	state.RegisterPerGroup(ks, "wm", wm, state.ValueCodec[int64]())
	for key, k := range keys {
		cell.Put(key, k)
		group = state.KeyGroupFor(key, state.DefaultNumKeyGroups)
	}
	blob, err := ks.Capture().EncodeGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	return group, blob
}

// TestWindowOpRestoreRejectsMalformedSlices: a per-key blob whose partials do
// not match its slices, or whose slices are out of order, fails the restore —
// naming operator, key group and key — instead of panicking at the next fire.
func TestWindowOpRestoreRejectsMalformedSlices(t *testing.T) {
	queries := []WindowQuery{
		{Spec: window.Tumbling(10), Fn: agg.SumF64()},
		{Spec: window.Tumbling(10), Fn: agg.MaxF64()},
	}
	part := agg.Acc{V: 1, N: 1}
	for name, tc := range map[string]struct {
		k  *cutty.KeySlices
		ok bool
	}{
		"well-formed":          {&cutty.KeySlices{Fired: 5, Slots: []int64{1, 3}, Parts: []agg.Acc{part, part, part, part}}, true},
		"one store's partials": {&cutty.KeySlices{Fired: 5, Slots: []int64{1, 3}, Parts: []agg.Acc{part, part}}, false},
		"partials, no slices":  {&cutty.KeySlices{Fired: 5, Parts: []agg.Acc{part, part}}, false},
		"slices out of order":  {&cutty.KeySlices{Fired: 5, Slots: []int64{3, 1}, Parts: []agg.Acc{part, part, part, part}}, false},
		"a slice listed twice": {&cutty.KeySlices{Fired: 5, Slots: []int64{3, 3}, Parts: []agg.Acc{part, part, part, part}}, false},
		"slices, no partials":  {&cutty.KeySlices{Fired: 5, Slots: []int64{1}}, false},
		"an extra odd partial": {&cutty.KeySlices{Fired: 5, Slots: []int64{1}, Parts: []agg.Acc{part, part, part}}, false},
		"no state at all":      {&cutty.KeySlices{Fired: 5}, true},
		"slices before time 0": {&cutty.KeySlices{Fired: -30, Slots: []int64{-2, 0}, Parts: []agg.Acc{part, part, part, part}}, true},
	} {
		group, blob := keySlicesBlob(t, 5, map[uint64]*cutty.KeySlices{7: tc.k})
		op := NewWindowOp(queries...)().(*WindowOp)
		err := op.Open(&OpContext{NodeName: "win", RestoreGroups: map[int][]byte{group: blob}})
		if tc.ok {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			op.OnWatermark(math.MaxInt64, &collectList{})
			continue
		}
		if err == nil {
			t.Fatalf("%s: restore accepted the blob", name)
		}
		for _, part := range []string{`"win"`, fmt.Sprintf("key group %d", group), "key 0x7"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%s: error %q does not name %s", name, err, part)
			}
		}
	}
}

// TestWindowOpRefusesEngineLayout: a key group written while the operator
// kept one cutty.Engine per key (cell "engines") does not restore into the
// slice timeline's cells; the restore fails naming both before the operator
// runs.
func TestWindowOpRefusesEngineLayout(t *testing.T) {
	engines := newWindowOp(t, oracleSpecs["session"]...)
	engines.OnBatch([]Record{Data(5, 7, 1.0)}, nil)
	engines.OnWatermark(6, &capCollector{})
	if engines.engines == nil || engines.engines.Len() != 1 {
		t.Fatal("the session query set no longer runs an engine per key")
	}
	group := state.KeyGroupFor(7, state.DefaultNumKeyGroups)
	blob := captureGroups(t, engines)[group]
	op := NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})().(*WindowOp)
	err := op.Open(&OpContext{RestoreGroups: map[int][]byte{group: blob}})
	if err == nil || !strings.Contains(err.Error(), `cell "engines"`) || !strings.Contains(err.Error(), `"slices"`) {
		t.Fatalf("restore of an engine-layout key group = %v, want an error naming cells \"engines\" and \"slices\"", err)
	}
}

// TestWindowOpCaptureSurvivesRecycling: while a capture serializes, a key
// whose buffer a watermark empties, one whose buffer it empties in part and
// keys whose slices it evicts give nothing back and compact nothing in place,
// so new keys fed after them cannot write into what the capture encodes: the
// capture's groups are the bytes an encode at capture time produced. The
// operator's results are those of one that was never captured.
func TestWindowOpCaptureSurvivesRecycling(t *testing.T) {
	q := WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()}
	op, plain := newWindowOp(t, q), newWindowOp(t, q)
	got, want := &collectList{}, &collectList{}
	feed := func(run []Record, wm int64) {
		op.OnBatch(append([]Record{}, run...), nil)
		plain.OnBatch(append([]Record{}, run...), nil)
		op.OnWatermark(wm, got)
		plain.OnWatermark(wm, want)
	}
	// Key 3 holds a slice of [10,20) and no buffer; key 1 buffers two
	// elements of that window, key 2 one of it and one of the next.
	feed([]Record{Data(11, 3, 7.0)}, 15)
	feed([]Record{Data(16, 1, 1.0), Data(17, 1, 2.0), Data(16, 2, 3.0), Data(25, 2, 4.0)}, 15)

	atCapture, err := op.KeyedState().Capture().EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	captured := op.KeyedState().Capture()
	// Releases key 1 whole and key 2 in part, and fires [10,20) for keys 1,
	// 2 and 3, which evicts every slice they hold; then new keys arrive.
	feed(nil, 20)
	feed([]Record{Data(21, 4, 5.0), Data(22, 4, 6.0), Data(23, 5, 7.0), Data(24, 6, 8.0)}, 22)
	groups, err := captured.EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groups, atCapture) {
		t.Fatal("the captured groups changed after the capture: recycled or compacted state was shared with it")
	}
	feed(nil, math.MaxInt64)
	if !reflect.DeepEqual(got.recs, want.recs) {
		t.Fatalf("results under a capture diverged\n got %+v\nwant %+v", got.recs, want.recs)
	}
}

// TestWindowOpSpareRetentionBounded: the spare lists keep only small
// buffers and stay within their byte budget. 1 000 keys buffer 200 elements
// each, as through a history replay with no watermark, and 5 000 keys 16
// each; one watermark releases them all and evicts every slice.
func TestWindowOpSpareRetentionBounded(t *testing.T) {
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	var run []Record
	for k := range 1000 {
		for i := range 200 {
			run = append(run, Data(int64(i), uint64(k), 1.0))
		}
	}
	for k := range 5000 {
		for i := range spareBufCap {
			run = append(run, Data(int64(i), uint64(1000+k), 1.0))
		}
	}
	op.OnBatch(run, nil)
	op.OnWatermark(300, &discardCollector{})
	if b, s := op.buf.Len(), op.slices.Len(); b != 0 || s != 0 {
		t.Fatalf("%d buffers and %d keys' slices left after the watermark, want none", b, s)
	}
	if len(op.spareBufs.vals) == 0 || len(op.spareSlices.vals) == 0 {
		t.Fatalf("%d spare buffers and %d spare slices kept, want some of each", len(op.spareBufs.vals), len(op.spareSlices.vals))
	}
	heldBufs, heldSlices := 0, 0
	for _, b := range op.spareBufs.vals {
		if cap(b) > spareBufCap {
			t.Fatalf("a spare buffer holds %d entries, more than %d", cap(b), spareBufCap)
		}
		heldBufs += bufBytes(b)
	}
	for _, k := range op.spareSlices.vals {
		heldSlices += sliceBytes(k)
	}
	if heldBufs != op.spareBufs.bytes || heldSlices != op.spareSlices.bytes || max(heldBufs, heldSlices) > spareBudget {
		t.Fatalf("spares hold %d bytes of buffers and %d of slices, counted %d and %d, budget %d each",
			heldBufs, heldSlices, op.spareBufs.bytes, op.spareSlices.bytes, spareBudget)
	}
}
