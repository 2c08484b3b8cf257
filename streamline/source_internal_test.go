package streamline

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataflow"
)

// scriptedReader plays back a fixed sequence of reader events.
type scriptedReader struct {
	steps []struct {
		k  Keyed[float64]
		st ReadStatus
	}
	pos int
}

func (s *scriptedReader) add(k Keyed[float64], st ReadStatus) {
	s.steps = append(s.steps, struct {
		k  Keyed[float64]
		st ReadStatus
	}{k, st})
}

func (s *scriptedReader) Next() (Keyed[float64], ReadStatus) {
	if s.pos >= len(s.steps) {
		return Keyed[float64]{}, ReadEnd
	}
	step := s.steps[s.pos]
	s.pos++
	return step.k, step.st
}

func (s *scriptedReader) Snapshot() ([]byte, error) { return nil, nil }
func (s *scriptedReader) Restore([]byte) error      { return nil }

// A reader-steered watermark (the hybrid handoff) is computed from the
// reader's pre-extraction clock. With a WithTimestamps extractor installed,
// the lowering must still close out the extracted event time — and must
// never emit a regressing watermark on the wire.
func TestLoweredReaderWatermarkWithExtractor(t *testing.T) {
	r := &scriptedReader{}
	// Two data records whose extracted timestamps (the values) are far
	// ahead of the reader's own clock (the Ts fields, e.g. line indices).
	r.add(Keyed[float64]{Ts: 0, Value: 500}, ReadData)
	r.add(Keyed[float64]{Ts: 1, Value: 900}, ReadData)
	// The handoff watermark, stamped with the reader-clock max.
	r.add(Keyed[float64]{Ts: 1}, ReadWatermark)
	// An idle poll afterwards.
	r.add(Keyed[float64]{}, ReadIdle)

	l := &loweredReader[float64]{
		r:       r,
		ts:      func(v float64) int64 { return int64(v) },
		every:   1000,
		wmFloor: minInt64,
	}
	var wms []int64
	for {
		rec, ok := l.Next()
		if !ok {
			break
		}
		if rec.Kind == dataflow.KindWatermark {
			wms = append(wms, rec.Ts)
		} else if rec.Ts != int64(rec.Value.(float64)) {
			t.Fatalf("data record not re-stamped by the extractor: %+v", rec)
		}
	}
	if len(wms) != 2 {
		t.Fatalf("saw %d watermarks, want 2 (handoff + idle): %v", len(wms), wms)
	}
	if wms[0] != 900 {
		t.Fatalf("handoff watermark = %d, want 900 (the max extracted timestamp, not the reader clock)", wms[0])
	}
	if wms[1] < wms[0] {
		t.Fatalf("watermark regressed on the wire: %v", wms)
	}
}

// Without an extractor the reader's watermark passes through unchanged.
func TestLoweredReaderWatermarkPassThrough(t *testing.T) {
	r := &scriptedReader{}
	r.add(Keyed[float64]{Ts: 10, Value: 1}, ReadData)
	r.add(Keyed[float64]{Ts: 10}, ReadWatermark)
	l := &loweredReader[float64]{r: r, every: 1000, wmFloor: minInt64}
	var wms []int64
	for {
		rec, ok := l.Next()
		if !ok {
			break
		}
		if rec.Kind == dataflow.KindWatermark {
			wms = append(wms, rec.Ts)
		}
	}
	if len(wms) != 1 || wms[0] != 10 {
		t.Fatalf("watermarks = %v, want [10]", wms)
	}
}

// boxedSplitReader is a split reader handing out one pre-boxed record
// forever.
type boxedSplitReader struct{ rec dataflow.Record }

func (r *boxedSplitReader) OpenSplit(dataflow.Split, int64) error       { return nil }
func (r *boxedSplitReader) NextInSplit() (dataflow.Record, bool, error) { return r.rec, true, nil }
func (r *boxedSplitReader) Pos() int64                                  { return 0 }
func (r *boxedSplitReader) Bytes() int64                                { return 0 }
func (r *boxedSplitReader) Close() error                                { return nil }

// A reader that sits on an engine source (Topic, JSONL, CSV) holds its
// elements boxed already: the source stage passes the record through — alone
// and as the history half of a Hybrid — instead of unboxing and boxing again.
// The extractor still sees the typed value.
func TestLoweredReaderTakesBoxedRecordsAsTheyAre(t *testing.T) {
	type payload struct{ A, B, C int64 }
	plan := &dataflow.ScanPlan{FixedSplits: func() ([]dataflow.Split, error) {
		return []dataflow.Split{{Path: "boxed", End: 1}}, nil
	}}
	engine := newScanReader[payload](plan, 0, 1, &boxedSplitReader{rec: dataflow.Data(7, 9, payload{A: 41})})
	live := make(chan Keyed[payload])
	for name, r := range map[string]Reader[payload]{
		"engine source":           engine,
		"hybrid of engine source": hybridSource[payload]{history: constSource[payload]{engine}, live: Channel(live)}.Open(0, 1),
	} {
		l := &loweredReader[payload]{
			r: r, boxed: asBoxed(r), every: 1 << 40, wmFloor: minInt64,
			ts: func(p payload) int64 { return p.A + 1 },
		}
		var rec dataflow.Record
		allocs := testing.AllocsPerRun(100, func() { rec, _ = l.Next() })
		if allocs != 0 {
			t.Errorf("%s: %v allocations per record, want 0", name, allocs)
		}
		if want := dataflow.Data(42, 9, payload{A: 41}); rec != want {
			t.Errorf("%s: Next = %+v, want %+v", name, rec, want)
		}
	}
}

// constSource opens the same reader for every subtask.
type constSource[T any] struct{ r Reader[T] }

func (c constSource[T]) Open(int, int) Reader[T] { return c.r }

// A mixed-phase hybrid snapshot (one subtask already past the handoff with
// live elements consumed, another still in history) must refuse a rescaled
// restore when the live reader cannot redistribute — silently resetting the
// live cursor would replay already-checkpointed live elements.
func TestHybridMixedPhaseRescaleRejectsPositionalLive(t *testing.T) {
	var lines strings.Builder
	for i := 10; i < 16; i++ {
		fmt.Fprintf(&lines, "%d\n", i)
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := hybridSource[float64]{
		history: JSONL[float64](path, WithSplitSize(8)), // several small splits
		live: Generator(50, func(sub, par int, i int64) Keyed[float64] {
			return Keyed[float64]{Ts: 100 + i, Value: float64(i)}
		}),
	}
	var slot any
	crossed, inHistory := src.openShared(&slot, 0, 2), src.openShared(&slot, 1, 2)
	// Subtask 1 starts one split, then subtask 0 drains the rest, crosses
	// the handoff, and consumes 5 live elements.
	if _, st := inHistory.Next(); st != ReadData {
		t.Fatalf("subtask 1 first Next = %v, want history data", st)
	}
	for liveSeen := 0; liveSeen < 5; {
		k, st := crossed.Next()
		if st == ReadEnd {
			t.Fatalf("subtask 0 ended early")
		}
		if st == ReadData && k.Ts >= 100 {
			liveSeen++
		}
	}
	blobs := map[int][]byte{}
	for sub, r := range map[int]Reader[float64]{0: crossed, 1: inHistory} {
		blob, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[sub] = blob
	}

	// Rescale: the history (splits) would redistribute, but subtask 0's live
	// state holds a consumed position and the generator is positional — the
	// restore must refuse rather than reset the live cursor.
	var slot4 any
	err := src.openShared(&slot4, 0, 4).(MultiRestorer).RestoreAll(0, 4, blobs)
	if err == nil || !strings.Contains(err.Error(), "live") {
		t.Fatalf("mixed-phase rescale = %v, want a live-state error", err)
	}

	// Same parallelism restores positionally: subtask 0 re-enters the history
	// phase (subtask 1's split is still pending), finishes it, and resumes the
	// live stream at element 5 — ts 105, nothing replayed.
	var slot2 any
	resumed := src.openShared(&slot2, 0, 2)
	if err := resumed.(MultiRestorer).RestoreAll(0, 2, blobs); err != nil {
		t.Fatal(err)
	}
	for {
		k, st := resumed.Next()
		if st == ReadEnd {
			t.Fatalf("resumed subtask 0 ended before reaching the live phase")
		}
		if st == ReadData && k.Ts >= 100 {
			if k.Ts != 105 {
				t.Fatalf("first live element after restore has ts %d, want 105 (live elements 100..104 were checkpointed as consumed)", k.Ts)
			}
			break
		}
	}
}
