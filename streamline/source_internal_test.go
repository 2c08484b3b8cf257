package streamline

import (
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

// boxedSource is an engine source handing out one pre-boxed record forever.
type boxedSource struct{ rec dataflow.Record }

func (s *boxedSource) Next() (dataflow.Record, bool) { return s.rec, true }
func (s *boxedSource) Snapshot() ([]byte, error)     { return nil, nil }
func (s *boxedSource) Restore([]byte) error          { return nil }

// A reader that sits on an engine source (Topic, JSONL, CSV) holds its
// elements boxed already: the source stage passes the record through — alone
// and as the history half of a Hybrid — instead of unboxing and boxing again.
// The extractor still sees the typed value.
func TestLoweredReaderTakesBoxedRecordsAsTheyAre(t *testing.T) {
	type payload struct{ A, B, C int64 }
	engine := &funcReader[payload]{src: &boxedSource{rec: dataflow.Data(7, 9, payload{A: 41})}}
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
