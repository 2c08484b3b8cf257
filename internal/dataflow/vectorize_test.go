package dataflow

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// capCollector accumulates Collect calls for direct operator-level tests.
type capCollector struct{ recs []Record }

func (c *capCollector) Collect(r Record) { c.recs = append(c.recs, r) }

// cutSizes are the run lengths the cut-invariance tests compare: a record at
// a time (the reference: a record in motion is a run of one), lengths that
// never line up with anything, the default batch and one longer than any
// input.
var cutSizes = []int{1, 2, 7, 64, 1024}

// cutOutput drives op over in cut into runs of at most size records — each on
// a private copy, implementations may compact in place — and returns what it
// delivered in delivery order: per call, out-collected first, then the
// returned run (copied at once: an operator's own buffer is only valid until
// its next call).
func cutOutput(op Operator, in []Record, size int) []Record {
	out := &capCollector{}
	cut(in, size, func(run []Record) {
		out.recs = append(out.recs, op.OnBatch(run, out)...)
	})
	return out.recs
}

// cut hands f the records of in as private runs of at most size.
func cut(in []Record, size int, f func(run []Record)) {
	for lo := 0; lo < len(in); lo += size {
		f(append([]Record{}, in[lo:min(lo+size, len(in))]...))
	}
}

// TestRunCutsAreInvisibleStateless holds every stateless operator to the
// contract: the output over a sequence of records does not depend on where
// the sequence was cut into runs, including the degenerate filters (drop-all,
// keep-all) and a flatmap whose per-record fan-out alternates between zero
// and three.
func TestRunCutsAreInvisibleStateless(t *testing.T) {
	input := func() []Record {
		var in []Record
		for i := int64(0); i < 157; i++ {
			in = append(in, Data(i, uint64(i%7), float64(i)*1.5))
		}
		return in
	}

	cases := []struct {
		name string
		op   func() Operator
		want int // records delivered, so an operator that emits nothing cannot pass
	}{
		{"map", func() Operator {
			return &MapOp{F: func(r Record) Record {
				r.Value = r.Value.(float64) * 2
				return r
			}}
		}, 157},
		{"filter", func() Operator {
			return &FilterOp{F: func(r Record) bool { return int64(r.Value.(float64))%3 != 1 }}
		}, 79},
		{"filter-drop-all", func() Operator {
			return &FilterOp{F: func(Record) bool { return false }}
		}, 0},
		{"filter-keep-all", func() Operator {
			return &FilterOp{F: func(Record) bool { return true }}
		}, 157},
		{"flatmap-0-and-3", func() Operator {
			return &FlatMapOp{F: func(r Record, out Collector) {
				if int64(r.Value.(float64))%2 == 0 {
					return // even inputs emit nothing
				}
				for j := 0; j < 3; j++ {
					out.Collect(Data(r.Ts, r.Key, r.Value.(float64)+float64(j)))
				}
			}}
		}, 234},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := cutOutput(tc.op(), input(), 1)
			if len(want) != tc.want {
				t.Fatalf("runs of one delivered %d records, want %d", len(want), tc.want)
			}
			for _, size := range cutSizes[1:] {
				if got := cutOutput(tc.op(), input(), size); !reflect.DeepEqual(got, want) {
					t.Fatalf("runs of %d diverged from runs of one:\n got %v\nwant %v", size, got, want)
				}
			}
		})
	}
}

// TestCollectSinkOnBatch proves the sink's one-lock append delivers exactly
// the sequence runs of one do.
func TestCollectSinkOnBatch(t *testing.T) {
	var in []Record
	for i := int64(0); i < 20; i++ {
		in = append(in, Data(i, uint64(i), float64(i)))
	}
	ref := &CollectSink{}
	for _, r := range in {
		FeedOne(ref, r, nil)
	}
	batched := &CollectSink{}
	if ret := batched.OnBatch(append([]Record{}, in...), nil); len(ret) != 0 {
		t.Fatalf("sink OnBatch forwarded %d records; sinks forward nothing", len(ret))
	}
	if !reflect.DeepEqual(batched.Records(), ref.Records()) {
		t.Fatalf("CollectSink batch path diverged")
	}
}

// TestFuncSinkOnBatch proves the function sink sees every record in order.
func TestFuncSinkOnBatch(t *testing.T) {
	var mu sync.Mutex
	var got []int64
	sink := &FuncSink{F: func(r Record) {
		mu.Lock()
		got = append(got, r.Ts)
		mu.Unlock()
	}}
	var in []Record
	for i := int64(0); i < 15; i++ {
		in = append(in, Data(i, 0, float64(i)))
	}
	sink.OnBatch(in, nil)
	for i, ts := range got {
		if ts != int64(i) {
			t.Fatalf("FuncSink batch order broken at %d: got ts %d", i, ts)
		}
	}
	if len(got) != len(in) {
		t.Fatalf("FuncSink saw %d of %d records", len(got), len(in))
	}
}

// vectorizedResults runs a generator -> rebalance -> map -> filter ->
// flatmap -> sink pipeline and returns the sink contents sorted, so runs
// with different physical execution strategies compare directly.
func vectorizedResults(t *testing.T, n int64, par, batch int, opts ...JobOption) []Record {
	t.Helper()
	g := NewGraph("vec")
	g.BatchSize = batch
	src := g.AddSource("gen", par, func(sub, par int) SourceFunc {
		return &GenSource{N: n / int64(par), Gen: func(i int64) Record {
			return Data(i, uint64(i%13), float64(i%997))
		}}
	})
	m := g.AddOperator("scale", par, func() Operator {
		return &MapOp{F: func(r Record) Record {
			r.Value = r.Value.(float64)*3 + 1
			return r
		}}
	}, Edge{From: src, Part: Rebalance})
	f := g.AddOperator("band", par, func() Operator {
		return &FilterOp{F: func(r Record) bool { return int64(r.Value.(float64))%5 != 2 }}
	}, Edge{From: m, Part: Forward})
	fm := g.AddOperator("split", par, func() Operator {
		return &FlatMapOp{F: func(r Record, out Collector) {
			out.Collect(r)
			if int64(r.Value.(float64))%4 == 0 {
				out.Collect(Data(r.Ts, r.Key, -r.Value.(float64)))
			}
		}}
	}, Edge{From: f, Part: Forward})
	sink := &CollectSink{}
	g.AddOperator("out", 1, sink.Factory(), Edge{From: fm, Part: Rebalance})
	run(t, g, opts...)

	recs := sink.Records()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Ts != recs[j].Ts {
			return recs[i].Ts < recs[j].Ts
		}
		return recs[i].Value.(float64) < recs[j].Value.(float64)
	})
	return recs
}

// TestBatchSizeIsPhysicalOnly proves the batch size — the length of the runs
// a chain is handed — is a pure execution knob: identical sink contents at
// every size, chained and unchained, at parallelism 1 and 4.
func TestBatchSizeIsPhysicalOnly(t *testing.T) {
	const n = 4000
	for _, par := range []int{1, 4} {
		for _, chain := range []bool{true, false} {
			ref := vectorizedResults(t, n, par, 1, WithChaining(chain))
			if len(ref) == 0 {
				t.Fatalf("par=%d chaining=%v: empty reference run", par, chain)
			}
			for _, batch := range cutSizes[1:] {
				got := vectorizedResults(t, n, par, batch, WithChaining(chain))
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("par=%d chaining=%v batch=%d: results diverged from batch size 1 (%d vs %d records)",
						par, chain, batch, len(got), len(ref))
				}
			}
		}
	}
}

// TestUnchainedForwardEdgesTerminate is the regression test for the
// unchained Forward-edge deadlock: with chaining disabled each consumer
// subtask must listen only on its producer peer's channel — the rest of the
// row is never written, and waiting on it starved the End marker forever at
// parallelism > 1.
func TestUnchainedForwardEdgesTerminate(t *testing.T) {
	for _, par := range []int{2, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			if recs := vectorizedResults(t, 2000, par, DefaultBatchSize, WithChaining(false)); len(recs) == 0 {
				t.Fatalf("par=%d: no output", par)
			}
		})
	}
}
