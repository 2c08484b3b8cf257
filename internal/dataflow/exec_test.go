package dataflow

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/window"
)

// run executes a graph to completion with a timeout guard.
func run(t *testing.T, g *Graph, opts ...JobOption) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := NewJob(g, opts...).Run(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}
}

// FeedOne hands op a run of one — a record in motion — and delivers what it
// forwards as the driver does: collected through out first, returned second.
func FeedOne(op Operator, r Record, out Collector) {
	for _, x := range op.OnBatch([]Record{r}, out) {
		out.Collect(x)
	}
}

func intRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Data(int64(i), uint64(i%7), float64(i))
	}
	return recs
}

func TestLinearPipeline(t *testing.T) {
	g := NewGraph("linear")
	src := g.AddSource("src", 1, SliceSource(intRecords(100)))
	double := g.AddOperator("double", 1, func() Operator {
		return &MapOp{F: func(r Record) Record {
			r.Value = r.Value.(float64) * 2
			return r
		}}
	}, Edge{From: src, Part: Forward})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: double, Part: Forward})
	run(t, g)

	recs := sink.Records()
	if len(recs) != 100 {
		t.Fatalf("sink saw %d records, want 100", len(recs))
	}
	var sum float64
	for _, r := range recs {
		sum += r.Value.(float64)
	}
	if want := float64(99*100) / 2 * 2; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestFilterAndFlatMap(t *testing.T) {
	g := NewGraph("fl")
	src := g.AddSource("src", 1, SliceSource(intRecords(50)))
	even := g.AddOperator("even", 1, func() Operator {
		return &FilterOp{F: func(r Record) bool { return int64(r.Value.(float64))%2 == 0 }}
	}, Edge{From: src, Part: Forward})
	dup := g.AddOperator("dup", 1, func() Operator {
		return &FlatMapOp{F: func(r Record, out Collector) {
			out.Collect(r)
			out.Collect(r)
		}}
	}, Edge{From: even, Part: Forward})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: dup, Part: Forward})
	run(t, g)
	if got := len(sink.Records()); got != 50 { // 25 evens duplicated
		t.Fatalf("got %d records, want 50", got)
	}
}

func TestHashPartitioningRoutesByKey(t *testing.T) {
	g := NewGraph("hash")
	src := g.AddSource("src", 2, SliceSource(intRecords(200)))
	seen := make([]map[uint64]bool, 2)
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	tag := g.AddOperator("tag", 2, func() Operator {
		op := &FlatMapOp{}
		sub := -1
		op.F = func(r Record, out Collector) {
			out.Collect(r)
			seen[sub][r.Key] = true
		}
		// Capture subtask at Open via a wrapper.
		return &openWrap{inner: op, onOpen: func(ctx *OpContext) { sub = ctx.Subtask }}
	}, Edge{From: src, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: tag, Part: Rebalance})
	run(t, g)
	if len(sink.Records()) != 200 {
		t.Fatalf("lost records: %d", len(sink.Records()))
	}
	// No key may appear in both subtasks.
	for k := range seen[0] {
		if seen[1][k] {
			t.Fatalf("key %d seen on both subtasks", k)
		}
	}
}

// openWrap decorates an operator with an Open hook (test helper).
type openWrap struct {
	inner  Operator
	onOpen func(*OpContext)
}

func (o *openWrap) Open(ctx *OpContext) error {
	o.onOpen(ctx)
	return o.inner.Open(ctx)
}
func (o *openWrap) OnBatch(b []Record, out Collector) []Record {
	return o.inner.OnBatch(b, out)
}
func (o *openWrap) OnWatermark(wm int64, out Collector) { o.inner.OnWatermark(wm, out) }
func (o *openWrap) Snapshot() ([]byte, error)           { return o.inner.Snapshot() }
func (o *openWrap) Finish(out Collector)                { o.inner.Finish(out) }

func TestKeyedReduceBatchMode(t *testing.T) {
	g := NewGraph("reduce")
	src := g.AddSource("src", 2, SliceSource(intRecords(100)))
	red := g.AddOperator("sum", 2, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
	}, Edge{From: src, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
	run(t, g)

	got := map[uint64]float64{}
	for _, r := range sink.Records() {
		got[r.Key] = r.Value.(float64)
	}
	want := map[uint64]float64{}
	for i := 0; i < 100; i++ {
		want[uint64(i%7)] += float64(i)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

func TestWatermarksReachSink(t *testing.T) {
	g := NewGraph("wm")
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &GenSource{N: 100, WatermarkEvery: 10, Gen: func(i int64) Record {
			return Data(i, 0, float64(i))
		}}
	})
	var wms []int64
	g.AddOperator("sink", 1, func() Operator {
		return &FuncSink{F: func(Record) {}, OnWM: func(wm int64) { wms = append(wms, wm) }}
	}, Edge{From: src, Part: Forward})
	run(t, g)
	if len(wms) == 0 {
		t.Fatalf("no watermarks observed")
	}
	for i := 1; i < len(wms); i++ {
		if wms[i] < wms[i-1] {
			t.Fatalf("watermarks regressed: %v", wms)
		}
	}
	if wms[len(wms)-1] != math.MaxInt64 {
		t.Fatalf("final watermark = %d, want +inf", wms[len(wms)-1])
	}
}

func TestWindowPipelineEndToEnd(t *testing.T) {
	// Two source subtasks emit interleaved keyed values; tumbling(10) sum
	// per key must match an exact computation.
	const n = 400
	g := NewGraph("windows")
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		return &GenSource{N: n / 2, WatermarkEvery: 8, Lag: 0, Gen: func(i int64) Record {
			global := i*int64(par) + int64(sub)
			return Data(global, uint64(global%3), float64(1))
		}}
	})
	win := g.AddOperator("win", 2, NewWindowOp(
		WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()},
	), Edge{From: src, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: win, Part: Rebalance})
	run(t, g)

	type wkey struct {
		key   uint64
		start int64
	}
	got := map[wkey]float64{}
	for _, r := range sink.Records() {
		wr := r.Value.(WindowResult)
		got[wkey{r.Key, wr.Start}] += wr.Value
	}
	want := map[wkey]float64{}
	for ts := int64(0); ts < n; ts++ {
		want[wkey{uint64(ts % 3), (ts / 10) * 10}]++
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("window %+v = %v, want %v", k, got[k], w)
		}
	}
}

func TestChainingEquivalence(t *testing.T) {
	build := func() (*Graph, *CollectSink) {
		g := NewGraph("chain")
		src := g.AddSource("src", 1, SliceSource(intRecords(300)))
		a := g.AddOperator("a", 1, func() Operator {
			return &MapOp{F: func(r Record) Record { r.Value = r.Value.(float64) + 1; return r }}
		}, Edge{From: src, Part: Forward})
		b := g.AddOperator("b", 1, func() Operator {
			return &FilterOp{F: func(r Record) bool { return int64(r.Value.(float64))%3 != 0 }}
		}, Edge{From: a, Part: Forward})
		sink := &CollectSink{}
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: b, Part: Forward})
		return g, sink
	}
	sum := func(s *CollectSink) (float64, int) {
		var total float64
		for _, r := range s.Records() {
			total += r.Value.(float64)
		}
		return total, len(s.Records())
	}
	g1, s1 := build()
	run(t, g1, WithChaining(true))
	g2, s2 := build()
	run(t, g2, WithChaining(false))
	t1, n1 := sum(s1)
	t2, n2 := sum(s2)
	if t1 != t2 || n1 != n2 {
		t.Fatalf("chained (%v, %d) != unchained (%v, %d)", t1, n1, t2, n2)
	}
}

func TestGraphValidation(t *testing.T) {
	cases := map[string]func() *Graph{
		"no-op-no-source": func() *Graph {
			g := NewGraph("bad")
			g.nodes = append(g.nodes, &Node{ID: 0, Name: "ghost", Parallelism: 1})
			return g
		},
		"operator-without-input": func() *Graph {
			g := NewGraph("bad")
			g.AddOperator("orphan", 1, func() Operator { return &MapOp{F: func(r Record) Record { return r }} })
			return g
		},
		"forward-parallelism-mismatch": func() *Graph {
			g := NewGraph("bad")
			s := g.AddSource("s", 2, SliceSource(nil))
			g.AddOperator("op", 3, func() Operator { return &MapOp{F: func(r Record) Record { return r }} },
				Edge{From: s, Part: Forward})
			return g
		},
		"zero-parallelism": func() *Graph {
			g := NewGraph("bad")
			g.AddSource("s", 0, SliceSource(nil))
			return g
		},
	}
	for name, mk := range cases {
		if err := mk().Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestCancellationStopsUnboundedJob(t *testing.T) {
	g := NewGraph("unbounded")
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &GenSource{N: -1, Gen: func(i int64) Record { return Data(i, 0, float64(i)) }}
	})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: src, Part: Forward})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := NewJob(g).Run(ctx)
	if err == nil {
		t.Fatalf("unbounded job finished without error?")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancellation took too long")
	}
	if len(sink.Records()) == 0 {
		t.Fatalf("no records processed before cancel")
	}
}

func TestUnionTwoSources(t *testing.T) {
	g := NewGraph("union")
	a := g.AddSource("a", 1, SliceSource(intRecords(50)))
	b := g.AddSource("b", 1, SliceSource(intRecords(70)))
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(),
		Edge{From: a, Part: Rebalance}, Edge{From: b, Part: Rebalance})
	run(t, g)
	if got := len(sink.Records()); got != 120 {
		t.Fatalf("union saw %d records, want 120", got)
	}
}

func TestRecordKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindData: "data", KindWatermark: "watermark", KindBarrier: "barrier", KindEnd: "end",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Partitioning(99).String() == "" || Kind(99).String() == "" {
		t.Errorf("unknown values must still render")
	}
}

func TestBroadcastPartitioning(t *testing.T) {
	g := NewGraph("bcast")
	src := g.AddSource("src", 1, SliceSource(intRecords(10)))
	sink := &CollectSink{}
	g.AddOperator("sink", 3, sink.Factory(), Edge{From: src, Part: BroadcastPartition})
	run(t, g)
	if got := len(sink.Records()); got != 30 {
		t.Fatalf("broadcast delivered %d records, want 30", got)
	}
}

// sortRecordsByTs is a shared helper for deterministic comparisons.
func sortRecordsByTs(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Ts != recs[j].Ts {
			return recs[i].Ts < recs[j].Ts
		}
		return fmt.Sprint(recs[i].Value) < fmt.Sprint(recs[j].Value)
	})
}
