package streamline_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/window"
	"repro/streamline"
)

func execute(t *testing.T, run func(context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

// planString renders a graph's structure — node names, parallelism, and
// incoming edge partitioning — for plan-identity assertions.
func planString(g *dataflow.Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "%s/p%d", n.Name, n.Parallelism)
		for _, e := range n.In {
			fmt.Fprintf(&b, " <-%s- %s", e.Part, e.From.Name)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// graphOf returns the engine plan an Env has built.
func graphOf(env *streamline.Env) *dataflow.Graph {
	g, _ := streamline.PlanOf(env)
	return g
}

// handGraph builds an engine plan node by node, the way the typed lowering
// must: build adds everything up to the last stage, and handGraph ends the
// plan in an "out" collect sink at parallelism 1 behind a rebalance edge.
func handGraph(build func(g *dataflow.Graph) *dataflow.Node) (*dataflow.Graph, *dataflow.CollectSink) {
	g := dataflow.NewGraph("streamline")
	sink := &dataflow.CollectSink{}
	g.AddOperator("out", 1, sink.Factory(), dataflow.Edge{From: build(g), Part: dataflow.Rebalance}).Pinned = true
	return g, sink
}

// handGen adds a generator source of n records split across par subtasks.
func handGen(g *dataflow.Graph, name string, par int, n int64, gen func(i int64) dataflow.Record) *dataflow.Node {
	return g.AddSource(name, par, func(sub, p int) dataflow.SourceFunc {
		c := n / int64(p)
		if int64(sub) < n%int64(p) {
			c++
		}
		return &dataflow.GenSource{N: c, Gen: gen}
	})
}

// handForward adds an operator over a forward edge at its input's
// parallelism.
func handForward(g *dataflow.Graph, in *dataflow.Node, name string, f dataflow.OperatorFactory) *dataflow.Node {
	return g.AddOperator(name, in.Parallelism, f, dataflow.Edge{From: in, Part: dataflow.Forward})
}

// handKeyBy adds the re-keying map the typed KeyBy lowers to.
func handKeyBy(g *dataflow.Graph, in *dataflow.Node, name string, key func(dataflow.Record) uint64) *dataflow.Node {
	return handForward(g, in, name, func() dataflow.Operator {
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { r.Key = key(r); return r }}
	})
}

func runGraph(t *testing.T, g *dataflow.Graph) {
	t.Helper()
	execute(t, dataflow.NewJob(g).Run)
}

// buildTypedWindowed is the quickstart-shaped pipeline on the typed API:
// generator -> keyBy -> two-query window aggregate -> collect.
func buildTypedWindowed(n int64) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "gen", streamline.Generator(n,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
		}), streamline.WithSourceParallelism(1))
	keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) % 5 })
	win := streamline.WindowAggregate(keyed, "win",
		streamline.Query(streamline.Tumbling(30), streamline.Sum()),
		streamline.Query(streamline.Sliding(60, 30), streamline.Count()),
	)
	return env, streamline.Collect(win, "out")
}

// buildUntypedWindowed is the identical pipeline hand-built on the engine's
// graph.
func buildUntypedWindowed(n int64) (*dataflow.Graph, *dataflow.CollectSink) {
	return handGraph(func(g *dataflow.Graph) *dataflow.Node {
		src := handGen(g, "gen", 1, n, func(i int64) dataflow.Record { return dataflow.Data(i, 0, float64(i)) })
		keyed := handKeyBy(g, src, "key", func(r dataflow.Record) uint64 { return uint64(r.Value.(float64)) % 5 })
		return g.AddOperator("win", 2, dataflow.NewWindowOp(
			dataflow.WindowQuery{Spec: window.Tumbling(30), Fn: agg.SumF64()},
			dataflow.WindowQuery{Spec: window.Sliding(60, 30), Fn: agg.CountF64()},
		), dataflow.Edge{From: keyed, Part: dataflow.HashPartition})
	})
}

type resultKey struct {
	key uint64
	wr  streamline.WindowResult
}

// TestTypedUntypedEquivalence runs the quickstart pipeline through both the
// typed API and a graph hand-built on the engine and asserts identical
// window results AND identical plans — so chaining, combiner decisions, and
// Cutty window sharing fire the same way for both.
func TestTypedUntypedEquivalence(t *testing.T) {
	const n = 300

	typedEnv, typedOut := buildTypedWindowed(n)
	execute(t, typedEnv.Execute)
	typed := map[resultKey]int{}
	for _, k := range typedOut.Records() {
		typed[resultKey{key: k.Key, wr: k.Value}]++
	}

	untypedGraph, untypedSink := buildUntypedWindowed(n)
	runGraph(t, untypedGraph)
	untyped := map[resultKey]int{}
	for _, r := range untypedSink.Records() {
		untyped[resultKey{key: r.Key, wr: r.Value.(streamline.WindowResult)}]++
	}

	if len(typed) == 0 {
		t.Fatalf("typed pipeline produced no windows")
	}
	if len(typed) != len(untyped) {
		t.Fatalf("distinct results: typed %d, untyped %d", len(typed), len(untyped))
	}
	for rk, c := range untyped {
		if typed[rk] != c {
			t.Fatalf("result %+v: typed count %d, untyped count %d", rk, typed[rk], c)
		}
	}

	// Plan identity: the typed facade must lower to the exact same job graph
	// (same nodes, parallelism, partitioning), so the optimizer sees no
	// difference. In particular both plans share one window operator for the
	// two queries (Cutty sharing).
	typedPlan := planString(graphOf(typedEnv))
	untypedPlan := planString(untypedGraph)
	if typedPlan != untypedPlan {
		t.Fatalf("plans differ:\ntyped:\n%s\nuntyped:\n%s", typedPlan, untypedPlan)
	}
	if got := strings.Count(typedPlan, "win/"); got != 1 {
		t.Fatalf("expected 1 shared window operator for 2 queries, plan has %d:\n%s", got, typedPlan)
	}
}

// TestTypedUntypedCombinerParity asserts that the typed reduce lowers to
// the plan of a hand-built one with the combiner in front of the shuffle:
// same plan (including the sum-combine node) and same sums.
func TestTypedUntypedCombinerParity(t *testing.T) {
	const n = 500

	typedEnv := streamline.New(streamline.WithParallelism(2), streamline.WithCombiner(streamline.CombinerOn))
	src := streamline.From(typedEnv, "gen", streamline.Generator(n,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
		}), streamline.WithSourceParallelism(1))
	keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) % 5 })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	typedOut := streamline.Collect(sums, "out")
	execute(t, typedEnv.Execute)

	sum := func(acc, v float64) float64 { return acc + v }
	untypedGraph, untypedSink := handGraph(func(g *dataflow.Graph) *dataflow.Node {
		src := handGen(g, "gen", 1, n, func(i int64) dataflow.Record { return dataflow.Data(i, 0, float64(i)) })
		keyed := handKeyBy(g, src, "key", func(r dataflow.Record) uint64 { return uint64(r.Value.(float64)) % 5 })
		comb := handForward(g, keyed, "sum-combine", func() dataflow.Operator {
			return &dataflow.CombinerOp{F: sum, FlushEvery: 1024}
		})
		return g.AddOperator("sum", 2, func() dataflow.Operator { return &dataflow.KeyedReduceOp{F: sum} },
			dataflow.Edge{From: comb, Part: dataflow.HashPartition})
	})
	runGraph(t, untypedGraph)

	typedPlan := planString(graphOf(typedEnv))
	untypedPlan := planString(untypedGraph)
	if typedPlan != untypedPlan {
		t.Fatalf("plans differ:\ntyped:\n%s\nuntyped:\n%s", typedPlan, untypedPlan)
	}
	if !strings.Contains(typedPlan, "sum-combine") {
		t.Fatalf("combiner not inserted into typed plan:\n%s", typedPlan)
	}

	typed := map[uint64]float64{}
	for _, k := range typedOut.Records() {
		typed[k.Key] += k.Value
	}
	untyped := map[uint64]float64{}
	for _, r := range untypedSink.Records() {
		untyped[r.Key] += r.Value.(float64)
	}
	if len(typed) != 5 {
		t.Fatalf("typed keys = %d, want 5", len(typed))
	}
	for k, v := range untyped {
		if typed[k] != v {
			t.Fatalf("key %d: typed %v, untyped %v", k, typed[k], v)
		}
	}
}

// TestBoundedUnboundedSamePlan is the paper's central premise on the typed
// API: a bounded (data at rest) and an unbounded (data in motion) source
// produce the exact same job plan — only the source's record count differs.
func TestBoundedUnboundedSamePlan(t *testing.T) {
	build := func(count int64) string {
		env := streamline.New(streamline.WithParallelism(2))
		src := streamline.From(env, "gen", streamline.Generator(count,
			func(sub, par int, i int64) streamline.Keyed[float64] {
				return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
			}), streamline.WithSourceParallelism(1))
		keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) % 3 })
		win := streamline.WindowAggregate(keyed, "win",
			streamline.Query(streamline.Tumbling(50), streamline.Avg()))
		streamline.Sink(win, "out", func(streamline.Keyed[streamline.WindowResult]) {})
		return planString(graphOf(env))
	}
	bounded := build(200)
	unbounded := build(-1) // never executed; the plan is what matters
	if bounded != unbounded {
		t.Fatalf("bounded and unbounded plans differ:\nbounded:\n%s\nunbounded:\n%s", bounded, unbounded)
	}
}

// TestStreamOfAnotherEnvRefused: a stream built on one Env and consumed on
// another is a build error at Execute, naming both nodes. Before the graph
// refused such an edge, the foreign source never ran and Execute waited on
// it until the context ended.
func TestStreamOfAnotherEnvRefused(t *testing.T) {
	gen := streamline.Generator(10, func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i), Value: 1}
	})
	for name, c := range map[string]struct {
		build func(env, other *streamline.Env)
		want  string
	}{
		"union": {func(env, other *streamline.Env) {
			streamline.Collect(streamline.Union(streamline.From(env, "a", gen), "u", streamline.From(other, "b", gen)), "out")
		}, `node "u" reads "b", a node of another graph`},
		"join": {func(env, other *streamline.Env) {
			key := func(v float64) uint64 { return uint64(v) }
			left := streamline.KeyBy(streamline.From(env, "a", gen), "ka", key)
			right := streamline.KeyBy(streamline.From(other, "b", gen), "kb", key)
			streamline.Collect(streamline.JoinWindow(left, "j", right, 5), "out")
		}, `node "j" reads "kb", a node of another graph`},
	} {
		t.Run(name, func(t *testing.T) {
			env := streamline.New(streamline.WithParallelism(1))
			c.build(env, streamline.New(streamline.WithParallelism(1)))
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			err := env.Execute(ctx)
			if err == nil || ctx.Err() != nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Execute = %v (context: %v); want %q", err, ctx.Err(), c.want)
			}
		})
	}
}

// TestUnionLowersInPlanOrder: Union lowers its other inputs' pending
// stages before its first input's, the node order every plan built so far
// has, so fingerprints of such plans do not move.
func TestUnionLowersInPlanOrder(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	gen := streamline.Generator(10, func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
	})
	id := func(v float64) float64 { return v }
	a := streamline.Map(streamline.From(env, "a", gen), "ma", id)
	b := streamline.Map(streamline.From(env, "b", gen), "mb", id)
	streamline.Collect(streamline.Union(a, "u", b), "out")
	want := "a/p2\nb/p2\nmb/p2 <-forward- b\nma/p2 <-forward- a\nu/p2 <-rebalance- ma <-rebalance- mb\nout/p1 <-rebalance- u\n"
	if got := planString(graphOf(env)); got != want {
		t.Fatalf("plan:\n%s\nwant:\n%s", got, want)
	}
}

func TestMapFilterFlatMapTyped(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	nums := streamline.From(env, "src", streamline.Slice([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}))
	odds := streamline.Filter(nums, "odd", func(v int) bool { return v%2 == 1 })
	strs := streamline.Map(odds, "str", func(v int) string { return strings.Repeat("x", v) })
	tripled := streamline.FlatMap(strs, "triple", func(s string, out streamline.Emitter[int]) {
		for k := 0; k < 3; k++ {
			out.Emit(len(s))
		}
	})
	got := streamline.Collect(tripled, "out")
	execute(t, env.Execute)

	recs := got.Records()
	if len(recs) != 15 { // 5 odds * 3
		t.Fatalf("got %d records, want 15", len(recs))
	}
	sum := 0
	for _, k := range recs {
		sum += k.Value
	}
	if sum != 3*(1+3+5+7+9) {
		t.Fatalf("sum = %d, want %d", sum, 3*(1+3+5+7+9))
	}
}

func TestKeyByStringMatchesKeyOf(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	words := streamline.From(env, "src", streamline.Slice([]string{"alpha", "beta", "alpha"}))
	keyed := streamline.KeyByString(words, "word", func(w string) string { return w })
	out := streamline.Collect(keyed, "out")
	execute(t, env.Execute)
	for _, k := range out.Records() {
		if k.Key != streamline.KeyOf(k.Value) {
			t.Fatalf("word %q carries key %d, want %d", k.Value, k.Key, streamline.KeyOf(k.Value))
		}
	}
}

func TestKeyByRecordUsesStampedKey(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "gen", streamline.Generator(10,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 3), Value: 1}
		}), streamline.WithSourceParallelism(1))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(sums, "out")
	execute(t, env.Execute)
	got := map[uint64]float64{}
	for _, k := range out.Records() {
		got[k.Key] += k.Value
	}
	want := map[uint64]float64{0: 4, 1: 3, 2: 3}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v (all: %v)", k, got[k], w, got)
		}
	}
}

func TestUnionTyped(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	a := streamline.From(env, "a", streamline.Slice([]float64{1, 2, 3}))
	b := streamline.From(env, "b", streamline.Slice([]float64{4, 5}))
	u := streamline.Union(a, "u", b)
	out := streamline.Collect(u, "out")
	execute(t, env.Execute)
	var sum float64
	for _, k := range out.Records() {
		sum += k.Value
	}
	if len(out.Records()) != 5 || sum != 15 {
		t.Fatalf("union records = %d sum = %v, want 5 / 15", len(out.Records()), sum)
	}
}

func TestJoinWindowTyped(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	left := streamline.From(env, "left", streamline.KeyedSlice([]streamline.Keyed[float64]{
		{Ts: 1, Value: 10},
		{Ts: 12, Value: 30},
	}))
	right := streamline.From(env, "right", streamline.KeyedSlice([]streamline.Keyed[float64]{
		{Ts: 2, Value: 20},
		{Ts: 13, Value: 40},
	}))
	lk := streamline.KeyBy(left, "lk", func(float64) uint64 { return 7 })
	rk := streamline.KeyBy(right, "rk", func(float64) uint64 { return 7 })
	joined := streamline.JoinWindow(lk, "join", rk, 10)
	out := streamline.Collect(joined, "out")
	execute(t, env.Execute)

	pairs := out.Records()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Value.WindowStart < pairs[j].Value.WindowStart })
	if len(pairs) != 2 {
		t.Fatalf("got %d joined pairs, want 2: %+v", len(pairs), pairs)
	}
	want := []streamline.JoinedPair[float64, float64]{
		{WindowStart: 0, WindowEnd: 10, Left: 10, Right: 20},
		{WindowStart: 10, WindowEnd: 20, Left: 30, Right: 40},
	}
	for i, p := range pairs {
		if p.Value != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, p.Value, want[i])
		}
	}
}

func TestReduceByKeyEmitEach(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "src", streamline.Slice([]float64{1, 1, 1, 1}))
	keyed := streamline.KeyBy(src, "k", func(float64) uint64 { return 1 })
	running := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, true)
	out := streamline.Collect(running, "out")
	execute(t, env.Execute)
	recs := out.Records()
	if len(recs) != 4 {
		t.Fatalf("emitEach produced %d updates, want 4", len(recs))
	}
	vals := make([]float64, len(recs))
	for i, k := range recs {
		vals[i] = k.Value
	}
	sort.Float64s(vals)
	for i, v := range vals {
		if v != float64(i+1) {
			t.Fatalf("running sums = %v, want [1 2 3 4]", vals)
		}
	}
}

func TestCheckpointingThroughTypedAPI(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1),
		streamline.WithCheckpointing(streamline.NewMemoryBackend(0), 20*time.Millisecond))
	src := streamline.From(env, "gen", streamline.Paced(streamline.Generator(3000,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Value: 1}
		}), 15000), streamline.WithSourceParallelism(1))
	keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(sums, "out")
	execute(t, env.Execute)
	if env.CompletedCheckpoints() == 0 {
		t.Fatalf("no checkpoints completed")
	}
	if len(out.Records()) == 0 {
		t.Fatalf("no output")
	}
}

// TestBatchSizeIsPhysicalOnly proves WithBatchSize is a pure exchange
// knob: typed pipelines build byte-identical logical plans at
// every batch size, and the windowed results are identical whether records
// cross exchanges one at a time (batch size 1), in small batches, or in the
// default pooled batches.
func TestBatchSizeIsPhysicalOnly(t *testing.T) {
	const n = 300

	build := func(opts ...streamline.Option) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(append([]streamline.Option{streamline.WithParallelism(2)}, opts...)...)
		src := streamline.From(env, "gen", streamline.Generator(n,
			func(sub, par int, i int64) streamline.Keyed[float64] {
				return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
			}), streamline.WithSourceParallelism(1))
		keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) % 5 })
		win := streamline.WindowAggregate(keyed, "win",
			streamline.Query(streamline.Tumbling(30), streamline.Sum()),
			streamline.Query(streamline.Sliding(60, 30), streamline.Count()),
		)
		return env, streamline.Collect(win, "out")
	}

	refEnv, refOut := build()
	refPlan := planString(graphOf(refEnv))
	execute(t, refEnv.Execute)
	ref := map[resultKey]int{}
	for _, k := range refOut.Records() {
		ref[resultKey{key: k.Key, wr: k.Value}]++
	}
	if len(ref) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, cfg := range []struct {
		name string
		opts []streamline.Option
	}{
		{"batch=1", []streamline.Option{streamline.WithBatchSize(1)}},
		{"batch=2", []streamline.Option{streamline.WithBatchSize(2)}},
		{"batch=256", []streamline.Option{streamline.WithBatchSize(256)}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			env, out := build(cfg.opts...)
			if plan := planString(graphOf(env)); plan != refPlan {
				t.Fatalf("batch options changed the logical plan:\nref:\n%s\ngot:\n%s", refPlan, plan)
			}
			execute(t, env.Execute)
			got := map[resultKey]int{}
			for _, k := range out.Records() {
				got[resultKey{key: k.Key, wr: k.Value}]++
			}
			if len(got) != len(ref) {
				t.Fatalf("distinct results: got %d, ref %d", len(got), len(ref))
			}
			for rk, c := range ref {
				if got[rk] != c {
					t.Fatalf("result %+v: got count %d, ref count %d", rk, got[rk], c)
				}
			}
		})
	}
}

// TestNumKeyGroupsIsPhysicalOnlyTyped proves WithNumKeyGroups is a pure
// state-partitioning knob on the typed API: identical results at group
// counts 1, 7 and 128, at parallelism below and above the group count.
func TestNumKeyGroupsIsPhysicalOnlyTyped(t *testing.T) {
	results := func(opts ...streamline.Option) map[uint64]float64 {
		env := streamline.New(opts...)
		src := streamline.From(env, "gen", streamline.Generator(2000,
			func(sub, par int, i int64) streamline.Keyed[float64] {
				return streamline.Keyed[float64]{Ts: i, Value: float64(i % 11)}
			}), streamline.WithSourceParallelism(2))
		keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return uint64(k.Value) % 5 })
		sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
		out := streamline.Collect(sums, "out")
		execute(t, env.Execute)
		res := map[uint64]float64{}
		for _, k := range out.Records() {
			res[k.Key] = k.Value
		}
		return res
	}
	want := results(streamline.WithParallelism(1))
	if len(want) != 5 {
		t.Fatalf("reference run produced %d keys, want 5", len(want))
	}
	for _, groups := range []int{1, 7, 128} {
		for _, par := range []int{1, 2, 4} {
			got := results(streamline.WithParallelism(par), streamline.WithNumKeyGroups(groups))
			if len(got) != len(want) {
				t.Fatalf("G=%d P=%d: %d keys, want %d", groups, par, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("G=%d P=%d: key %d = %v, want %v", groups, par, k, got[k], v)
				}
			}
		}
	}
}

// TestRescaleRecoveryTypedAPI is the full rescaling recipe on the public
// API: checkpoint to a durable file backend at parallelism 2, kill the
// process's job, then rebuild the same pipeline at parallelism 1 and at 4
// and resume from the latest on-disk snapshot. Dedup'd window results must
// equal a failure-free run.
func TestRescaleRecoveryTypedAPI(t *testing.T) {
	const n = 5000
	build := func(par int, perSec float64, opts ...streamline.Option) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(append([]streamline.Option{streamline.WithParallelism(par)}, opts...)...)
		gen := streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
			global := i*int64(par) + int64(sub)
			return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 6), Value: 1}
		})
		var src *streamline.Stream[float64]
		if perSec > 0 {
			src = streamline.From(env, "gen", streamline.Paced(gen, perSec), streamline.WithSourceParallelism(2))
		} else {
			src = streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
		}
		keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
		win := streamline.WindowAggregate(keyed, "win",
			streamline.Query(streamline.Tumbling(100), streamline.Sum()))
		return env, streamline.Collect(win, "out")
	}
	collect := func(outs ...*streamline.Results[streamline.WindowResult]) map[[2]int64]float64 {
		res := map[[2]int64]float64{}
		for _, out := range outs {
			for _, k := range out.Records() {
				res[[2]int64{int64(k.Key), k.Value.Start}] = k.Value.Value
			}
		}
		return res
	}

	refEnv, refOut := build(2, 0)
	execute(t, refEnv.Execute)
	want := collect(refOut)

	for _, restorePar := range []int{1, 4} {
		restorePar := restorePar
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend, err := streamline.NewFileBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			crashEnv, crashOut := build(2, 10_000,
				streamline.WithCheckpointing(backend, 20*time.Millisecond))
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
			runErr := crashEnv.Execute(ctx)
			cancel()
			if runErr == nil {
				t.Skip("job finished before kill on this machine")
			}
			snap, ok, err := backend.Latest()
			if err != nil {
				t.Fatalf("Latest: %v", err)
			}
			if !ok {
				t.Skip("no checkpoint before kill")
			}
			resumeEnv, resumeOut := build(restorePar, 0)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run at parallelism %d: %v", restorePar, err)
			}
			got := collect(crashOut, resumeOut)
			if len(got) != len(want) {
				t.Fatalf("got %d windows, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("window %v = %v, want %v", k, got[k], v)
				}
			}
		})
	}
}
