package core_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/streamline"
)

// These tests drive the unified model through streamline, the one plan
// builder, and the combiner through dataflow.CombinerOp, the operator the
// builder inserts before a hash shuffle.

func execute(t *testing.T, env *streamline.Env) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.Execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

func genRecords(n int) []streamline.Keyed[float64] {
	recs := make([]streamline.Keyed[float64], n)
	for i := range recs {
		recs[i] = streamline.Keyed[float64]{Ts: int64(i), Key: uint64(i % 5), Value: float64(i)}
	}
	return recs
}

// records is a bounded stream of genRecords(n) at the Env's parallelism.
func records(env *streamline.Env, name string, n int) *streamline.Stream[float64] {
	return streamline.From(env, name, streamline.KeyedSlice(genRecords(n)))
}

// byKey keys a stream by the key its source stamped.
func byKey[T any](s *streamline.Stream[T]) *streamline.Stream[T] {
	return streamline.KeyByRecord(s, "key", func(k streamline.Keyed[T]) uint64 { return k.Key })
}

func sum(acc, v float64) float64 { return acc + v }

func sums(out *streamline.Results[float64]) map[uint64]float64 {
	got := map[uint64]float64{}
	for _, k := range out.Records() {
		got[k.Key] += k.Value
	}
	return got
}

func TestBatchWordCountStyle(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	inc := streamline.Map(records(env, "src", 100), "inc", func(v float64) float64 { return v + 0 })
	out := streamline.Collect(streamline.ReduceByKey(byKey(inc), "sum", sum, false), "out")
	execute(t, env)

	got := sums(out)
	want := map[uint64]float64{}
	for i := 0; i < 100; i++ {
		want[uint64(i%5)] += float64(i)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

// The unified-model property (the paper's central premise): the identical
// pipeline produces identical results whether the input is a bounded
// collection or a generator-driven stream.
func TestBatchStreamEquivalence(t *testing.T) {
	build := func(fromGen bool) map[uint64]float64 {
		env := streamline.New(streamline.WithParallelism(2))
		var s *streamline.Stream[float64]
		if fromGen {
			s = streamline.From(env, "gen", streamline.Generator(200, func(sub, par int, i int64) streamline.Keyed[float64] {
				global := i*int64(par) + int64(sub)
				return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 5), Value: float64(global)}
			}), streamline.WithSourceParallelism(2))
		} else {
			s = records(env, "slice", 200)
		}
		out := streamline.Collect(streamline.ReduceByKey(byKey(s), "sum", sum, false), "out")
		execute(t, env)
		return sums(out)
	}
	batch := build(false)
	stream := build(true)
	if len(batch) != len(stream) {
		t.Fatalf("key counts differ: %d vs %d", len(batch), len(stream))
	}
	for k, v := range batch {
		if stream[k] != v {
			t.Fatalf("key %d: batch %v, stream %v", k, v, stream[k])
		}
	}
}

func TestWindowAggregateMultiQuery(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "gen", streamline.Generator(300, func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 2), Value: 1}
	}), streamline.WithSourceParallelism(1))
	out := streamline.Collect(streamline.WindowAggregate(byKey(src), "win",
		streamline.Query(streamline.Tumbling(30), streamline.Sum()),
		streamline.Query(streamline.Sliding(60, 30), streamline.Count()),
	), "out")
	execute(t, env)

	perQuery := map[int]int{}
	for _, k := range out.Records() {
		wr := k.Value
		perQuery[wr.QueryID]++
		switch wr.QueryID {
		case 0:
			if wr.Value != 15 { // 30 ticks alternating 2 keys -> 15 each
				t.Fatalf("tumbling sum = %v, want 15 (%+v)", wr.Value, wr)
			}
		case 1:
			if wr.Count != 30 && wr.Count != 15 { // full or edge window per key
				t.Fatalf("sliding count = %d (%+v)", wr.Count, wr)
			}
		}
	}
	if perQuery[0] == 0 || perQuery[1] == 0 {
		t.Fatalf("both queries must produce windows: %v", perQuery)
	}
}

func TestWindowAggregateRequiresKeyed(t *testing.T) {
	env := streamline.New()
	streamline.WindowAggregate(records(env, "src", 10), "win", streamline.Query(streamline.Tumbling(5), streamline.Sum()))
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("unkeyed WindowAggregate must fail at build")
	}
}

func TestWindowAggregateRequiresQueries(t *testing.T) {
	env := streamline.New()
	streamline.WindowAggregate(byKey(records(env, "src", 10)), "win")
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("WindowAggregate without queries must fail at build")
	}
}

// Combiner correctness: all three modes must agree.
func TestCombinerModesAgree(t *testing.T) {
	results := map[streamline.CombinerMode]map[uint64]float64{}
	for _, mode := range []streamline.CombinerMode{streamline.CombinerOff, streamline.CombinerOn, streamline.CombinerAuto} {
		env := streamline.New(streamline.WithParallelism(2), streamline.WithCombiner(mode))
		out := streamline.Collect(streamline.ReduceByKey(byKey(records(env, "src", 500)), "sum", sum, false), "out")
		execute(t, env)
		results[mode] = sums(out)
	}
	off, on, auto := results[streamline.CombinerOff], results[streamline.CombinerOn], results[streamline.CombinerAuto]
	for k, v := range off {
		if on[k] != v || auto[k] != v {
			t.Fatalf("key %d: off=%v on=%v auto=%v", k, v, on[k], auto[k])
		}
	}
}

// combinerSampleSize is how many records an adaptive dataflow.CombinerOp
// samples before it decides.
const combinerSampleSize = 512

// Adaptive combiner decision: skewed keys -> enabled, unique keys -> disabled.
func TestCombinerAdaptiveDecision(t *testing.T) {
	runSample := func(gen func(i int) dataflow.Record) bool {
		c := &dataflow.CombinerOp{F: sum, Adaptive: true}
		if err := c.Open(&dataflow.OpContext{}); err != nil {
			t.Fatal(err)
		}
		sinkDrop := collectorFunc(func(dataflow.Record) {})
		for i := 0; i < combinerSampleSize+10; i++ {
			c.OnBatch([]dataflow.Record{gen(i)}, sinkDrop)
		}
		return c.Enabled()
	}
	rng := rand.New(rand.NewSource(3))
	skewed := runSample(func(i int) dataflow.Record {
		return dataflow.Data(int64(i), uint64(rng.Intn(8)), 1.0)
	})
	unique := runSample(func(i int) dataflow.Record {
		return dataflow.Data(int64(i), uint64(i), 1.0)
	})
	if !skewed {
		t.Fatalf("combiner should enable on skewed keys")
	}
	if unique {
		t.Fatalf("combiner should disable on unique keys")
	}
}

// TestCombinerJudgesSampleSinceRestore: a snapshot keeps the sample's count
// but not its key set, so a combiner restored mid-sample judges the records
// sampled since the restore instead of weighing their keys against every
// record sampled: an all-unique stream still turns combining off, at the
// record where it would have without the restore.
func TestCombinerJudgesSampleSinceRestore(t *testing.T) {
	drop := collectorFunc(func(dataflow.Record) {})
	c := &dataflow.CombinerOp{F: sum, Adaptive: true}
	if err := c.Open(&dataflow.OpContext{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		c.OnBatch([]dataflow.Record{dataflow.Data(int64(i), uint64(i), 1.0)}, drop)
	}
	blob, _ := c.Snapshot()
	restored := &dataflow.CombinerOp{F: sum, Adaptive: true}
	if err := restored.Open(&dataflow.OpContext{Restore: blob}); err != nil {
		t.Fatal(err)
	}
	for i := 300; i < combinerSampleSize; i++ {
		restored.OnBatch([]dataflow.Record{dataflow.Data(int64(i), uint64(i), 1.0)}, drop)
	}
	// A combiner that decided against combining hands every run back whole;
	// one still sampling forwards the run record by record and returns none.
	run := []dataflow.Record{dataflow.Data(combinerSampleSize, combinerSampleSize, 1.0)}
	if whole := restored.OnBatch(run, drop); len(whole) != 1 || restored.Enabled() {
		t.Fatalf("after a restore mid-sample and %d more unique keys: run returned %d of 1, enabled %v; want combining off",
			combinerSampleSize-300, len(whole), restored.Enabled())
	}
}

// TestCombinerRestoreRefusesMalformed: a combiner's snapshot restores to the
// same table, and every blob that is not one — each strict prefix, a table
// naming a key twice, and the blob of the gob encoding before it whose key
// list outran its accumulators, which panicked Open — is refused with an
// error.
func TestCombinerRestoreRefusesMalformed(t *testing.T) {
	c := &dataflow.CombinerOp{F: sum}
	if err := c.Open(&dataflow.OpContext{}); err != nil {
		t.Fatal(err)
	}
	c.OnBatch([]dataflow.Record{dataflow.Data(5, 9, 1.5), dataflow.Data(7, 3, 2.0), dataflow.Data(6, 9, 1.0)}, collectorFunc(func(dataflow.Record) {}))
	blob, _ := c.Snapshot()
	restored := &dataflow.CombinerOp{F: c.F}
	if err := restored.Open(&dataflow.OpContext{Restore: blob}); err != nil {
		t.Fatal(err)
	}
	again, _ := restored.Snapshot()
	var table []dataflow.Record
	restored.Finish(collectorFunc(func(r dataflow.Record) { table = append(table, r) }))
	if want := []dataflow.Record{dataflow.Data(7, 3, 2.0), dataflow.Data(6, 9, 2.5)}; !bytes.Equal(again, blob) || fmt.Sprint(table) != fmt.Sprint(want) {
		t.Fatalf("restored table %v snapshots to %x, want %v and %x", table, again, want, blob)
	}
	var gobEra bytes.Buffer
	gob.NewEncoder(&gobEra).Encode(struct {
		Decided, Enabled bool
		Sampled          int
		Keys             []uint64
		Accs             []float64
		Ts               []int64
	}{true, true, 0, []uint64{1, 2}, []float64{1}, []int64{1}})
	bad := map[string][]byte{
		"key twice": {1, 1, 0, 2, 9, 0, 0, 9, 0, 0},
		"gob era":   gobEra.Bytes(),
	}
	for n := range blob {
		bad[fmt.Sprintf("prefix %d", n)] = blob[:n]
	}
	for name, in := range bad {
		op := &dataflow.CombinerOp{F: c.F}
		if err := op.Open(&dataflow.OpContext{Restore: in}); err == nil {
			t.Errorf("%s: %x restored", name, in)
		}
	}
}

type collectorFunc func(dataflow.Record)

func (f collectorFunc) Collect(r dataflow.Record) { f(r) }

func TestUnionMergesStreams(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	out := streamline.Collect(streamline.Union(records(env, "a", 30), "u", records(env, "b", 40)), "out")
	execute(t, env)
	if got := len(out.Records()); got != 70 {
		t.Fatalf("union saw %d records, want 70", got)
	}
}

func TestSinkFunc(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	var n int
	streamline.Sink(records(env, "src", 25), "count", func(streamline.Keyed[float64]) { n++ })
	execute(t, env)
	if n != 25 {
		t.Fatalf("sink saw %d records", n)
	}
}

func TestCheckpointingThroughCoreAPI(t *testing.T) {
	backend := streamline.NewMemoryBackend(0)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithCheckpointing(backend, 20*time.Millisecond))
	src := streamline.From(env, "gen", streamline.Paced(streamline.Generator(3000, func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 3), Value: 1}
	}), 15000), streamline.WithSourceParallelism(1))
	out := streamline.Collect(streamline.ReduceByKey(byKey(src), "sum", sum, false), "out")
	execute(t, env)
	if env.CompletedCheckpoints() == 0 {
		t.Fatalf("no checkpoints completed")
	}
	if len(out.Records()) == 0 {
		t.Fatalf("no output")
	}
	if _, ok, _ := backend.Latest(); !ok {
		t.Fatalf("backend empty")
	}
}

// TestEnvironmentDefaults reads an Env's defaults back through its Core
// view: parallelism sized to the machine, chaining on, and the adaptive
// combiner in front of every reduce.
func TestEnvironmentDefaults(t *testing.T) {
	env := streamline.New()
	streamline.ReduceByKey(byKey(records(env, "src", 10)), "sum", sum, false)
	view := env.Core()
	nodes := view.Graph().Nodes()
	if p := nodes[0].Parallelism; p < 1 || p > 4 {
		t.Fatalf("default parallelism = %d, want within [1,4]", p)
	}
	if !view.Chaining() {
		t.Fatalf("chaining should default on")
	}
	if b, every := view.Backend(); b != nil || every != 0 || view.BuildErr() != nil {
		t.Fatalf("a default Env has backend %v every %v and build error %v", b, every, view.BuildErr())
	}
	if comb, ok := nodes[2].NewOperator().(*dataflow.CombinerOp); !ok || !comb.Adaptive || nodes[2].Name != "sum-combine" {
		t.Fatalf("combiner should default to auto: node %q runs %T", nodes[2].Name, nodes[2].NewOperator())
	}
}

func TestFilterFlatMapThroughCore(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	odd := streamline.Filter(records(env, "src", 60), "odd", func(v float64) bool { return int64(v)%2 == 1 })
	triple := streamline.FlatMap(odd, "triple", func(v float64, em streamline.Emitter[float64]) {
		for k := 0; k < 3; k++ {
			em.Emit(v)
		}
	})
	out := streamline.Collect(triple, "out")
	execute(t, env)
	if got := len(out.Records()); got != 90 { // 30 odds * 3
		t.Fatalf("got %d records, want 90", got)
	}
}
