package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/state"
	"repro/internal/window"
)

func execute(t *testing.T, env *Environment) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := env.Execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

func genRecords(n int) []dataflow.Record {
	recs := make([]dataflow.Record, n)
	for i := range recs {
		recs[i] = dataflow.Data(int64(i), uint64(i%5), float64(i))
	}
	return recs
}

func TestBatchWordCountStyle(t *testing.T) {
	env := NewEnvironment(WithParallelism(2))
	sink := env.FromRecords("src", genRecords(100)).
		Map("inc", func(r dataflow.Record) dataflow.Record {
			r.Value = r.Value.(float64) + 0
			return r
		}).
		KeyBy("key", func(r dataflow.Record) uint64 { return r.Key }).
		ReduceByKey("sum", func(acc, v float64) float64 { return acc + v }, false).
		Collect("out")
	execute(t, env)

	got := map[uint64]float64{}
	for _, r := range sink.Records() {
		got[r.Key] += r.Value.(float64)
	}
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
		env := NewEnvironment(WithParallelism(2))
		var s *Stream
		if fromGen {
			s = env.FromGenerator("gen", 2, 200, func(sub, par int, i int64) dataflow.Record {
				global := i*int64(par) + int64(sub)
				return dataflow.Data(global, uint64(global%5), float64(global))
			})
		} else {
			s = env.FromRecords("slice", genRecords(200))
		}
		sink := s.
			KeyBy("key", func(r dataflow.Record) uint64 { return r.Key }).
			ReduceByKey("sum", func(acc, v float64) float64 { return acc + v }, false).
			Collect("out")
		execute(t, env)
		got := map[uint64]float64{}
		for _, r := range sink.Records() {
			got[r.Key] += r.Value.(float64)
		}
		return got
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
	env := NewEnvironment(WithParallelism(2))
	sink := env.FromGenerator("gen", 1, 300, func(sub, par int, i int64) dataflow.Record {
		return dataflow.Data(i, uint64(i%2), float64(1))
	}).
		KeyBy("key", func(r dataflow.Record) uint64 { return r.Key }).
		WindowAggregate("win",
			WindowedQuery{Window: window.Tumbling(30), Fn: agg.SumF64()},
			WindowedQuery{Window: window.Sliding(60, 30), Fn: agg.CountF64()},
		).
		Collect("out")
	execute(t, env)

	perQuery := map[int]int{}
	for _, r := range sink.Records() {
		wr := r.Value.(dataflow.WindowResult)
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
	env := NewEnvironment()
	env.FromRecords("src", genRecords(10)).
		WindowAggregate("win", WindowedQuery{Window: window.Tumbling(5), Fn: agg.SumF64()})
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("unkeyed WindowAggregate must fail at build")
	}
}

func TestWindowAggregateRequiresQueries(t *testing.T) {
	env := NewEnvironment()
	env.FromRecords("src", genRecords(10)).
		KeyBy("k", func(r dataflow.Record) uint64 { return r.Key }).
		WindowAggregate("win")
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("WindowAggregate without queries must fail at build")
	}
}

// Combiner correctness: all three modes must agree.
func TestCombinerModesAgree(t *testing.T) {
	results := map[CombinerMode]map[uint64]float64{}
	for _, mode := range []CombinerMode{CombinerOff, CombinerOn, CombinerAuto} {
		env := NewEnvironment(WithParallelism(2), WithCombiner(mode))
		sink := env.FromRecords("src", genRecords(500)).
			KeyBy("key", func(r dataflow.Record) uint64 { return r.Key }).
			ReduceByKey("sum", func(acc, v float64) float64 { return acc + v }, false).
			Collect("out")
		execute(t, env)
		got := map[uint64]float64{}
		for _, r := range sink.Records() {
			got[r.Key] += r.Value.(float64)
		}
		results[mode] = got
	}
	for k, v := range results[CombinerOff] {
		if results[CombinerOn][k] != v || results[CombinerAuto][k] != v {
			t.Fatalf("key %d: off=%v on=%v auto=%v", k, v, results[CombinerOn][k], results[CombinerAuto][k])
		}
	}
}

// Adaptive combiner decision: skewed keys -> enabled, unique keys -> disabled.
func TestCombinerAdaptiveDecision(t *testing.T) {
	runSample := func(gen func(i int) dataflow.Record) bool {
		c := &CombinerOp{F: func(a, v float64) float64 { return a + v }, Adaptive: true}
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

// TestCombinerRestoreRefusesMalformed: a combiner's snapshot restores to the
// same table, and every blob that is not one — each strict prefix, a table
// naming a key twice, and the blob of the gob encoding before it whose key
// list outran its accumulators, which panicked Open — is refused with an
// error.
func TestCombinerRestoreRefusesMalformed(t *testing.T) {
	c := &CombinerOp{F: func(a, v float64) float64 { return a + v }}
	if err := c.Open(&dataflow.OpContext{}); err != nil {
		t.Fatal(err)
	}
	c.OnBatch([]dataflow.Record{dataflow.Data(5, 9, 1.5), dataflow.Data(7, 3, 2.0), dataflow.Data(6, 9, 1.0)}, collectorFunc(func(dataflow.Record) {}))
	blob, _ := c.Snapshot()
	restored := &CombinerOp{F: c.F}
	if err := restored.Open(&dataflow.OpContext{Restore: blob}); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.Snapshot(); !bytes.Equal(again, blob) || restored.table[9] != (combEntry{acc: 2.5, ts: 6}) {
		t.Fatalf("restored table %v snapshots to %x, want %x", restored.table, again, blob)
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
		op := &CombinerOp{F: c.F}
		if err := op.Open(&dataflow.OpContext{Restore: in}); err == nil {
			t.Errorf("%s: %x restored", name, in)
		}
	}
}

type collectorFunc func(dataflow.Record)

func (f collectorFunc) Collect(r dataflow.Record) { f(r) }

func TestUnionMergesStreams(t *testing.T) {
	env := NewEnvironment(WithParallelism(1))
	a := env.FromRecords("a", genRecords(30))
	b := env.FromRecords("b", genRecords(40))
	sink := a.Union("u", b).Collect("out")
	execute(t, env)
	if got := len(sink.Records()); got != 70 {
		t.Fatalf("union saw %d records, want 70", got)
	}
}

func TestSinkFunc(t *testing.T) {
	env := NewEnvironment(WithParallelism(1))
	var n int
	env.FromRecords("src", genRecords(25)).Sink("count", func(dataflow.Record) { n++ })
	execute(t, env)
	if n != 25 {
		t.Fatalf("sink saw %d records", n)
	}
}

func TestCheckpointingThroughCoreAPI(t *testing.T) {
	backend := state.NewMemoryBackend(0)
	env := NewEnvironment(WithParallelism(1), WithCheckpointing(backend, 20*time.Millisecond))
	sink := env.FromPacedGenerator("gen", 1, 3000, 15000, func(sub, par int, i int64) dataflow.Record {
		return dataflow.Data(i, uint64(i%3), float64(1))
	}).
		KeyBy("key", func(r dataflow.Record) uint64 { return r.Key }).
		ReduceByKey("sum", func(acc, v float64) float64 { return acc + v }, false).
		Collect("out")
	execute(t, env)
	if env.CompletedCheckpoints() == 0 {
		t.Fatalf("no checkpoints completed")
	}
	if len(sink.Records()) == 0 {
		t.Fatalf("no output")
	}
	if _, ok, _ := backend.Latest(); !ok {
		t.Fatalf("backend empty")
	}
}

func TestEnvironmentDefaults(t *testing.T) {
	env := NewEnvironment()
	if env.parallelism < 1 || env.parallelism > 4 {
		t.Fatalf("default parallelism = %d, want within [1,4]", env.parallelism)
	}
	if !env.chaining {
		t.Fatalf("chaining should default on")
	}
	if env.combiner != CombinerAuto {
		t.Fatalf("combiner should default to auto")
	}
}

func TestFilterFlatMapThroughCore(t *testing.T) {
	env := NewEnvironment(WithParallelism(1))
	sink := env.FromRecords("src", genRecords(60)).
		Filter("odd", func(r dataflow.Record) bool { return int64(r.Value.(float64))%2 == 1 }).
		FlatMap("triple", func(r dataflow.Record, out dataflow.Collector) {
			for k := 0; k < 3; k++ {
				out.Collect(r)
			}
		}).
		Collect("out")
	execute(t, env)
	if got := len(sink.Records()); got != 90 { // 30 odds * 3
		t.Fatalf("got %d records, want 90", got)
	}
}
