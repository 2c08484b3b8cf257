package dataflow

import (
	"context"
	goruntime "runtime"
	"runtime/debug"
	"testing"

	"repro/internal/agg"
	"repro/internal/window"
)

// discardCollector drops what an operator emits, counting it.
type discardCollector struct{ n int }

func (d *discardCollector) Collect(Record) { d.n++ }

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// A balanced Get and Put allocate nothing: the batch travels through the
// pool in a carrier that is pooled too.
func TestBatchPoolGetPutAllocatesNothing(t *testing.T) {
	if raceDetector() {
		t.Skip("sync.Pool drops a random share of its Puts under the race detector")
	}
	bp := NewBatchPool(DefaultBatchSize)
	bp.Put(bp.Get()) // warm both pools
	if n := testing.AllocsPerRun(1000, func() { bp.Put(append(bp.Get(), Data(1, 2, nil))) }); n != 0 {
		t.Fatalf("Get+Put allocated %v times, want 0", n)
	}
}

// A pool for a batch size larger than the default hands out batches of the
// default's capacity: the stager grows one only where it fills.
func TestBatchPoolNewBatchIsDefaultSized(t *testing.T) {
	if c := cap(NewBatchPool(1 << 20).Get()); c != DefaultBatchSize {
		t.Fatalf("a new batch has capacity %d, want %d", c, DefaultBatchSize)
	}
	if c := cap(NewBatchPool(8).Get()); c != 8 {
		t.Fatalf("a new batch of a size-8 pool has capacity %d, want 8", c)
	}
}

// A combiner that decided against combining flushes an empty table on every
// watermark; that costs nothing.
func TestCombinerOffWatermarkAllocatesNothing(t *testing.T) {
	c := &CombinerOp{F: func(a, b float64) float64 { return a + b }, FlushEvery: 1024, Adaptive: true}
	if err := c.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	out := &discardCollector{}
	run := make([]Record, combinerSampleSize)
	for i := range run {
		run[i] = Data(int64(i), uint64(i), 1.5) // every key distinct: combining does not pay
	}
	c.OnBatch(run, out)
	if c.Enabled() || !c.decided {
		t.Fatal("the combiner did not decide off over distinct keys")
	}
	if n := testing.AllocsPerRun(100, func() { c.OnWatermark(1, out) }); n != 0 {
		t.Fatalf("OnWatermark allocated %v times, want 0", n)
	}
}

// A reduce emitting every update boxes its 64 results into one slab.
func TestReduceEmitEachAllocatesPerSlab(t *testing.T) {
	op := &KeyedReduceOp{F: func(a, b float64) float64 { return a + b }, EmitEach: true}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	in := make([]Record, DefaultBatchSize)
	for i := range in {
		in[i] = Data(int64(i), uint64(i%8), 1.5)
	}
	run := make([]Record, len(in))
	op.OnBatch(append(run[:0], in...), nil) // the keys' cells exist from here on
	if n := testing.AllocsPerRun(100, func() { op.OnBatch(append(run[:0], in...), nil) }); n > 1 {
		t.Fatalf("a run of %d updates allocated %v times, want at most 1", len(in), n)
	}
}

// A watermark firing one window for each of 64 keys boxes the 64 results
// into one slab. The elements are buffered up front and sliding windows keep
// every key's state alive across firings, so a firing allocates little else.
func TestWindowOpFiringAllocatesPerSlab(t *testing.T) {
	const keys, firings = DefaultBatchSize, 110
	op := newWindowOp(t, WindowQuery{Spec: window.Sliding(20, 10), Fn: agg.SumF64()})
	out := &discardCollector{}
	run := make([]Record, 0, keys*firings)
	for w := range int64(firings) {
		for k := range keys {
			run = append(run, Data(w*10+5, uint64(k), 1.5))
		}
	}
	op.OnBatch(run, out)
	at := int64(0)
	fire := func() {
		at += 10
		op.OnWatermark(at, out)
	}
	for range 4 {
		fire() // the keys' window state exists from here on
	}
	before := out.n
	n := testing.AllocsPerRun(100, fire)
	if fired := (out.n - before) / 101; fired != keys {
		t.Fatalf("a watermark fired %d windows, want %d", fired, keys)
	}
	if n > 2 {
		t.Fatalf("firing %d windows allocated %v times, want at most 2", keys, n)
	}
}

// Keys whose buffers a watermark empties and whose slices it evicts give
// both back, and take them again when they return: after a warm-up, a run
// and the watermark that fires it allocate nothing but the results' slab.
func TestWindowOpRecyclesKeyState(t *testing.T) {
	const keys = DefaultBatchSize
	op := newWindowOp(t, WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()})
	out := &discardCollector{}
	run, at := make([]Record, keys), int64(0)
	step := func() {
		for k := range run {
			run[k] = Data(at+1+int64(k%8), uint64(k), 1.5)
		}
		op.OnBatch(run, out)
		at += 10 // the end of the one window every key is in
		op.OnWatermark(at, out)
	}
	for range 4 {
		step()
	}
	before := out.n
	n := testing.AllocsPerRun(100, step)
	if fired := (out.n - before) / 101; fired != keys {
		t.Fatalf("a watermark fired %d windows, want %d", fired, keys)
	}
	if b, s := op.buf.Len(), op.slices.Len(); b != 0 || s != 0 {
		t.Fatalf("%d buffers and %d keys' slices left after the watermark, want none", b, s)
	}
	if n > 1 {
		t.Fatalf("a run of %d returning keys and its watermark allocated %v times, want at most 1", keys, n)
	}
}

// A fan-in subtask of two inputs that finds both empty sleeps in a plain
// select: waking it allocates nothing. Each wake is an empty batch, which
// the subtask receives and drops without touching the pool. AllocsPerRun
// runs on one P, so yielding after a send lets the subtask run until it
// sleeps again, and every wake takes the sleeping path.
func TestFanInWakeAllocatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := &runtime{ctx: ctx, cancel: cancel}
	ch := &chain{
		nodes: []*Node{{Name: "fanin"}},
		ops:   []Operator{&runCapture{}},
		out:   &outputs{ctx: ctx, pool: NewBatchPool(DefaultBatchSize), batchSize: DefaultBatchSize},
	}
	ch.build()
	inputs := []chan []Record{make(chan []Record), make(chan []Record)}
	done := make(chan error, 1)
	go func() { done <- runOperator(rt, ch.nodes[0], 0, inputs, []int{0, 1}, ch, nil) }()
	empty, wakes := []Record{}, 0
	n := testing.AllocsPerRun(200, func() {
		inputs[wakes%2] <- empty
		wakes++
		goruntime.Gosched()
	})
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("waking a two-input subtask allocated %v times, want 0", n)
	}
}
