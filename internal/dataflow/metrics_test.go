package dataflow

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

func TestJobMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGraph("metered")
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &GenSource{N: 500, WatermarkEvery: 10, Gen: func(i int64) Record {
			return Data(i, uint64(i%3), float64(1))
		}}
	})
	mid := g.AddOperator("mid", 1, func() Operator {
		return &MapOp{F: func(r Record) Record { return r }}
	}, Edge{From: src, Part: Rebalance}) // rebalance prevents chaining: mid is a head
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: mid, Part: Rebalance})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job := NewJob(g, WithMetrics(reg), WithCheckpointing(state.NewMemoryBackend(2), 10*time.Millisecond))
	if err := job.Run(ctx); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("node.src.records_in").Value(); got != 500 {
		t.Fatalf("source records_in = %d, want 500", got)
	}
	if got := reg.Counter("node.mid.records_in").Value(); got != 500 {
		t.Fatalf("mid records_in = %d, want 500", got)
	}
	if got := reg.Counter("node.sink.records_in").Value(); got != 500 {
		t.Fatalf("sink records_in = %d, want 500", got)
	}
	// Every advance of a chain's event time moves its gauge, the closing
	// watermark of a bounded run included: all nodes end in agreement.
	for _, node := range []string{"src", "mid", "sink"} {
		if wm := reg.Gauge("node." + node + ".watermark").Value(); wm != math.MaxInt64 {
			t.Fatalf("%s watermark gauge = %d after a bounded run, want the closing watermark", node, wm)
		}
	}
	if job.CompletedCheckpoints() > 0 {
		if reg.Counter("job.checkpoints").Value() != job.CompletedCheckpoints() {
			t.Fatalf("checkpoint counter mismatch")
		}
		if reg.Histogram("job.checkpoint_nanos").Count() == 0 {
			t.Fatalf("no checkpoint durations recorded")
		}
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatalf("registry rendered empty")
	}
}

func TestJobWithoutMetricsIsNil(t *testing.T) {
	j := NewJob(NewGraph("x"))
	if j.nodeMetrics("any") != nil {
		t.Fatalf("nodeMetrics should be nil without a registry")
	}
}

// TestDroppedLateMetric runs a window job whose source emits records behind
// the watermark and asserts the per-node records_dropped_late counter
// surfaces them — the count used to be tracked on the operator but
// unobservable in a running job.
func TestDroppedLateMetric(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGraph("late")
	src := g.AddSource("src", 1, SliceSource([]Record{
		Data(5, 1, 1.0),
		Watermark(20),   // closes everything at or below ts=20
		Data(7, 1, 1.0), // late
		Data(3, 2, 1.0), // late, different key
		Data(25, 1, 1.0),
	}))
	g.AddOperator("win", 1, NewWindowOp(
		WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()},
	), Edge{From: src, Part: HashPartition})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := NewJob(g, WithMetrics(reg)).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("node.win.records_dropped_late").Value(); got != 2 {
		t.Fatalf("records_dropped_late = %d, want 2", got)
	}
}

// TestWindowTimerMetrics reads the window operator's useful-work ratio in
// situ: watermarks counts the watermarks the operator saw, keys_fired the
// keys whose timer those watermarks fired. 50 keys share each tumbling window
// of 100 ticks and a watermark arrives every 10 records, so one watermark in
// ten closes a window and fires all 50 timers; the other nine fire none. End
// of stream reaches the operator three times (the source's last watermark,
// the runtime's on the final End, and Finish) and visits every key that still
// holds state: the first visit closes the last window and releases all 50
// keys, the other two find none. Visiting every key on every watermark would
// have made it 50 x 203.
func TestWindowTimerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	g := NewGraph("timers")
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &GenSource{N: 2000, WatermarkEvery: 10, Gen: func(i int64) Record {
			return Data(i, uint64(i%50), float64(1))
		}}
	})
	g.AddOperator("win", 1, NewWindowOp(
		WindowQuery{Spec: window.Tumbling(100), Fn: agg.SumF64()},
	), Edge{From: src, Part: HashPartition})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := NewJob(g, WithMetrics(reg)).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("node.win.watermarks").Value(); got != 200+3 {
		t.Fatalf("watermarks = %d, want 203", got)
	}
	if got := reg.Counter("node.win.keys_fired").Value(); got != 19*50+1*50 { // 19 windows closed by a watermark
		t.Fatalf("keys_fired = %d, want %d", got, 19*50+1*50)
	}
	for _, g := range []string{"window_keys", "window_slices"} {
		if got := reg.Gauge("node.win." + g).Value(); got != 0 {
			t.Fatalf("%s = %d after the job's close-out, want 0", g, got)
		}
	}
}

// TestWindowStateGauges reads the size of a window node's state in situ:
// window_keys and window_slices, moved once per watermark by every subtask of
// the node, rise with the keys that hold open windows and the slices they
// occupy, fall when windows close, and are back at 0 after the close-out.
func TestWindowStateGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	var subs [2]*WindowOp
	for sub := range subs {
		subs[sub] = NewWindowOp(
			WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()},
			WindowQuery{Spec: window.Sliding(30, 10), Fn: agg.CountF64()},
		)().(*WindowOp)
		if err := subs[sub].Open(&OpContext{NodeName: "win", Metrics: reg, Subtask: sub, Parallelism: 2}); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(wm int64, recs ...Record) (keys, slices int64) {
		for _, r := range recs {
			ng := state.DefaultNumKeyGroups
			sub := subs[state.SubtaskForGroup(state.KeyGroupFor(r.Key, ng), ng, 2)]
			sub.OnBatch([]Record{r}, nil)
		}
		for _, sub := range subs {
			sub.OnWatermark(wm, &collectList{})
		}
		return reg.Gauge("node.win.window_keys").Value(), reg.Gauge("node.win.window_slices").Value()
	}
	var recs []Record
	for key := uint64(0); key < 40; key++ {
		recs = append(recs, Data(1, key, 1.0), Data(12, key, 1.0))
	}
	if keys, slices := feed(15, recs...); keys != 40 || slices != 80 {
		t.Fatalf("40 keys with two slices each: window_keys = %d, window_slices = %d", keys, slices)
	}
	if keys, slices := feed(25, Data(21, 7, 1.0)); keys != 40 || slices != 81 {
		t.Fatalf("one more slice for key 7: window_keys = %d, window_slices = %d", keys, slices)
	}
	// At 45 every window over slices 0 and 1 has closed: only key 7 remains.
	if keys, slices := feed(45); keys != 1 || slices != 1 {
		t.Fatalf("after 39 keys went idle: window_keys = %d, window_slices = %d", keys, slices)
	}
	if keys, slices := feed(math.MaxInt64); keys != 0 || slices != 0 {
		t.Fatalf("after the close-out: window_keys = %d, window_slices = %d", keys, slices)
	}
}

// TestSourceRunsMetric reads run lengths off node.<name>.runs: a source at
// rest gathers full batches, and a source in motion ends a run wherever its
// next Next may wait — at 100 records a second, after every record.
func TestSourceRunsMetric(t *testing.T) {
	gen := func(n int64) *GenSource {
		return &GenSource{N: n, WatermarkEvery: 1 << 40, Gen: func(i int64) Record { return Data(i, uint64(i%3), 1.0) }}
	}
	for _, tc := range []struct {
		name          string
		src           SourceFunc
		records, runs int64
	}{
		{"generator", gen(100 * DefaultBatchSize), 100 * DefaultBatchSize, 100},
		{"paced", &PacedSource{Inner: gen(20), PerSec: 100}, 20, 20},
	} {
		reg := metrics.NewRegistry()
		g := NewGraph("runs")
		src := g.AddSource("src", 1, func(int, int) SourceFunc { return tc.src })
		g.AddOperator("sink", 1, (&CollectSink{}).Factory(), Edge{From: src, Part: Rebalance})
		run(t, g, WithMetrics(reg))
		if got := reg.Counter("node.src.records_in").Value(); got != tc.records {
			t.Fatalf("%s: records_in = %d, want %d", tc.name, got, tc.records)
		}
		if got := reg.Counter("node.src.runs").Value(); got != tc.runs {
			t.Fatalf("%s: runs = %d over %d records, want %d", tc.name, got, tc.records, tc.runs)
		}
	}
}
