package dataflow

import (
	"context"
	"math"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/state"
)

// seqEvent is one observation of the capture operator: a data record's
// timestamp or a watermark value.
type seqEvent struct {
	kind Kind
	ts   int64
}

// seqCapture records the exact per-channel interleaving of data and
// watermarks it observes. The +inf close-out watermark is ignored (the
// runtime legitimately delivers it more than once at end of stream).
type seqCapture struct {
	Base
	mu  sync.Mutex
	seq []seqEvent
}

func (s *seqCapture) OnBatch(b []Record, _ Collector) []Record {
	s.mu.Lock()
	for _, r := range b {
		s.seq = append(s.seq, seqEvent{kind: KindData, ts: r.Ts})
	}
	s.mu.Unlock()
	return nil
}

func (s *seqCapture) OnWatermark(wm int64, _ Collector) {
	if wm == math.MaxInt64 {
		return
	}
	s.mu.Lock()
	s.seq = append(s.seq, seqEvent{kind: KindWatermark, ts: wm})
	s.mu.Unlock()
}

func (s *seqCapture) events() []seqEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]seqEvent{}, s.seq...)
}

// TestExchangeOrderingPreservedUnderBatching drives a single channel with
// interleaved data and watermarks through a real (unchained) exchange and
// asserts the downstream subtask observes the exact sender order at several
// batch sizes — including one far larger than the stream, where data can
// only arrive because control records flush the staging buffer first.
func TestExchangeOrderingPreservedUnderBatching(t *testing.T) {
	const n, every = 200, 10
	for _, bs := range []int{1, 2, 64, 100000} {
		g := NewGraph("order")
		g.BatchSize = bs
		src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
			return &GenSource{N: n, WatermarkEvery: every, Gen: func(i int64) Record {
				return Data(i, 0, float64(i))
			}}
		})
		cap := &seqCapture{}
		// Rebalance prevents chaining: the capture runs behind a real exchange.
		g.AddOperator("cap", 1, func() Operator { return cap }, Edge{From: src, Part: Rebalance})
		run(t, g)

		var want []seqEvent
		for i := int64(0); i < n; i++ {
			want = append(want, seqEvent{kind: KindData, ts: i})
			if (i+1)%every == 0 {
				want = append(want, seqEvent{kind: KindWatermark, ts: i})
			}
		}
		got := cap.events()
		if len(got) != len(want) {
			t.Fatalf("batch=%d: observed %d events, want %d", bs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d: event %d = %+v, want %+v", bs, i, got[i], want[i])
			}
		}
	}
}

// TestEarlyFlushCrossesOperators runs a paced unbounded source through a
// Rebalance into an unchained map, and on through a hash exchange into the
// sink, with a batch size nothing fills and no watermarks. A record reaches
// the sink only by early flushes: the source's before each Next that waits,
// then the map's once the source's flush marker reaches it. Without the
// map's, every record would sit in its staging buffer for good. The job's
// clock is manual and moves one pacing step whenever the source waits.
func TestEarlyFlushCrossesOperators(t *testing.T) {
	const want, perSec = 20, 400
	g := NewGraph("early")
	g.BatchSize = 1 << 20
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &PacedSource{PerSec: perSec, Inner: &GenSource{
			N: -1, WatermarkEvery: 1 << 40,
			Gen: func(i int64) Record { return Data(i, uint64(i), float64(i)) },
		}}
	})
	m := g.AddOperator("map", 1, func() Operator {
		return &MapOp{F: func(r Record) Record { return r }}
	}, Edge{From: src, Part: Rebalance})
	sink, all := countingSink(want)
	g.AddOperator("sink", 1, sink, Edge{From: m, Part: HashPartition})
	clk := clock.NewManual(time.Unix(0, 0))
	clk.Drive(time.Second/perSec, func() { awaitSink(t, g, all, WithClock(clk)) })
}

// TestEarlyFlushAfterFullBatch is the case where the batch the source ships
// before it waits is not short: the source emits exactly one batch's worth of
// records without waiting, so it ships full, and the source's flush that
// follows finds its staging buffer empty. The map downstream must still pass
// the flush on, or its half-and-half hash split to the two sink subtasks
// stays staged while the source idles. There are no watermarks to push it
// out either: the idle source re-emits the same floor.
func TestEarlyFlushAfterFullBatch(t *testing.T) {
	const batch = 64
	g := NewGraph("early-full")
	g.BatchSize = batch
	src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
		return &stallAfterSource{n: batch}
	})
	m := g.AddOperator("map", 1, func() Operator {
		return &MapOp{F: func(r Record) Record { return r }}
	}, Edge{From: src, Part: Rebalance})
	sink, all := countingSink(batch)
	g.AddOperator("sink", 2, sink, Edge{From: m, Part: HashPartition})
	awaitSink(t, g, all)
}

// stallAfterSource emits n records without waiting, then idles for good:
// every later Next may wait, yields the processor and returns the same
// watermark floor, as a caught-up reader does.
type stallAfterSource struct{ n, i int64 }

func (s *stallAfterSource) Next() (Record, bool) {
	if s.i < s.n {
		s.i++
		return Data(s.i, uint64(s.i), float64(s.i)), true
	}
	gort.Gosched()
	return Watermark(math.MinInt64), true
}

func (s *stallAfterSource) MayWait() bool             { return s.i >= s.n }
func (s *stallAfterSource) Snapshot() ([]byte, error) { return nil, nil }
func (s *stallAfterSource) Restore([]byte) error      { return nil }

// countingSink returns a sink whose subtasks count the records they receive
// together, and a channel closed once want have arrived.
func countingSink(want int64) (OperatorFactory, <-chan struct{}) {
	var n atomic.Int64
	all := make(chan struct{})
	return func() Operator {
		return &FuncSink{F: func(Record) {
			if n.Add(1) == want {
				close(all)
			}
		}}
	}, all
}

// awaitSink runs g until all is closed, failing the test if that has not
// happened within 5 s; the job is cancelled either way.
func awaitSink(t *testing.T, g *Graph, all <-chan struct{}, opts ...JobOption) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewJob(g, opts...).Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatalf("the sink did not see every record within 5s: an early flush stopped short of it")
	}
}

// TestKillAndRecoverAcrossBatchSizes round-trips the checkpoint/recovery
// suite with batching enabled at several batch sizes, including data staged
// ahead of a barrier in the same batch (batch sizes 2 and 64 ship a barrier
// behind the data staged before it; batch size 1 degenerates to the
// per-record exchange).
func TestKillAndRecoverAcrossBatchSizes(t *testing.T) {
	const n = 6000
	for _, bs := range []int{1, 2, 64} {
		refSink := &CollectSink{}
		ref := buildRecoveryGraph(n, 0, refSink)
		ref.BatchSize = bs
		run(t, ref)
		want := collectWindows(t, refSink)
		if len(want) == 0 {
			t.Fatalf("batch=%d: reference run produced no windows", bs)
		}

		backend := state.NewMemoryBackend(0)
		crashSink := &CollectSink{}
		g1 := buildRecoveryGraph(n, 10000, crashSink)
		g1.BatchSize = bs
		job1 := NewJob(g1, WithCheckpointing(backend, 25*time.Millisecond))
		ctx1, cancel1 := context.WithTimeout(context.Background(), 150*time.Millisecond)
		err := job1.Run(ctx1)
		cancel1()
		if err == nil {
			got := collectWindows(t, crashSink)
			assertWindowsEqual(t, got, want)
			continue // finished before the kill; results still exact
		}
		snap, ok, _ := backend.Latest()
		if !ok {
			continue // no checkpoint completed before the kill on this machine
		}
		g2 := buildRecoveryGraph(n, 0, crashSink)
		g2.BatchSize = bs
		job2 := NewJob(g2, WithRestore(snap), WithCheckpointing(backend, 25*time.Millisecond))
		ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
		if err := job2.Run(ctx2); err != nil {
			cancel2()
			t.Fatalf("batch=%d: recovery run failed: %v", bs, err)
		}
		cancel2()
		assertWindowsEqual(t, collectWindows(t, crashSink), want)
	}
}

// TestNoGoroutineLeakAfterCancelledCheckpointingJob cancels a checkpointing
// job mid-flight — coordinator collecting acks, sources paced and flushing
// before each wait — and asserts every runtime goroutine (one per subtask,
// the coordinator) unwinds. Late acks after cancellation must be tolerated, not
// waited on.
func TestNoGoroutineLeakAfterCancelledCheckpointingJob(t *testing.T) {
	before := gort.NumGoroutine()
	for i := 0; i < 3; i++ {
		g := NewGraph("leak")
		src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
			return &PacedSource{PerSec: 5000, Inner: &GenSource{
				N: -1, WatermarkEvery: 16,
				Gen: func(i int64) Record { return Data(i, uint64(i%5), float64(1)) },
			}}
		})
		red := g.AddOperator("sum", 2, func() Operator {
			return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
		}, Edge{From: src, Part: HashPartition})
		sink := &CollectSink{}
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
		job := NewJob(g, WithCheckpointing(state.NewMemoryBackend(0), 10*time.Millisecond))
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
		if err := job.Run(ctx); err == nil {
			cancel()
			t.Fatalf("unbounded job finished without error?")
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := gort.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, gort.NumGoroutine(), buf[:gort.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelStopsGatheringSource: a source that never waits and never ends
// polls for cancellation once per run, so the job is gone well within 100ms
// of cancel(), which comes once the sink has seen a thousand records.
func TestCancelStopsGatheringSource(t *testing.T) {
	g := NewGraph("cancel")
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		return &GenSource{N: -1, Gen: func(i int64) Record { return Data(i, uint64(i), float64(i)) }}
	})
	m := g.AddOperator("map", 2, func() Operator {
		return &MapOp{F: func(r Record) Record { return r }}
	}, Edge{From: src, Part: Forward})
	sink, running := countingSink(1000)
	g.AddOperator("sink", 2, sink, Edge{From: m, Part: HashPartition})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- NewJob(g).Run(ctx) }()
	<-running
	cancel()
	cancelled := time.Now()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if d := time.Since(cancelled); d > 100*time.Millisecond {
			t.Fatalf("job took %v to stop after cancel()", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("job still running 10s after cancel()")
	}
}
