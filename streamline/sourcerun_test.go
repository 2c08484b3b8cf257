package streamline_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/streamline"
)

// The source stage gathers elements into runs of up to the batch size, and a
// run never spans a Next call that may wait. These tests run with a batch
// size nothing ever fills, so an element that got held in a half-gathered
// run — or in a staging buffer no flusher covers — would show.

// runMetered executes env's pipeline with a registry attached, the way
// Env.Execute does without one, and returns the registry.
func runMetered(ctx context.Context, env *streamline.Env) (*metrics.Registry, error) {
	reg := metrics.NewRegistry()
	return reg, dataflow.NewJob(env.Core().Graph(), dataflow.WithMetrics(reg)).Run(ctx)
}

// arrivals is a sink that reports each element's arrival.
func arrivals(s *streamline.Stream[float64]) <-chan time.Time {
	at := make(chan time.Time, 16)
	keyed := streamline.KeyBy(s, "key", func(v float64) uint64 { return uint64(v) }) // a real exchange before the sink
	streamline.Sink(keyed, "out", func(streamline.Keyed[float64]) { at <- time.Now() })
	return at
}

func awaitArrival(t *testing.T, at <-chan time.Time, sent time.Time, within time.Duration) {
	t.Helper()
	select {
	case got := <-at:
		if d := got.Sub(sent); d > within {
			t.Fatalf("element reached the sink %v after it was sent, want within %v", d, within)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("element never reached the sink")
	}
}

// TestChannelNeverStrandsRecords is the typed twin of the engine's
// TestFlushIntervalBoundsLatency: three elements, then silence. Each is its
// own run, so all three are in the staging buffers when the flusher ticks.
func TestChannelNeverStrandsRecords(t *testing.T) {
	ch := make(chan streamline.Keyed[float64], 3)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(1<<20), streamline.WithFlushInterval(5*time.Millisecond))
	at := arrivals(streamline.FromChannel(env, "live", ch))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *metrics.Registry, 1)
	go func() {
		reg, _ := runMetered(ctx, env)
		done <- reg
	}()
	sent := time.Now()
	for i := 0; i < 3; i++ {
		ch <- streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
	}
	for i := 0; i < 3; i++ {
		// Flush interval (5ms) + idle poll (25ms), with room for a loaded machine.
		awaitArrival(t, at, sent, 250*time.Millisecond)
	}
	cancel()
	reg := <-done
	if in, runs := reg.Counter("node.live.records_in").Value(), reg.Counter("node.live.runs").Value(); in != 3 || runs != 3 {
		t.Fatalf("records_in = %d in %d runs, want 3 in 3: a live channel hands over every element on its own", in, runs)
	}
}

// blockingSource is a custom connector that breaks the may-wait contract the
// way a first attempt would: its Next blocks for up to idle waiting for an
// element, then returns ReadIdle — and it declares nothing.
type blockingSource struct {
	c     chan streamline.Keyed[float64]
	idle  time.Duration
	idled chan struct{} // closed at the first ReadIdle
}

func (s *blockingSource) Open(sub, par int) streamline.Reader[float64] { return s }

func (s *blockingSource) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	select {
	case k := <-s.c:
		return k, streamline.ReadData
	case <-time.After(s.idle):
		select {
		case <-s.idled:
		default:
			close(s.idled)
		}
		return streamline.Keyed[float64]{}, streamline.ReadIdle
	}
}

func (s *blockingSource) Snapshot() ([]byte, error) { return nil, nil }
func (s *blockingSource) Restore([]byte) error      { return nil }

// TestUndeclaredBlockingReaderLatchesAfterFirstIdle: once a reader has
// returned ReadIdle the runtime knows its Next waits, and stops gathering.
// An element sent after that reaches the sink at the flusher's pace; held in
// a run across the next Next it would take the reader's whole idle wait.
func TestUndeclaredBlockingReaderLatchesAfterFirstIdle(t *testing.T) {
	src := &blockingSource{c: make(chan streamline.Keyed[float64]), idle: 400 * time.Millisecond, idled: make(chan struct{})}
	env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(1<<20), streamline.WithFlushInterval(5*time.Millisecond))
	at := arrivals(streamline.From(env, "custom", src, streamline.WithSourceParallelism(1)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runMetered(ctx, env)
	}()
	<-src.idled
	for i := 0; i < 2; i++ {
		src.c <- streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
		awaitArrival(t, at, time.Now(), 200*time.Millisecond)
	}
	cancel()
	<-done
}

// TestHybridRunLengthAcrossHandoff: a hybrid replays its history in full
// batches and hands over every live element on its own.
func TestHybridRunLengthAcrossHandoff(t *testing.T) {
	const batch, full, live = 16, 10, 5
	history := make([]streamline.Keyed[float64], batch*full)
	for i := range history {
		history[i] = streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
	}
	ch := make(chan streamline.Keyed[float64], live)
	for i := 0; i < live; i++ {
		ch <- streamline.Keyed[float64]{Ts: int64(len(history) + i), Value: float64(i)}
	}
	close(ch)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(batch))
	src := streamline.From(env, "events", streamline.Hybrid(streamline.KeyedSlice(history), streamline.Channel(ch)),
		streamline.WithSourceParallelism(1), streamline.WithWatermarkEvery(1<<40))
	out := streamline.Collect(src, "out")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, err := runMetered(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Records()); got != len(history)+live {
		t.Fatalf("sink saw %d records, want %d", got, len(history)+live)
	}
	if got := reg.Counter("node.events.runs").Value(); got != full+live {
		t.Fatalf("runs = %d, want %d full batches of history + %d live elements", got, full, live)
	}
}
