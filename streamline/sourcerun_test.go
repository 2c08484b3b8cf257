package streamline_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/streamline"
)

// The source stage gathers elements into runs of up to the batch size, and a
// run never spans a Next call that may wait. These tests run with a batch
// size nothing ever fills, so an element that got held in a half-gathered
// run — or in a staging buffer nothing flushes — would show.

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

// TestChannelNeverStrandsRecords: three elements already in the channel,
// then silence, then one more. The three form one run, handed over and
// shipped before the Next that finds the channel empty waits; the lone
// element is a run of its own, shipped before the Next after it waits.
func TestChannelNeverStrandsRecords(t *testing.T) {
	ch := make(chan streamline.Keyed[float64], 3)
	for i := 0; i < 3; i++ {
		ch <- streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
	}
	env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(1<<20))
	at := arrivals(streamline.From(env, "live", streamline.Channel(ch)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *metrics.Registry, 1)
	go func() {
		reg, _ := runMetered(ctx, env)
		done <- reg
	}()
	sent := time.Now()
	for i := 0; i < 3; i++ {
		awaitArrival(t, at, sent, 2*time.Second) // job start-up included
	}
	sent = time.Now()
	ch <- streamline.Keyed[float64]{Ts: 3, Value: 3}
	awaitArrival(t, at, sent, 250*time.Millisecond)
	cancel()
	reg := <-done
	if in, runs := reg.Counter("node.live.records_in").Value(), reg.Counter("node.live.runs").Value(); in != 4 || runs != 2 {
		t.Fatalf("records_in = %d in %d runs, want 4 in 2: what the channel holds is one run, a lone element another", in, runs)
	}
}

// blockingSource is a custom connector that breaks the may-wait contract the
// way a first attempt would: its Next blocks waiting for an element and,
// after a while without one, returns ReadIdle — and it declares nothing. The
// first wait is short, so the runtime soon learns that Next waits; every
// later one is long, so a run held across a Next shows as one more ReadIdle
// before the element arrives, whatever the machine's load. Each element
// leaves Next stamped with the ReadIdle count of that moment in its Value.
// Closing stop ends the stream at once.
type blockingSource struct {
	c     chan streamline.Keyed[float64]
	stop  chan struct{}
	idled chan struct{} // closed at the first ReadIdle
	idles atomic.Int64  // ReadIdle returns so far
}

func (s *blockingSource) Open(sub, par int) streamline.Reader[float64] { return s }

func (s *blockingSource) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	wait := 10 * time.Millisecond
	if s.idles.Load() > 0 {
		wait = 2 * time.Second
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case k := <-s.c:
		k.Value = float64(s.idles.Load())
		return k, streamline.ReadData
	case <-timer.C:
		if s.idles.Add(1) == 1 {
			close(s.idled)
		}
		return streamline.Keyed[float64]{}, streamline.ReadIdle
	case <-s.stop:
		return streamline.Keyed[float64]{}, streamline.ReadEnd
	}
}

func (s *blockingSource) Snapshot() ([]byte, error) { return nil, nil }
func (s *blockingSource) Restore([]byte) error      { return nil }

// TestUndeclaredBlockingReaderLatchesAfterFirstIdle: once a reader has
// returned ReadIdle the runtime knows its Next waits, and stops gathering.
// An element sent after that is handed over and shipped before the next
// Next, so it reaches the sink while that Next still waits: the reader's
// ReadIdle count at arrival is the one the element left Next with. Held in a
// run across that call, it would arrive only after the wait's ReadIdle.
// The latch holds too where the reader is a Hybrid's live half or wrapped by
// an unthrottled Paced, since neither wrapper can answer for it.
func TestUndeclaredBlockingReaderLatchesAfterFirstIdle(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(streamline.Source[float64]) streamline.Source[float64]
	}{
		{"bare", func(s streamline.Source[float64]) streamline.Source[float64] { return s }},
		{"hybrid-live", func(s streamline.Source[float64]) streamline.Source[float64] {
			return streamline.Hybrid(streamline.KeyedSlice[float64](nil), s)
		}},
		{"paced-unthrottled", func(s streamline.Source[float64]) streamline.Source[float64] {
			return streamline.Paced(s, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &blockingSource{c: make(chan streamline.Keyed[float64]), stop: make(chan struct{}), idled: make(chan struct{})}
			env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(1<<20))
			stream := streamline.From(env, "custom", tc.wrap(src), streamline.WithSourceParallelism(1))
			arrived := make(chan [2]int64, 1) // the element's stamp, the count at arrival
			streamline.Sink(streamline.KeyBy(stream, "key", func(v float64) uint64 { return uint64(v) }), "out",
				func(k streamline.Keyed[float64]) { arrived <- [2]int64{int64(k.Value), src.idles.Load()} })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan struct{})
			go func() {
				defer close(done)
				runMetered(ctx, env)
			}()
			<-src.idled
			for i := 0; i < 2; i++ {
				src.c <- streamline.Keyed[float64]{Ts: int64(i)}
				select {
				case got := <-arrived:
					if got[0] != got[1] {
						t.Fatalf("element %d left Next at ReadIdle count %d and reached the sink at %d: it was held across the reader's next Next", i, got[0], got[1])
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("element %d never reached the sink", i)
				}
			}
			close(src.stop)
			<-done
		})
	}
}

// TestHybridPacedHistoryRunsAsDue: a paced history waits between elements
// and the hybrid forwards that, so each element is a run of its own, handed
// over before the wait for the next. Gathered instead, the whole history
// would sit in one run until the handoff.
func TestHybridPacedHistoryRunsAsDue(t *testing.T) {
	const n, perSec = 5, 10 // 100 ms apart, so a late wake-up does not find the next one due
	history := make([]streamline.Keyed[float64], n)
	for i := range history {
		history[i] = streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
	}
	ch := make(chan streamline.Keyed[float64])
	close(ch)
	env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(1<<20))
	src := streamline.From(env, "events", streamline.Hybrid(streamline.Paced(streamline.KeyedSlice(history), perSec), streamline.Channel(ch)),
		streamline.WithSourceParallelism(1), streamline.WithWatermarkEvery(1<<40))
	out := streamline.Collect(src, "out")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg, err := runMetered(ctx, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Records()); got != n {
		t.Fatalf("sink saw %d records, want %d", got, n)
	}
	if got := reg.Counter("node.events.runs").Value(); got != n {
		t.Fatalf("runs = %d, want %d: one per paced history element", got, n)
	}
}

// TestHybridRunLengthAcrossHandoff: a hybrid replays its history in full
// batches, and after the handoff gathers what its live channel holds into
// one run, ended where the channel runs dry.
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
	if got := reg.Counter("node.events.runs").Value(); got != full+1 {
		t.Fatalf("runs = %d, want %d full batches of history + 1 run of the %d queued live elements", got, full, live)
	}
}
