package streamline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/metrics"
)

type tick struct {
	N int `json:"n"`
}

// TestTopicFollowBurstShipsInFullRuns: a followed topic that is caught up
// reports ReadIdle at once and backs off in the call after, so a burst
// appended while the tail backs off is read in full runs and the last, short
// one ships at the ReadIdle that ends it. Backing off before ReadIdle
// instead would hold that run behind a whole poll. The job's clock is
// manual: the burst is appended while the tail waits, and the clock then
// moves exactly one poll.
func TestTopicFollowBurstShipsInFullRuns(t *testing.T) {
	const batch, history, burst = 16, 5, 40 // the burst is two full runs and one of 8
	store, err := OpenTopicStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tp, err := store.s.Topic("ticks")
	if err != nil {
		t.Fatal(err)
	}
	appendTicks := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := tp.Append(int64(i), uint64(i), []byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	appendTicks(0, history)

	env := New(WithParallelism(1), WithBatchSize(batch))
	src := From[tick](env, "follow", Topic[tick](store, "ticks", WithFollow()), WithSourceParallelism(1), WithWatermarkEvery(1<<40))
	arrived := make(chan struct{}, history+burst)
	Sink(KeyBy(src, "key", func(v tick) uint64 { return uint64(v.N) }), "out", func(Keyed[tick]) { arrived <- struct{}{} })

	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- dataflow.NewJob(env.graph, dataflow.WithMetrics(reg), dataflow.WithClock(clk)).Run(ctx)
	}()
	arrive := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-arrived:
			case <-time.After(5 * time.Second):
				t.Fatalf("record %d of %d never reached the sink", i+1, n)
			}
		}
	}
	arrive(history)
	// The tail found nothing after the history and is now in its back-off:
	// the whole burst is visible when it next reads.
	clk.BlockUntil(1)
	runs, in := reg.Counter("node.follow.runs").Value(), reg.Counter("node.follow.records_in").Value()
	appendTicks(history, burst)
	clk.Advance(followPoll)
	arrive(burst)
	if got := reg.Counter("node.follow.records_in").Value() - in; got != burst {
		t.Fatalf("records_in grew by %d, want %d", got, burst)
	}
	if got := reg.Counter("node.follow.runs").Value() - runs; got != 3 {
		t.Fatalf("the burst of %d came in %d runs, want 3 (%d, %d and %d)", burst, got, batch, batch, burst-2*batch)
	}
	// The tail is back in its back-off, which a cancel ends.
	clk.BlockUntil(1)
	cancel()
	<-done
}
