package streamline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
)

type tick struct {
	N int `json:"n"`
}

// slowPollTopic is the follow-mode Topic connector with a longer tail poll.
type slowPollTopic struct {
	src  *topicSource[tick]
	poll time.Duration
}

func (s slowPollTopic) Open(sub, par int) Reader[tick] {
	r := s.src.Open(sub, par).(*topicFollowReader[tick])
	r.poll = s.poll
	return r
}

// TestTopicFollowBurstShipsInFullRuns: a followed topic that is caught up
// reports ReadIdle at once and backs off in the call after, so a burst
// appended while the tail sleeps is read in full runs and the last, short
// one ships at the ReadIdle that ends it. Backing off before ReadIdle
// instead would hold that run behind a whole poll.
func TestTopicFollowBurstShipsInFullRuns(t *testing.T) {
	const (
		batch, history, burst = 16, 5, 40 // the burst is two full runs and one of 8
		poll                  = 500 * time.Millisecond
	)
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
	src := From[tick](env, "follow", slowPollTopic{Topic[tick](store, "ticks", WithFollow()).(*topicSource[tick]), poll},
		WithSourceParallelism(1), WithWatermarkEvery(1<<40))
	at := make(chan time.Time, history+burst)
	Sink(KeyBy(src, "key", func(v tick) uint64 { return uint64(v.N) }), "out", func(Keyed[tick]) { at <- time.Now() })

	reg := metrics.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- dataflow.NewJob(env.Core().Graph(), dataflow.WithMetrics(reg)).Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	arrive := func() time.Time {
		t.Helper()
		select {
		case got := <-at:
			return got
		case <-time.After(5 * time.Second):
			t.Fatalf("a record never reached the sink")
			return time.Time{}
		}
	}
	for i := 0; i < history; i++ {
		arrive()
	}
	// The tail found nothing after the history and is now in its back-off:
	// the whole burst is visible when it next reads.
	time.Sleep(poll / 10)
	runs, in := reg.Counter("node.follow.runs").Value(), reg.Counter("node.follow.records_in").Value()
	appendTicks(history, burst)
	first := arrive()
	last := first
	for i := 1; i < burst; i++ {
		last = arrive()
	}
	if spread := last.Sub(first); spread > poll/2 {
		t.Fatalf("the burst took %v to reach the sink, first to last: its last run waited out the %v poll", spread, poll)
	}
	if got := reg.Counter("node.follow.records_in").Value() - in; got != burst {
		t.Fatalf("records_in grew by %d, want %d", got, burst)
	}
	if got := reg.Counter("node.follow.runs").Value() - runs; got != 3 {
		t.Fatalf("the burst of %d came in %d runs, want 3 (%d, %d and %d)", burst, got, batch, batch, burst-2*batch)
	}
}
