package transport_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/transport"
	"repro/streamline"
)

// windowEnv is a keyed tumbling-window job whose window size is the only
// thing that varies.
func windowEnv(size int64) *streamline.Env {
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "gen", streamline.Generator(1000, func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 5), Value: 1}
	}), streamline.WithSourceParallelism(2))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	streamline.Collect(streamline.WindowAggregate(keyed, "win", streamline.Query(streamline.Tumbling(size), streamline.Sum())), "out")
	return env
}

// A worker that rebuilt the job with another window size than its
// coordinator's has the same nodes, edges and parallelism, but not the same
// plan: it refuses to run, and the job fails instead of computing other
// windows on the worker's share.
func TestWorkerWithOtherWindowSizeIsRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env := windowEnv(100)
	sup, err := transport.NewSupervisor(transport.Config{
		Graph:    env.Core().Graph(),
		Chaining: env.Core().Chaining(),
		Workers:  1,
	}, transport.SupervisionPolicy{Unsupervised: true})
	if err != nil {
		t.Fatal(err)
	}
	supErr := make(chan error, 1)
	go func() { supErr <- sup.Run(ctx) }()
	build := func(string, []string) (*dataflow.Graph, bool, error) {
		other := windowEnv(200)
		return other.Core().Graph(), other.Core().Chaining(), nil
	}
	werr := transport.RunWorker(ctx, sup.Addr(), nil, build,
		transport.WithWorkerDialPolicy(transport.DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 5 * time.Second}))
	if werr == nil || !strings.Contains(werr.Error(), "plan fingerprint mismatch") {
		t.Fatalf("worker = %v, want a plan fingerprint mismatch", werr)
	}
	if err := <-supErr; err == nil {
		t.Fatal("the job succeeded with a worker that refused its plan")
	}
}
