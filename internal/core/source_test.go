package core_test

import (
	"testing"

	"repro/streamline"
)

// sourceParallelism is the parallelism of env's plan's first node.
func sourceParallelism(env *streamline.Env) int { return env.Core().Graph().Nodes()[0].Parallelism }

// A slice source must honor the environment's default parallelism — it
// round-robins across subtasks, so pinning it to 1 wasted the machine.
func TestFromRecordsHonorsEnvParallelism(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(3))
	s := records(env, "src", 30)
	if got := sourceParallelism(env); got != 3 {
		t.Fatalf("slice source parallelism = %d, want env default 3", got)
	}
	out := streamline.Collect(streamline.ReduceByKey(byKey(s), "sum", sum, false), "out")
	execute(t, env)
	got := sums(out)
	want := map[uint64]float64{}
	for i := 0; i < 30; i++ {
		want[uint64(i%5)] += float64(i)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

// countSource is a connector written outside the package: a custom Source
// plugs into From like the built-in ones.
type countSource struct{ n int64 }

func (c countSource) Open(sub, par int) streamline.Reader[float64] { return &countReader{n: c.n} }

type countReader struct{ n, i int64 }

func (r *countReader) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	if r.i >= r.n {
		return streamline.Keyed[float64]{}, streamline.ReadEnd
	}
	r.i++
	return streamline.Keyed[float64]{Ts: r.i, Key: uint64(r.i), Value: float64(r.i)}, streamline.ReadData
}

func (r *countReader) Snapshot() ([]byte, error) { return nil, nil }
func (r *countReader) Restore([]byte) error      { return nil }

// From is the single source entry point: a custom connector plugs in
// directly, and explicit parallelism overrides the environment default.
func TestFromSourcePluggableFactory(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	s := streamline.From(env, "chan", streamline.Source[float64](countSource{n: 10}), streamline.WithSourceParallelism(1))
	if got := sourceParallelism(env); got != 1 {
		t.Fatalf("explicit parallelism = %d, want 1", got)
	}
	var n int
	streamline.Sink(s, "count", func(streamline.Keyed[float64]) { n++ })
	execute(t, env)
	if n != 10 {
		t.Fatalf("sink saw %d records, want 10", n)
	}
}
