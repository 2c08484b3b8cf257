package streamline

import (
	"sync"
	"testing"

	"repro/internal/dataflow"
)

// floatReader hands out float elements forever.
type floatReader struct{ i int64 }

func (r *floatReader) Next() (Keyed[float64], ReadStatus) {
	r.i++
	return Keyed[float64]{Ts: r.i, Key: uint64(r.i), Value: float64(r.i) + 0.5}, ReadData
}
func (r *floatReader) Snapshot() ([]byte, error) { return nil, nil }
func (r *floatReader) Restore([]byte) error      { return nil }

// The source stage boxes a typed reader's elements into one slab per 64.
func TestLoweredReaderBoxesPerSlab(t *testing.T) {
	l := &loweredReader[float64]{r: &floatReader{}, every: 1 << 40, wmFloor: minInt64}
	var rec dataflow.Record
	if n := testing.AllocsPerRun(100, func() {
		for range dataflow.DefaultBatchSize {
			rec, _ = l.Next()
		}
	}); n > 1 {
		t.Fatalf("%d elements allocated %v times, want at most 1", dataflow.DefaultBatchSize, n)
	}
	if want := dataflow.Data(rec.Ts, rec.Key, float64(rec.Ts)+0.5); rec != want {
		t.Fatalf("Next = %+v, want %+v", rec, want)
	}
}

// emitList keeps what an operator emits.
type emitList struct{ recs []dataflow.Record }

func (e *emitList) Collect(r dataflow.Record) { e.recs = append(e.recs, r) }

// openNode opens a fresh operator instance of env's node called name.
func openNode(t *testing.T, env *Env, name string) dataflow.Operator {
	t.Helper()
	for _, n := range env.graph.Nodes() {
		if n.Name == name {
			op := n.NewOperator()
			if err := op.Open(&dataflow.OpContext{}); err != nil {
				t.Fatal(err)
			}
			return op
		}
	}
	t.Fatalf("no node %q in the plan", name)
	return nil
}

// A fused run, a lone Map and a lone FlatMap each box a run of 64 results
// into one slab, and every subtask's instance boxes through its own boxer.
func TestStatelessStagesBoxPerSlab(t *testing.T) {
	env := New(WithParallelism(1))
	double := func(v float64) float64 { return 2 * v }
	fused := Map(Filter(Map(From(env, "a", Slice([]float64{1})), "scale", double),
		"keep", func(float64) bool { return true }), "shift", func(v float64) float64 { return v + 1 })
	Collect(fused, "fused-out")
	Collect(Map(From(env, "b", Slice([]float64{1})), "double", double), "map-out")
	Collect(FlatMap(From(env, "c", Slice([]float64{1})), "echo", func(v float64, e Emitter[float64]) { e.Emit(v) }), "flatmap-out")

	in := make([]dataflow.Record, dataflow.DefaultBatchSize)
	for i := range in {
		in[i] = dataflow.Data(int64(i), uint64(i), float64(i)+0.25)
	}
	for name, want := range map[string]func(float64) float64{
		"scale+keep+shift": func(v float64) float64 { return 2*v + 1 },
		"double":           double,
		"echo":             func(v float64) float64 { return v },
	} {
		op, other := openNode(t, env, name), openNode(t, env, name)
		out := &emitList{recs: make([]dataflow.Record, 0, len(in))}
		run := make([]dataflow.Record, len(in))
		var got []dataflow.Record
		step := func() {
			out.recs = out.recs[:0]
			got = append(out.recs, op.OnBatch(append(run[:0], in...), out)...)
		}
		if n := testing.AllocsPerRun(100, step); n > 1 {
			t.Errorf("%s: a run of %d allocated %v times, want at most 1", name, len(in), n)
		}
		for i, r := range got {
			if r.Value != want(in[i].Value.(float64)) || r.Ts != in[i].Ts || r.Key != in[i].Key {
				t.Fatalf("%s: record %d = %+v, want value %v", name, i, r, want(in[i].Value.(float64)))
			}
		}
		if len(got) != len(in) {
			t.Fatalf("%s: %d records out of %d", name, len(got), len(in))
		}
		// Two subtasks' instances run at once, each boxing into slabs of its
		// own: under -race a boxer shared between them is a reported race.
		var wg sync.WaitGroup
		for _, inst := range []dataflow.Operator{op, other} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run := make([]dataflow.Record, len(in))
				out := &emitList{}
				for range 50 {
					out.recs = out.recs[:0]
					for i, r := range append(out.recs, inst.OnBatch(append(run[:0], in...), out)...) {
						if r.Value != want(in[i].Value.(float64)) {
							t.Errorf("%s: record %d = %v under concurrent instances", name, i, r.Value)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
