package dataflow

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/window"
)

// The plan fingerprint carries each operator's configuration: two graphs
// that differ only in a combiner's flush policy, a window operator's queries,
// a join's size or a reduce's settings fingerprint differently, and equal
// configurations fingerprint equal.
func TestFingerprintCarriesOperatorConfig(t *testing.T) {
	fingerprint := func(op func() Operator) string {
		g := NewGraph("config")
		src := g.AddSource("src", 1, func(int, int) SourceFunc { return &GenSource{} })
		g.AddOperator("op", 2, op, Edge{From: src, Part: HashPartition})
		return SpecOf(g, true).Fingerprint()
	}
	q := func(spec window.Spec, fn *agg.FnF64) WindowQuery { return WindowQuery{Spec: spec, Fn: fn} }
	for _, c := range []struct {
		name string
		a, b func() Operator
	}{
		{"combiner flush", func() Operator { return &CombinerOp{FlushEvery: 1024} }, func() Operator { return &CombinerOp{FlushEvery: 512} }},
		{"combiner adaptive", func() Operator { return &CombinerOp{FlushEvery: 1024, Adaptive: true} }, func() Operator { return &CombinerOp{FlushEvery: 1024} }},
		{"window size", NewWindowOp(q(window.Tumbling(100), agg.SumF64())), NewWindowOp(q(window.Tumbling(200), agg.SumF64()))},
		{"window slide", NewWindowOp(q(window.Sliding(100, 10), agg.SumF64())), NewWindowOp(q(window.Sliding(100, 20), agg.SumF64()))},
		{"window kind", NewWindowOp(q(window.Tumbling(100), agg.SumF64())), NewWindowOp(q(window.Session(100), agg.SumF64()))},
		{"session gap", NewWindowOp(q(window.Session(100), agg.SumF64())), NewWindowOp(q(window.Session(50), agg.SumF64()))},
		{"count length", NewWindowOp(q(window.CountTumbling(10), agg.SumF64())), NewWindowOp(q(window.CountTumbling(11), agg.SumF64()))},
		{"window aggregate", NewWindowOp(q(window.Tumbling(100), agg.SumF64())), NewWindowOp(q(window.Tumbling(100), agg.MaxF64()))},
		{"window query set", NewWindowOp(q(window.Tumbling(100), agg.SumF64())), NewWindowOp(q(window.Tumbling(100), agg.SumF64()), q(window.Tumbling(100), agg.CountF64()))},
		{"join size", func() Operator { return &WindowJoinOp{Size: 50} }, func() Operator { return &WindowJoinOp{Size: 60} }},
		{"reduce emit each", func() Operator { return &KeyedReduceOp{} }, func() Operator { return &KeyedReduceOp{EmitEach: true} }},
		{"reduce init", func() Operator { return &KeyedReduceOp{} }, func() Operator { return &KeyedReduceOp{Init: 1} }},
	} {
		fa, fb := fingerprint(c.a), fingerprint(c.b)
		if fa == fb {
			t.Errorf("%s: both configurations fingerprint %.12s", c.name, fa)
		}
		if again := fingerprint(c.a); again != fa {
			t.Errorf("%s: one configuration fingerprints %.12s and %.12s", c.name, fa, again)
		}
	}
}
