package streamline_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/pipelines"
	"repro/streamline"
)

var writePlans = flag.Bool("write-plans", false, "rewrite testdata/plans.golden from the current lowering")

// renderPlan is one plan as the golden records it: the fingerprint a
// distributed worker checks, then one line per node with its name,
// parallelism, pinned flag, incoming edges, and the unqualified type name
// and exported scalar fields (a combiner's mode, a reduce's EmitEach) of the
// operator or source reader one subtask instantiates.
func renderPlan(env *streamline.Env) string {
	g, chaining := streamline.PlanOf(env)
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprint %s\n", dataflow.SpecOf(g, chaining).Fingerprint())
	for _, n := range g.Nodes() {
		var v any
		if n.NewSource != nil {
			v = n.NewSource(0, n.Parallelism)
		} else {
			v = n.NewOperator()
		}
		rv := reflect.Indirect(reflect.ValueOf(v))
		fmt.Fprintf(&b, "%d %s p%d pinned=%v op=%s", n.ID, n.Name, n.Parallelism, n.Pinned, rv.Type().Name())
		for i := 0; rv.Kind() == reflect.Struct && i < rv.NumField(); i++ {
			f := rv.Type().Field(i)
			switch f.Type.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int64, reflect.Float64, reflect.String:
				if f.IsExported() {
					fmt.Fprintf(&b, " %s=%v", f.Name, rv.Field(i))
				}
			}
		}
		for _, e := range n.In {
			fmt.Fprintf(&b, " <-%s- %d", e.Part, e.From.ID)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func planGen(env *streamline.Env, name string, par int) *streamline.Stream[float64] {
	return streamline.From(env, name, streamline.Generator(100,
		func(sub, p int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 7), Value: float64(i)}
		}), streamline.WithSourceParallelism(par))
}

func planKeyed(env *streamline.Env) *streamline.Stream[float64] {
	return streamline.KeyBy(planGen(env, "gen", 2), "key", func(v float64) uint64 { return uint64(v) % 5 })
}

func planReduce(env *streamline.Env) {
	sums := streamline.ReduceByKey(planKeyed(env), "sum", func(a, v float64) float64 { return a + v }, false)
	streamline.Collect(sums, "out")
}

type namedPlan struct {
	name string
	env  *streamline.Env
}

// goldenPlans is every plan the golden pins: each registered pipeline, and a
// table that reaches every typed builder and every option that shapes a plan.
func goldenPlans(t *testing.T) []namedPlan {
	var plans []namedPlan
	for _, name := range pipelines.Names() {
		env, _, err := pipelines.Build(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, namedPlan{"pipeline " + name, env})
	}
	table := []struct {
		name  string
		opts  []streamline.Option
		build func(env *streamline.Env)
	}{
		{"fused map+filter+flatmap", nil, func(env *streamline.Env) {
			m := streamline.Map(planGen(env, "gen", 2), "m", func(v float64) int { return int(v) })
			f := streamline.Filter(m, "f", func(v int) bool { return v%2 == 0 })
			fm := streamline.FlatMap(f, "fm", func(v int, em streamline.Emitter[string]) { em.Emit(fmt.Sprint(v)) })
			streamline.Collect(fm, "out")
		}},
		{"lone map", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.Map(planGen(env, "gen", 2), "m", func(v float64) float64 { return v }), "out")
		}},
		{"lone filter", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.Filter(planGen(env, "gen", 1), "f", func(v float64) bool { return v > 3 }), "out")
		}},
		{"lone flatmap", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.FlatMap(planGen(env, "gen", 2), "fm",
				func(v float64, em streamline.Emitter[float64]) { em.Emit(v) }), "out")
		}},
		{"branch point", nil, func(env *streamline.Env) {
			m := streamline.Map(planGen(env, "gen", 2), "m", func(v float64) float64 { return v + 1 })
			a := streamline.Filter(m, "a", func(v float64) bool { return v > 1 })
			b := streamline.Map(m, "b", func(v float64) float64 { return -v })
			streamline.Collect(streamline.Map(a, "a2", func(v float64) float64 { return v }), "out-a")
			streamline.Collect(b, "out-b")
		}},
		{"keyby", nil, func(env *streamline.Env) {
			streamline.Collect(planKeyed(env), "out")
		}},
		{"keybyrecord", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.KeyByRecord(planGen(env, "gen", 2), "key",
				func(k streamline.Keyed[float64]) uint64 { return k.Key + 1 }), "out")
		}},
		{"keybystring", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.KeyByString(planGen(env, "gen", 1), "key",
				func(v float64) string { return fmt.Sprint(v) }), "out")
		}},
		{"reduce combiner auto", nil, planReduce},
		{"reduce combiner on", []streamline.Option{streamline.WithCombiner(streamline.CombinerOn)}, planReduce},
		{"reduce combiner off", []streamline.Option{streamline.WithCombiner(streamline.CombinerOff)}, planReduce},
		{"reduce emit each", nil, func(env *streamline.Env) {
			streamline.Sink(streamline.ReduceByKey(planKeyed(env), "sum", func(a, v float64) float64 { return a + v }, true),
				"sink", func(streamline.Keyed[float64]) {})
		}},
		{"window aggregate", nil, func(env *streamline.Env) {
			win := streamline.WindowAggregate(planKeyed(env), "win",
				streamline.Query(streamline.Tumbling(30), streamline.Sum()),
				streamline.Query(streamline.Sliding(60, 30), streamline.Count()))
			streamline.Collect(win, "out")
		}},
		{"join window", nil, func(env *streamline.Env) {
			left := planKeyed(env)
			right := streamline.KeyBy(planGen(env, "gen-r", 1), "key-r", func(v float64) uint64 { return uint64(v) % 5 })
			streamline.Collect(streamline.JoinWindow(left, "join", right, 10), "out")
		}},
		{"union", nil, func(env *streamline.Env) {
			streamline.Collect(streamline.Union(planGen(env, "a", 2), "u", planGen(env, "b", 1), planGen(env, "c", 2)), "out")
		}},
		{"sink", nil, func(env *streamline.Env) {
			streamline.Sink(planGen(env, "gen", 2), "sink", func(streamline.Keyed[float64]) {})
		}},
		{"collect", nil, func(env *streamline.Env) {
			streamline.Collect(planGen(env, "gen", 2), "out")
		}},
		{"persist", nil, func(env *streamline.Env) {
			store, err := streamline.OpenTopicStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			streamline.Persist(planGen(env, "gen", 2), store, "events")
		}},
		{"batch size", []streamline.Option{streamline.WithBatchSize(7)}, planReduce},
		{"num key groups", []streamline.Option{streamline.WithNumKeyGroups(16)}, planReduce},
		{"chaining off", []streamline.Option{streamline.WithChaining(false)}, planReduce},
	}
	for _, c := range table {
		env := streamline.New(append([]streamline.Option{streamline.WithParallelism(2)}, c.opts...)...)
		c.build(env)
		plans = append(plans, namedPlan{c.name, env})
	}
	return plans
}

// TestPlanGolden pins the plan every typed builder lowers to: node names,
// parallelism, pinning, edges, operator types and each plan's fingerprint.
// A lowering may change how it builds a plan, never which plan it builds.
//
//	go test ./streamline -run TestPlanGolden -write-plans
//
// rewrites testdata/plans.golden after an intended change of plan.
func TestPlanGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range goldenPlans(t) {
		fmt.Fprintf(&b, "== %s\n%s", p.name, renderPlan(p.env))
	}
	const path = "testdata/plans.golden"
	if *writePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("plans differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
