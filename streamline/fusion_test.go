package streamline_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/streamline"
)

// buildFusedPipeline is the fusion test pipeline: a four-stage stateless
// run (map -> filter -> flatmap -> map) between a rebalance exchange and a
// keyed reduce, so fusion has a full run to collapse and hard boundaries on
// both sides.
func buildFusedPipeline(n int64, opts ...streamline.Option) (*streamline.Env, *streamline.Results[float64]) {
	env := streamline.New(append([]streamline.Option{streamline.WithParallelism(2)}, opts...)...)
	src := streamline.From(env, "gen", streamline.Generator(n,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 16), Value: float64(i % 311)}
		}), streamline.WithSourceParallelism(2))
	merged := streamline.Union(src, "merge")
	m1 := streamline.Map(merged, "scale", func(v float64) float64 { return v*2 + 1 })
	f1 := streamline.Filter(m1, "band", func(v float64) bool { return int64(v)%5 != 3 })
	fm := streamline.FlatMap(f1, "split", func(v float64, em streamline.Emitter[float64]) {
		em.Emit(v)
		if int64(v)%4 == 0 {
			em.Emit(v + 0.25)
		}
	})
	m2 := streamline.Map(fm, "final", func(v float64) float64 { return v * 0.5 })
	keyed := streamline.KeyByRecord(m2, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key % 5 })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	return env, streamline.Collect(sums, "out")
}

// TestStageFusionPlanShape proves the lowered plan: the four stateless
// stages collapse into one operator named by concatenating the stage names
// with "+", and the fused name is deterministic across builds (plan
// fingerprints must match across processes of a distributed run).
func TestStageFusionPlanShape(t *testing.T) {
	fusedEnv, _ := buildFusedPipeline(10)
	fusedPlan := planString(graphOf(fusedEnv))
	if !strings.Contains(fusedPlan, "scale+band+split+final") {
		t.Fatalf("fused plan lacks the concatenated stage node:\n%s", fusedPlan)
	}
	for _, single := range []string{"scale/", "band/", "split/", "final/"} {
		// Match at line start: the stage names also appear inside the fused
		// node's concatenated name.
		if strings.Contains("\n"+fusedPlan, "\n"+single) {
			t.Fatalf("fused plan still has standalone stage %q:\n%s", single, fusedPlan)
		}
	}

	againEnv, _ := buildFusedPipeline(10)
	if again := planString(graphOf(againEnv)); again != fusedPlan {
		t.Fatalf("fused plan is not deterministic:\nfirst:\n%s\nsecond:\n%s", fusedPlan, again)
	}
}

// TestStageFusionIsSemanticOnly proves fusion changes execution, not
// results: at every batch size the fused pipeline produces the keyed sums a
// plain loop over the same stages does.
func TestStageFusionIsSemanticOnly(t *testing.T) {
	const n = 4000
	want := map[uint64]float64{}
	for sub := 0; sub < 2; sub++ {
		for i := int64(0); i < n/2; i++ {
			v := float64(i%311)*2 + 1
			if int64(v)%5 == 3 {
				continue
			}
			vs := []float64{v}
			if int64(v)%4 == 0 {
				vs = append(vs, v+0.25)
			}
			for _, v := range vs {
				want[uint64(i%16)%5] += v * 0.5
			}
		}
	}
	for _, batch := range []int{1, 2, 7, 64, 1024} {
		env, out := buildFusedPipeline(n, streamline.WithBatchSize(batch))
		execute(t, env.Execute)
		got := map[uint64]float64{}
		for _, k := range out.Records() {
			got[k.Key] = k.Value
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: fused run produced %d keys, want %d", batch, len(got), len(want))
		}
		for k, v := range want {
			if diff := got[k] - v; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("batch %d key %d: fused %v, plain loop %v", batch, k, got[k], v)
			}
		}
	}
}

// TestStageFusionStopsAtBranches proves a stage consumed by more than one
// downstream stays a node of its own: fusing it into either consumer would
// duplicate its work and change the plan's sharing structure.
func TestStageFusionStopsAtBranches(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "gen", streamline.Generator(100,
		func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
		}), streamline.WithSourceParallelism(1))
	shared := streamline.Map(src, "shared", func(v float64) float64 { return v + 1 })
	left := streamline.Map(shared, "left", func(v float64) float64 { return v * 2 })
	right := streamline.Map(shared, "right", func(v float64) float64 { return v * 3 })
	lo := streamline.Collect(left, "lo")
	ro := streamline.Collect(right, "ro")
	plan := planString(graphOf(env))
	if !strings.Contains(plan, "shared/") {
		t.Fatalf("branch point was fused away:\n%s", plan)
	}
	execute(t, env.Execute)
	if len(lo.Records()) != 100 || len(ro.Records()) != 100 {
		t.Fatalf("branches saw %d/%d records, want 100/100", len(lo.Records()), len(ro.Records()))
	}
}

// TestFusedChainCheckpointRestore is the recovery proof for fused chains:
// checkpoint a pipeline whose stateless stages are fused, kill it mid-run,
// restore from the latest snapshot, and require the combined results to
// equal a failure-free run. Fusion must be invisible to the ABS protocol —
// barriers cross the fused operator exactly as they crossed the stage run.
func TestFusedChainCheckpointRestore(t *testing.T) {
	const n = 3000
	build := func(perSec float64, opts ...streamline.Option) (*streamline.Env, *streamline.Results[float64]) {
		env := streamline.New(append([]streamline.Option{streamline.WithParallelism(2)}, opts...)...)
		gen := streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
			global := i*int64(par) + int64(sub)
			return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 6), Value: 1}
		})
		var src *streamline.Stream[float64]
		if perSec > 0 {
			src = streamline.From(env, "gen", streamline.Paced(gen, perSec), streamline.WithSourceParallelism(2))
		} else {
			src = streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
		}
		merged := streamline.Union(src, "merge")
		m1 := streamline.Map(merged, "scale", func(v float64) float64 { return v * 2 })
		f1 := streamline.Filter(m1, "keep", func(v float64) bool { return v >= 0 })
		m2 := streamline.Map(f1, "final", func(v float64) float64 { return v / 2 })
		keyed := streamline.KeyByRecord(m2, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
		sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
		return env, streamline.Collect(sums, "out")
	}
	collect := func(outs ...*streamline.Results[float64]) map[uint64]float64 {
		res := map[uint64]float64{}
		for _, out := range outs {
			for _, k := range out.Records() {
				res[k.Key] += k.Value
			}
		}
		return res
	}

	refEnv, refOut := build(0)
	if plan := planString(graphOf(refEnv)); !strings.Contains(plan, "scale+keep+final") {
		t.Fatalf("recovery pipeline is not fused:\n%s", plan)
	}
	execute(t, refEnv.Execute)
	want := collect(refOut)

	backend, err := streamline.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	crashEnv, crashOut := build(10_000,
		streamline.WithCheckpointing(backend, 20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	runErr := crashEnv.Execute(ctx)
	cancel()
	if runErr == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, err := backend.Latest()
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if !ok {
		t.Skip("no checkpoint before kill")
	}
	resumeEnv, resumeOut := build(0)
	if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got := collect(crashOut, resumeOut)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d = %v, want %v (restored run diverged from failure-free run)", k, got[k], v)
		}
	}
}

// TestFusedFlatMapEmitterReuse proves the per-batch Emitter restructure:
// a fused flatmap emitting bursts still delivers every emission in order,
// and the burst contents survive across batch boundaries at batch size 1.
func TestFusedFlatMapEmitterReuse(t *testing.T) {
	for _, bs := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", bs), func(t *testing.T) {
			env := streamline.New(streamline.WithParallelism(1), streamline.WithBatchSize(bs))
			src := streamline.From(env, "gen", streamline.Generator(200,
				func(sub, par int, i int64) streamline.Keyed[float64] {
					return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
				}), streamline.WithSourceParallelism(1))
			merged := streamline.Union(src, "merge")
			burst := streamline.FlatMap(merged, "burst", func(v float64, em streamline.Emitter[float64]) {
				for j := 0; j < 3; j++ {
					em.Emit(v*10 + float64(j))
				}
			})
			out := streamline.Collect(burst, "out")
			execute(t, env.Execute)
			recs := out.Records()
			if len(recs) != 600 {
				t.Fatalf("got %d records, want 600", len(recs))
			}
			vals := make([]float64, len(recs))
			for i, k := range recs {
				vals[i] = k.Value
			}
			sort.Float64s(vals)
			for i := int64(0); i < 200; i++ {
				for j := int64(0); j < 3; j++ {
					if want, got := float64(i*10+j), vals[i*3+j]; got != want {
						t.Fatalf("emission %d: got %v, want %v", i*3+j, got, want)
					}
				}
			}
		})
	}
}
