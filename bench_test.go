package repro

// Benchmarks regenerating the experiment tables E1–E10 (one benchmark
// family per table; see DESIGN.md section 4). The cmd/streamline-bench
// binary prints the same measurements as formatted tables with fixed input
// sizes; these testing.B variants let `go test -bench` scale iterations and
// report ns/op and allocations.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/i2"
	"repro/internal/window"
	"repro/internal/workloads"
	"repro/streamline"
)

func mkEngines() map[string]func(engine.Emit) engine.Engine {
	return map[string]func(engine.Emit) engine.Engine{
		"cutty":   func(e engine.Emit) engine.Engine { return cutty.New(e) },
		"pairs":   baselines.NewPairs,
		"panes":   baselines.NewPanes,
		"b-int":   func(e engine.Emit) engine.Engine { return baselines.NewBInt(e) },
		"buckets": func(e engine.Emit) engine.Engine { return baselines.NewBuckets(e) },
		"eager":   func(e engine.Emit) engine.Engine { return baselines.NewEager(e) },
	}
}

var strategyOrder = []string{"cutty", "pairs", "panes", "b-int", "buckets", "eager"}

// driveN pushes b.N events through a fresh engine with the given queries.
func driveN(b *testing.B, mk func(engine.Emit) engine.Engine, qs []engine.Query) {
	b.Helper()
	var results int64
	e := mk(func(engine.Result) { results++ })
	for _, q := range qs {
		if _, err := e.AddQuery(q); err != nil {
			b.Skipf("strategy does not support query: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i)
		e.OnWatermark(ts)
		e.OnElement(ts, float64(i%97))
	}
	e.OnWatermark(math.MaxInt64)
	b.ReportMetric(float64(results)/float64(b.N), "windows/ev")
}

// BenchmarkE1SinglePeriodic: table E1 — one sliding query, slide swept.
func BenchmarkE1SinglePeriodic(b *testing.B) {
	engines := mkEngines()
	for _, slide := range []int64{100, 1000} {
		for _, name := range strategyOrder {
			b.Run(fmt.Sprintf("slide=%dms/%s", slide, name), func(b *testing.B) {
				driveN(b, engines[name], []engine.Query{
					{Window: window.Sliding(10_000, slide), Fn: agg.SumF64()},
				})
			})
		}
	}
}

// e2qs mirrors the E2 query mix.
func e2qs(n int) []engine.Query {
	qs := make([]engine.Query, n)
	for i := range qs {
		slide := int64(i%10+1) * 100
		size := slide * int64(i%8+2)
		qs[i] = engine.Query{Window: window.Sliding(size, slide), Fn: agg.SumF64()}
	}
	return qs
}

// BenchmarkE2MultiQuery: table E2 — throughput vs concurrent queries.
func BenchmarkE2MultiQuery(b *testing.B) {
	engines := mkEngines()
	for _, nq := range []int{1, 10, 40} {
		for _, name := range strategyOrder {
			if nq == 40 && (name == "eager" || name == "buckets") && testing.Short() {
				continue
			}
			b.Run(fmt.Sprintf("queries=%d/%s", nq, name), func(b *testing.B) {
				driveN(b, engines[name], e2qs(nq))
			})
		}
	}
}

// BenchmarkE3Redundancy: table E3 — combine invocations per record.
func BenchmarkE3Redundancy(b *testing.B) {
	engines := mkEngines()
	for _, name := range strategyOrder {
		b.Run(fmt.Sprintf("queries=10/%s", name), func(b *testing.B) {
			var combines, lifts atomic.Int64
			qs := e2qs(10)
			for i, q := range qs {
				qs[i] = engine.Query{Window: q.Window, Fn: agg.Counting(q.Fn, &combines, &lifts)}
			}
			driveN(b, engines[name], qs)
			b.ReportMetric(float64(combines.Load())/float64(b.N), "combines/ev")
		})
	}
}

// BenchmarkE4Sessions: table E4 — session windows (non-periodic).
func BenchmarkE4Sessions(b *testing.B) {
	engines := mkEngines()
	for _, name := range strategyOrder {
		b.Run("queries=5/"+name, func(b *testing.B) {
			qs := make([]engine.Query, 5)
			for i := range qs {
				qs[i] = engine.Query{Window: window.Session(int64(i+5) * 100), Fn: agg.SumF64()}
			}
			var results int64
			e := engines[name](func(engine.Result) { results++ })
			for _, q := range qs {
				if _, err := e.AddQuery(q); err != nil {
					b.Skipf("n/a: %v", err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Bursty session timeline.
				ii := int64(i)
				ts := (ii/20)*1700 + (ii%20)*10
				e.OnWatermark(ts)
				e.OnElement(ts, 1)
			}
			e.OnWatermark(math.MaxInt64)
		})
	}
}

// BenchmarkE5Memory: table E5 — peak stored partials (reported as metric).
func BenchmarkE5Memory(b *testing.B) {
	engines := mkEngines()
	for _, name := range strategyOrder {
		b.Run("queries=10/"+name, func(b *testing.B) {
			e := engines[name](func(engine.Result) {})
			for _, q := range e2qs(10) {
				if _, err := e.AddQuery(q); err != nil {
					b.Skipf("n/a: %v", err)
				}
			}
			maxPartials := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i)
				e.OnWatermark(ts)
				e.OnElement(ts, 1)
				if i%1024 == 0 {
					if p := e.StoredPartials(); p > maxPartials {
						maxPartials = p
					}
				}
			}
			b.ReportMetric(float64(maxPartials), "partials")
		})
	}
}

// BenchmarkE6M4Aggregate: table E6 — M4 reduction throughput and transfer.
func BenchmarkE6M4Aggregate(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			gen := workloads.TimeSeries{Seed: 5, PerSec: int64(n) / 10}
			pts := make([]i2.Point, n)
			for i := 0; i < n; i++ {
				e := gen.At(int64(i))
				pts[i] = i2.Point{Ts: e.Ts, V: e.Value}
			}
			vp := i2.Viewport{From: 0, To: pts[n-1].Ts + 1, Width: 600}
			b.ResetTimer()
			var transfer int
			for i := 0; i < b.N; i++ {
				cols := i2.AggregateM4(pts, vp)
				transfer = i2.TransferSize(cols)
			}
			b.ReportMetric(float64(transfer), "tuples")
			b.ReportMetric(float64(n)/float64(transfer), "reduction")
		})
	}
}

// BenchmarkE7Raster: table E7 — raw vs reduced rendering cost.
func BenchmarkE7Raster(b *testing.B) {
	const n = 100_000
	gen := workloads.TimeSeries{Seed: 9, PerSec: 10_000}
	pts := make([]i2.Point, n)
	for i := 0; i < n; i++ {
		e := gen.At(int64(i))
		pts[i] = i2.Point{Ts: e.Ts, V: e.Value}
	}
	vp := i2.Viewport{From: 0, To: pts[n-1].Ts + 1, Width: 600}
	lo, hi := i2.ValueRange(pts)
	sc := i2.Scale{VP: vp, VMin: lo, VMax: hi, H: 240}
	reduced := i2.Points(i2.AggregateM4(pts, vp))
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			i2.RenderLine(pts, sc)
		}
	})
	b.Run("m4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			i2.RenderLine(reduced, sc)
		}
	})
}

// pipelineBench runs the windowed ad pipeline once per iteration. mkOpts is
// invoked per iteration so stateful options (checkpoint backends, whose
// checkpoint ids must not collide across runs) are created fresh. The
// campaign id rides as the stamped key so the plan carries no projection
// stages — identical to the hand-built untyped pipeline it replaced.
func pipelineBench(b *testing.B, n int64, mkOpts func() []streamline.Option) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		env := streamline.New(mkOpts()...)
		gen := workloads.NewAdClicks(99, 50, 1000)
		src := streamline.From(env, "ads", streamline.Generator(n,
			func(sub, par int, j int64) streamline.Keyed[float64] {
				e := gen.At(j)
				return streamline.Keyed[float64]{Ts: e.Ts, Key: e.Key, Value: float64(e.Attr)}
			}), streamline.WithSourceParallelism(1))
		keyed := streamline.KeyByRecord(src, "campaign", func(k streamline.Keyed[float64]) uint64 { return k.Key })
		wins := streamline.WindowAggregate(keyed, "ctr",
			streamline.Query(streamline.Tumbling(1000), streamline.Sum()),
			streamline.Query(streamline.Tumbling(1000), streamline.Count()),
		)
		streamline.Sink(wins, "out", func(streamline.Keyed[streamline.WindowResult]) {})
		if err := env.Execute(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkE8Unified: table E8 — the unified pipeline end to end (bounded).
func BenchmarkE8Unified(b *testing.B) {
	for _, n := range []int64{20_000, 100_000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			pipelineBench(b, n, func() []streamline.Option {
				return []streamline.Option{streamline.WithParallelism(2)}
			})
		})
	}
}

// BenchmarkE9Checkpoint: table E9 — checkpointing overhead.
func BenchmarkE9Checkpoint(b *testing.B) {
	for _, interval := range []time.Duration{0, 250 * time.Millisecond, 50 * time.Millisecond} {
		name := "off"
		if interval > 0 {
			name = interval.String()
		}
		b.Run("interval="+name, func(b *testing.B) {
			iv := interval
			pipelineBench(b, 50_000, func() []streamline.Option {
				opts := []streamline.Option{streamline.WithParallelism(2)}
				if iv > 0 {
					opts = append(opts, streamline.WithCheckpointing(streamline.NewMemoryBackend(3), iv))
				}
				return opts
			})
		})
	}
}

// BenchmarkE10Optimizer: table E10 — combiner and chaining ablation.
func BenchmarkE10Optimizer(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mode streamline.CombinerMode
		skew float64
	}{
		{"combiner=off/zipf", streamline.CombinerOff, 1.4},
		{"combiner=on/zipf", streamline.CombinerOn, 1.4},
		{"combiner=auto/zipf", streamline.CombinerAuto, 1.4},
		{"combiner=off/uniform", streamline.CombinerOff, 1.0},
		{"combiner=auto/uniform", streamline.CombinerAuto, 1.0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			const n = 100_000
			for i := 0; i < b.N; i++ {
				gen := workloads.NewZipf(5, 100_000, 10_000, cfg.skew)
				env := streamline.New(streamline.WithParallelism(2), streamline.WithCombiner(cfg.mode))
				src := streamline.From(env, "gen", streamline.Generator(n,
					func(sub, par int, j int64) streamline.Keyed[float64] {
						e := gen.At(j)
						return streamline.Keyed[float64]{Ts: e.Ts, Key: e.Key, Value: e.Value}
					}), streamline.WithSourceParallelism(1))
				keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
				sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
				streamline.Sink(sums, "out", func(streamline.Keyed[float64]) {})
				if err := env.Execute(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(100_000)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
	for _, chaining := range []bool{true, false} {
		b.Run(fmt.Sprintf("chaining=%v", chaining), func(b *testing.B) {
			const n = 100_000
			for i := 0; i < b.N; i++ {
				env := streamline.New(streamline.WithParallelism(1), streamline.WithChaining(chaining))
				s := streamline.From(env, "gen", streamline.Generator(n,
					func(sub, par int, j int64) streamline.Keyed[float64] {
						return streamline.Keyed[float64]{Ts: j, Key: uint64(j % 64), Value: float64(j % 101)}
					}), streamline.WithSourceParallelism(1))
				for k := 0; k < 4; k++ {
					s = streamline.Map(s, fmt.Sprintf("m%d", k), func(v float64) float64 { return v + 1 })
				}
				streamline.Sink(s, "out", func(streamline.Keyed[float64]) {})
				if err := env.Execute(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(100_000)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkExchange: the batched-exchange trajectory — the bounded slice
// wordcount and the unbounded two-feed channel pipeline at per-record
// (batch=1) and default pooled-batch exchange. `streamline-bench -exchange`
// records the same measurements in BENCH_exchange.json.
func BenchmarkExchange(b *testing.B) {
	nWords, nLive := bench.ExchangeQuickWords, bench.ExchangeQuickLive
	for _, bs := range []int{1, streamline.DefaultBatchSize} {
		b.Run(fmt.Sprintf("wordcount/batch=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.ExchangeWordcount(nWords, bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nWords)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
		b.Run(fmt.Sprintf("channel/batch=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.ExchangeChannel(nLive, bs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nLive)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkFusedChain: the operator chain trajectory — a map→filter→map run
// (one fused operator) behind a rebalance exchange at parallelism 1 and 4,
// chaining on and off.
func BenchmarkFusedChain(b *testing.B) {
	const n = 100_000
	for _, par := range []int{1, 4} {
		for _, chaining := range []bool{true, false} {
			b.Run(fmt.Sprintf("par=%d/chaining=%v", par, chaining), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env := streamline.New(
						streamline.WithParallelism(par),
						streamline.WithChaining(chaining),
					)
					src := streamline.From(env, "gen", streamline.Generator(n,
						func(sub, par int, j int64) streamline.Keyed[float64] {
							return streamline.Keyed[float64]{Ts: j, Key: uint64(j % 64), Value: float64(j % 101)}
						}), streamline.WithSourceParallelism(par))
					merged := streamline.Union(src, "merge")
					m1 := streamline.Map(merged, "scale", func(v float64) float64 { return v * 2 })
					f1 := streamline.Filter(m1, "band", func(v float64) bool { return int64(v)%4 != 2 })
					m2 := streamline.Map(f1, "final", func(v float64) float64 { return v + 1 })
					streamline.Sink(m2, "out", func(streamline.Keyed[float64]) {})
					if err := env.Execute(context.Background()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkStateCapture: the keyed-state snapshot trajectory — how long a
// subtask blocks at a checkpoint barrier with the copy-on-write capture vs
// the synchronous whole-state gob baseline. `streamline-bench -state`
// records the same measurements in BENCH_state.json.
func BenchmarkStateCapture(b *testing.B) {
	for _, keys := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run, err := bench.StateCapture(keys, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(run.CowCaptureNs), "barrier-ns")
			}
		})
	}
}

// TestExperimentTablesQuick exercises the full harness end to end in quick
// mode so `go test ./...` validates every experiment path, not only the
// benchmarks.
func TestExperimentTablesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run skipped in -short mode")
	}
	for _, tab := range bench.All(true) {
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
	}
}
