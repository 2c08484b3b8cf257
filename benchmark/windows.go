package main

import (
	"context"
	"fmt"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/ref"
	"repro/internal/metrics"
	"repro/streamline"
)

// The windows workload: data in motion, saturated. A time-boxed in-memory
// generator (so the source costs next to nothing) feeds Zipf-skewed keys with
// bounded disorder and a share of late events into four shared window
// queries. The window operator, Cutty and keyed state do nearly all the
// work; it is the inverse of replay.
const (
	windowsKeys      = 10_000
	windowsSkew      = 1.1
	windowsPerTick   = 10 // events per event-time ms across the stage
	windowsDisorder  = 20 // ms; also the watermark lag
	windowsLateShare = 0.01
	windowsLateBy    = 200 // ms beyond the lag, at least
	verifyRecords    = 200_000
)

var windowsQueries = []ref.Query{
	{Size: 1000, Slide: 1000, Fn: ref.Sum},
	{Size: 1000, Slide: 1000, Fn: ref.Count},
	{Size: 10_000, Slide: 1000, Fn: ref.Avg},
	{Size: 60_000, Slide: 5000, Fn: ref.Max},
}

// engineQueries renders reference queries as the engine's.
func engineQueries(qs []ref.Query) []streamline.WindowedQuery {
	out := make([]streamline.WindowedQuery, len(qs))
	for i, q := range qs {
		w := streamline.Sliding(q.Size, q.Slide)
		if q.Size == q.Slide {
			w = streamline.Tumbling(q.Size)
		}
		fn := map[ref.Agg]func() streamline.Aggregate{
			ref.Sum: streamline.Sum, ref.Count: streamline.Count, ref.Avg: streamline.Avg, ref.Max: streamline.Max,
		}[q.Fn]
		out[i] = streamline.Query(w, fn())
	}
	return out
}

// windowSink is the counting sink of the window workloads. It always adds up
// the element counts of query countQuery (a tumbling Count, so every
// surviving record is in exactly one of its windows); when keep is set it
// also stores every result for the verify pass.
type windowSink struct {
	countQuery int
	results    int64
	counted    int64
	keep       map[ref.WinID][]ref.WinVal
}

func (s *windowSink) take(k streamline.Keyed[streamline.WindowResult]) {
	s.results++
	r := k.Value
	if r.QueryID == s.countQuery {
		s.counted += r.Count
	}
	if s.keep != nil {
		id := ref.WinID{Query: r.QueryID, Key: k.Key, Start: r.Start}
		s.keep[id] = append(s.keep[id], ref.WinVal{Value: r.Value, Count: r.Count})
	}
}

type windowsInputs struct {
	zipf *gen.Zipf
	want map[ref.WinID]ref.WinVal
}

func windowsGen(seed uint64, z *gen.Zipf) gen.Func {
	return gen.Disordered(seed, z, windowsPerTick, windowsDisorder, windowsLateShare, windowsLateBy)
}

// windowsSetup builds the key table and the expected results of the verify
// pass. The verify pass runs the plan at source parallelism 1: with two
// source subtasks the watermark a late record meets depends on how far the
// other subtask has got, so which late records are dropped is not a function
// of the input; with one it is, and the reference can model it.
func windowsSetup(seed uint64) (windowsInputs, error) {
	in := windowsInputs{zipf: gen.NewZipf(windowsKeys, windowsSkew)}
	f := windowsGen(seed, in.zipf)
	w := ref.NewWindows(windowsQueries...)
	clock := ref.Cadence{Every: 64, Lag: windowsDisorder}
	for i := int64(0); i < verifyRecords; i++ {
		e := f(0, 1, i)
		if !clock.Late(e.Ts) {
			w.Add(e.Key, e.Ts, e.Val)
		}
	}
	in.want = w.Results()
	return in, nil
}

// windowsPipeline builds the workload's plan on env.
func windowsPipeline(env *streamline.Env, box *gen.Box, srcPar int, f gen.Func, seed uint64, sink *windowSink, tr *Tracer, root int) {
	late := func(sub int, i int64) bool { return gen.LateByDesign(seed, windowsLateShare, sub, i) }
	src := streamline.From(env, "gen",
		gen.TimeBoxed(box, f, func(e gen.Event) float64 { return e.Val }, late),
		streamline.WithSourceParallelism(srcPar), streamline.WithWatermarkLag(windowsDisorder))
	keyFn := trace1(tr, "user.key", root, func(k streamline.Keyed[float64]) uint64 { return k.Key })
	keyed := streamline.KeyByRecord(src, "key", keyFn)
	res := streamline.WindowAggregate(keyed, "win", engineQueries(windowsQueries)...)
	streamline.Sink(res, "out", traceDo(tr, "user.sink", root, sink.take))
}

func runWindows(cfg Config, tr *Tracer) (*Result, error) {
	res := newResult("windows")
	in, setup, err := timeSetup(tr, func() (windowsInputs, error) { return windowsSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = setup
	f := windowsGen(cfg.Seed, in.zipf)

	// Verify pass.
	vs := &windowSink{countQuery: 1, keep: map[ref.WinID][]ref.WinVal{}}
	env := streamline.New(streamline.WithParallelism(parallelism))
	windowsPipeline(env, gen.NewBox(1, verifyRecords, 0), 1, f, cfg.Seed, vs, nil, -1)
	sp := tr.Begin("verify", -1)
	if err := env.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}
	tr.End(sp)
	d := ref.CompareWindows(in.want, vs.keep)
	res.Attempted += d.Expected
	res.fail(d.Failed(), "verify pass: %d missing, %d extra, %d wrong of %d window results", d.Missing, d.Extra, d.Bad, d.Expected)

	if err := windowsMeasure(in, cfg, cfg.Seconds, parallelism, tr, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if _, err := baselines(res, cfg, func(seconds float64, par int, r *Result) error {
			return windowsMeasure(in, cfg, seconds, par, nil, r)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// windowsMeasure runs the time-boxed job for seconds.
func windowsMeasure(in windowsInputs, cfg Config, seconds float64, par int, tr *Tracer, res *Result) error {
	f := windowsGen(cfg.Seed, in.zipf)
	sink := &windowSink{countQuery: 1}
	box := gen.NewBox(par, -1, time.Duration(seconds*float64(time.Second)))
	env := streamline.New(streamline.WithParallelism(par))
	root := tr.Begin("execute", -1)
	windowsPipeline(env, box, par, f, cfg.Seed, sink, tr, root)
	reg, execute := executor(env, tr)
	watch := watchEdges(reg, "win", "out")
	ph := beginPhase(box.Taken, watch.sample)
	if err := execute(context.Background()); err != nil {
		return fmt.Errorf("timed run: %w", err)
	}
	st := ph.end()
	tr.End(root)

	taken, late := box.Taken(), box.Late()
	rate, err := rateAfterWarmup(st.Series, box.FirstNext(), box.LastEnd(), taken)
	if err != nil {
		return err
	}
	res.Metrics["records_per_s"] = rate
	res.universal(st, taken)
	res.Counts["records"] = taken
	res.Counts["results"] = sink.results
	res.Attempted += taken
	// Conservation: every record is in exactly one tumbling window unless the
	// operator dropped it as late, and it may only drop late-by-design ones.
	res.fail(sink.counted-taken, "window counts add up to %d, more than the %d records emitted", sink.counted, taken)
	res.fail(taken-late-sink.counted, "window counts add up to %d but %d on-time records were emitted", sink.counted, taken-late)

	res.Units["records"] = float64(taken)
	res.Units["generated_records"] = float64(taken)
	res.Units["exchange_records"] = float64(taken)
	res.Units["window_records"] = float64(taken)
	res.Units["sweeps"] = sweeps(taken)
	res.Units["results"] = float64(sink.results)
	res.Units["keys"] = windowsKeys
	if reg != nil {
		regs := []*metrics.Registry{reg}
		res.Layer["dataflow.late_dropped_share"] = share(counter(regs, "node.win.records_dropped_late"), float64(taken))
		res.Layer["dataflow.queued_batches_max"] = float64(watch.max)
	}
	return nil
}

// sweeps estimates how often the window subtasks, all together, ran
// OnWatermark. The source subtasks emit one watermark per 64 records between
// them and every one reaches every window subtask, but a subtask sweeps only
// when the minimum over its inputs moves, which takes a watermark from each
// source. Counting the calls on this workload's plan (an operator wrapped for
// the count, while this benchmark was written) gave 1.002 per 64 records.
func sweeps(records int64) float64 { return float64(records) / 64 }
