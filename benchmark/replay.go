package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/ref"
	"repro/streamline"
)

// The replay workload: data at rest. Set-up appends a history of JSON events
// to a topic through Persist (the write side of the store, timed as setup_s);
// the measured job replays it through Filter, KeyBy, Map and three shared
// window queries into a counting sink, run to completion, as many passes as
// fit the measured time. Range reads and JSON decode feed a fused chain;
// split scans are unordered, so no watermark arrives before the end and the
// window sweep that dominates the windows workload is almost absent here.
const (
	replayEvents  = 1_000_000
	replayKeys    = 10_000
	replayPerTick = 100 // events per event-time ms
)

var replayQueries = []ref.Query{
	{Size: 1000, Slide: 1000, Fn: ref.Sum},
	{Size: 1000, Slide: 1000, Fn: ref.Count},
	{Size: 10_000, Slide: 1000, Fn: ref.Avg},
}

// replayKeep is the workload's Filter: it drops a tenth of the events.
func replayKeep(e gen.Event) bool { return int64(e.Val)%10 != 0 }

// history is a topic store holding generated events.
type history struct {
	dir   string
	store *streamline.TopicStore
}

func (h history) discard() {
	h.store.Close()
	os.RemoveAll(h.dir)
}

// topicSpec names a topic and how many events it holds.
type topicSpec struct {
	name string
	n    int64
}

// persistHistory writes f's first n events to each topic of a fresh store, in
// the order given, through the engine's own Persist sink.
func persistHistory(cfg Config, f gen.Func, topics ...topicSpec) (history, error) {
	dir, err := scratch(cfg, "topics")
	if err != nil {
		return history{}, err
	}
	store, err := streamline.OpenTopicStore(dir)
	if err != nil {
		return history{}, err
	}
	h := history{dir: dir, store: store}
	for _, t := range topics {
		topic := t.name
		env := streamline.New(streamline.WithParallelism(parallelism))
		src := streamline.From(env, "gen", streamline.Generator(t.n, func(sub, par int, i int64) streamline.Keyed[gen.Event] {
			e := f(sub, par, i)
			return streamline.Keyed[gen.Event]{Ts: e.Ts, Key: e.Key, Value: e}
		}), streamline.WithSourceParallelism(1))
		streamline.Persist(src, store, topic)
		if err := env.Execute(context.Background()); err != nil {
			h.discard()
			return history{}, fmt.Errorf("persist %q: %w", topic, err)
		}
	}
	return h, nil
}

// replayPipeline builds the workload's plan over one topic.
func replayPipeline(env *streamline.Env, store *streamline.TopicStore, topic string, par int, sink *windowSink, tr *Tracer, root int) {
	tsFn := trace1(tr, "user.timestamp", root, func(e gen.Event) int64 { return e.Ts })
	src := streamline.From(env, "history", streamline.Topic[gen.Event](store, topic),
		streamline.WithSourceParallelism(par), streamline.WithTimestamps(tsFn))
	keepFn := trace1(tr, "user.filter", root, replayKeep)
	keyFn := trace1(tr, "user.key", root, func(e gen.Event) uint64 { return e.Key })
	valFn := trace1(tr, "user.map", root, func(e gen.Event) float64 { return e.Val })
	kept := streamline.Filter(src, "keep", keepFn)
	keyed := streamline.KeyBy(kept, "key", keyFn)
	vals := streamline.Map(keyed, "val", valFn)
	res := streamline.WindowAggregate(vals, "win", engineQueries(replayQueries)...)
	streamline.Sink(res, "out", traceDo(tr, "user.sink", root, sink.take))
}

type replayInputs struct {
	history
	want map[ref.WinID]ref.WinVal
	kept int64 // events of the full history that pass the filter
}

func replaySetup(cfg Config) (replayInputs, error) {
	f := gen.Uniform(cfg.Seed, replayKeys, replayPerTick, 100)
	h, err := persistHistory(cfg, f, topicSpec{"events", replayEvents}, topicSpec{"verify", verifyRecords})
	if err != nil {
		return replayInputs{}, err
	}
	in := replayInputs{history: h}
	w := ref.NewWindows(replayQueries...)
	for i := int64(0); i < replayEvents; i++ {
		e := f(0, 1, i)
		if !replayKeep(e) {
			continue
		}
		in.kept++
		if i < verifyRecords {
			// No record of a split scan can be late: the scan emits no
			// watermark before its end.
			w.Add(e.Key, e.Ts, e.Val)
		}
	}
	in.want = w.Results()
	return in, nil
}

// replayMeasure runs full passes over the history for at least seconds and
// reports the median pass.
func replayMeasure(in replayInputs, seconds float64, par int, tr *Tracer, res *Result) error {
	root := tr.Begin("execute", -1)
	var rates []float64
	var results, passes int64
	ph := beginPhase(nil, nil)
	for start := time.Now(); time.Since(start).Seconds() < seconds || passes == 0; passes++ {
		sink := &windowSink{countQuery: 1}
		env := streamline.New(streamline.WithParallelism(par))
		replayPipeline(env, in.store, "events", par, sink, tr, root)
		t0 := time.Now()
		if err := env.Execute(context.Background()); err != nil {
			return fmt.Errorf("timed pass %d: %w", passes, err)
		}
		rates = append(rates, replayEvents/time.Since(t0).Seconds())
		results += sink.results
		res.Attempted += replayEvents
		res.fail(abs(sink.counted-in.kept), "pass %d: window counts add up to %d, but %d events pass the filter", passes, sink.counted, in.kept)
	}
	st := ph.end()
	tr.End(root)
	res.Metrics["records_per_s"] = median(rates)
	res.universal(st, passes*replayEvents)
	res.Counts["passes"] = passes
	res.Counts["records"] = passes * replayEvents
	res.Counts["results"] = results
	res.Units["records"] = float64(passes * replayEvents)
	res.Units["topic_records"] = float64(passes * replayEvents)
	res.Units["chain_records"] = float64(passes * replayEvents)
	res.Units["exchange_records"] = float64(passes * in.kept)
	res.Units["window_records"] = float64(passes * in.kept)
	res.Units["sweeps"] = float64(passes * int64(par)) // only the end-of-stream one per window subtask
	res.Units["results"] = float64(results)
	res.Units["keys"] = replayKeys
	return nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func runReplay(cfg Config, tr *Tracer) (*Result, error) {
	res := newResult("replay")
	in, setup, err := timeSetup(tr, func() (replayInputs, error) { return replaySetup(cfg) },
		func(in replayInputs) { in.discard() })
	if err != nil {
		return nil, err
	}
	defer in.discard()
	res.Metrics["setup_s"] = setup

	vs := &windowSink{countQuery: 1, keep: map[ref.WinID][]ref.WinVal{}}
	env := streamline.New(streamline.WithParallelism(parallelism))
	replayPipeline(env, in.store, "verify", parallelism, vs, nil, -1)
	sp := tr.Begin("verify", -1)
	if err := env.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}
	tr.End(sp)
	d := ref.CompareWindows(in.want, vs.keep)
	res.Attempted += d.Expected
	res.fail(d.Failed(), "verify pass: %d missing, %d extra, %d wrong of %d window results", d.Missing, d.Extra, d.Bad, d.Expected)

	if err := replayMeasure(in, cfg.Seconds, parallelism, tr, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if _, err := baselines(res, cfg, func(seconds float64, par int, r *Result) error {
			return replayMeasure(in, seconds, par, nil, r)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
