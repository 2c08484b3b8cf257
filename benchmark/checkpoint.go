package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/ref"
	"repro/internal/metrics"
	"repro/streamline"
)

// The checkpoint workload: keyed state used the other way, snapshots beside
// updates. The stage first touches every one of half a million keys, then
// draws Zipf ranks over them, so churn is far below state size: the shape
// incremental checkpoints must win on. (The adaptive combiner samples its
// first 512 records, which here are the all-distinct warm-up, and stays off:
// every record reaches the reduce.) A file backend takes a snapshot every
// second; after the measured run the job is rebuilt and restored from the
// newest one.
const (
	checkpointKeys = 500_000
	checkpointSkew = 1.2
	// At 500 ms the job spent 42% of its time inside a checkpoint and its
	// rate differed by 5% (quartile to quartile) between runs of the same
	// code; at one second it is 20% and 2%.
	checkpointInterval = time.Second
	restoredSeconds    = 1 // how long the restored job runs on
	verifyKeys         = 20_000
)

// timedBackend wraps the file backend the way any user may: it sees every
// snapshot the engine persists and loads, and times both. A checkpoint's
// duration runs from the first source Snapshot call after the previous
// checkpoint completed (the barrier entering the job) to the return of
// Persist (the engine counts the checkpoint complete right after it).
type timedBackend struct {
	streamline.Backend
	box *gen.Box
	tr  *Tracer

	mu        sync.Mutex
	persistMs []float64
	ckptMs    []float64
	bytes     []float64
	loadMs    float64
}

func (b *timedBackend) Persist(snap *streamline.Snapshot) error {
	sp := b.tr.Begin("backend.Persist", -1)
	start := time.Now()
	err := b.Backend.Persist(snap)
	end := time.Now()
	b.tr.End(sp)
	var size int
	for _, blob := range snap.Entries {
		size += len(blob)
	}
	for _, blob := range snap.Groups {
		size += len(blob)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.persistMs = append(b.persistMs, float64(end.Sub(start))/1e6)
	b.bytes = append(b.bytes, float64(size))
	if first := b.box.FirstSnapshot(); !first.IsZero() {
		b.ckptMs = append(b.ckptMs, float64(end.Sub(first))/1e6)
	}
	b.box.ResetSnapshotMark()
	return err
}

func (b *timedBackend) Latest() (*streamline.Snapshot, bool, error) {
	sp := b.tr.Begin("backend.Latest", -1)
	start := time.Now()
	snap, ok, err := b.Backend.Latest()
	b.loadMs = float64(time.Since(start)) / 1e6
	b.tr.End(sp)
	return snap, ok, err
}

// checkpointPipeline builds the workload's plan around the reduce function
// sum.
func checkpointPipeline(env *streamline.Env, box *gen.Box, f gen.Func, par int, sum func(acc, v float64) float64, sink *sumSink, tr *Tracer, root int) {
	src := streamline.From(env, "gen", gen.TimeBoxed(box, f, func(e gen.Event) float64 { return e.Val }, nil),
		streamline.WithSourceParallelism(par))
	keyFn := trace1(tr, "user.key", root, func(k streamline.Keyed[float64]) uint64 { return k.Key })
	mapFn := trace1(tr, "user.map", root, func(v float64) float64 { return v })
	keyed := streamline.KeyByRecord(src, "key", keyFn)
	vals := streamline.Map(keyed, "val", mapFn)
	sums := streamline.ReduceByKey(vals, "sum", sum, false)
	streamline.Sink(sums, "out", traceDo(tr, "user.sink", root, sink.take))
}

// combinerMax is more than a combiner can have folded into one partial sum of
// ones before it flushes (every 1024 records).
const combinerMax = 2048

// restoredAdd is add, noting in first the wall time of the first call whose
// accumulator can only be restored state. The source and the combiner chained
// to it start at once in a restored job, while the reduce subtasks are still
// decoding their key groups; the first fold onto a restored sum is the first
// record through the whole job. A fifth of all records hit the hottest key,
// whose restored sum is in the millions, so that fold is in the first batch
// the reduce takes.
func restoredAdd(first *atomic.Int64) func(acc, v float64) float64 {
	return func(acc, v float64) float64 {
		if acc > combinerMax && first.Load() == 0 {
			first.CompareAndSwap(0, time.Now().UnixNano())
		}
		return acc + v
	}
}

type checkpointInputs struct {
	zipf       *gen.Zipf
	verifyZipf *gen.Zipf
	want       ref.Sums
}

func checkpointSetup(seed uint64) (checkpointInputs, error) {
	in := checkpointInputs{
		zipf:       gen.NewZipf(checkpointKeys, checkpointSkew),
		verifyZipf: gen.NewZipf(verifyKeys, checkpointSkew),
		want:       ref.Sums{},
	}
	f := gen.WarmThenSkew(seed, in.verifyZipf, verifyKeys)
	for sub := 0; sub < parallelism; sub++ {
		for i := int64(0); i < verifyRecords/parallelism; i++ {
			e := f(sub, parallelism, i)
			in.want[e.Key] += e.Val
		}
	}
	return in, nil
}

// checkpointMeasure runs the job with checkpointing for seconds, then
// restores a rebuilt job from the newest snapshot and lets it run on.
func checkpointMeasure(in checkpointInputs, cfg Config, seconds float64, par int, tr *Tracer, res *Result) error {
	dir, err := scratch(cfg, "ckpt")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	files, err := streamline.NewFileBackend(dir)
	if err != nil {
		return err
	}
	f := gen.WarmThenSkew(cfg.Seed, in.zipf, checkpointKeys)
	box := gen.NewBox(par, -1, time.Duration(seconds*float64(time.Second)))
	backend := &timedBackend{Backend: files, box: box, tr: tr}
	sink := &sumSink{}
	root := tr.Begin("execute", -1)
	env := streamline.New(streamline.WithParallelism(par), streamline.WithCheckpointing(backend, checkpointInterval))
	checkpointPipeline(env, box, f, par, add, sink, tr, root)
	reg, execute := executor(env, tr)
	watch := watchEdges(reg, "sum", "out")
	ph := beginPhase(box.Taken, watch.sample)
	if err := execute(context.Background()); err != nil {
		return fmt.Errorf("timed run: %w", err)
	}
	st := ph.end()
	tr.End(root)

	taken := box.Taken()
	rate, err := rateAfterWarmup(st.Series, box.FirstNext(), box.LastEnd(), taken)
	if err != nil {
		return err
	}
	if len(backend.ckptMs) == 0 {
		return fmt.Errorf("no checkpoint completed in %.1f s", seconds)
	}
	res.Metrics["records_per_s"] = rate
	res.Metrics["ckpt_mean_ms"] = mean(backend.ckptMs)
	res.Metrics["ckpt_bytes"] = mean(backend.bytes)
	res.universal(st, taken)
	res.Counts["records"] = taken
	res.Counts["checkpoints"] = int64(len(backend.ckptMs))
	res.Attempted += taken
	res.fail(abs(int64(sink.total)-taken), "final sums add up to %.0f, but %d records were emitted", sink.total, taken)

	// Restore: rebuild the identical pipeline and resume from the newest
	// snapshot. The readers restore their cursors, the reduce its sums.
	called := time.Now()
	snap, ok, err := backend.Latest()
	if err != nil || !ok {
		return fmt.Errorf("load newest snapshot: ok=%v err=%v", ok, err)
	}
	box2 := gen.NewBox(par, -1, restoredSeconds*time.Second)
	sink2 := &sumSink{}
	var firstFold atomic.Int64
	env2 := streamline.New(streamline.WithParallelism(par))
	checkpointPipeline(env2, box2, f, par, restoredAdd(&firstFold), sink2, nil, -1)
	sp := tr.Begin("ExecuteRestored", -1)
	if err := env2.ExecuteRestored(context.Background(), snap); err != nil {
		return fmt.Errorf("restored run: %w", err)
	}
	tr.End(sp)
	if firstFold.Load() == 0 {
		return fmt.Errorf("restored run: no fold onto restored state in %d s", restoredSeconds)
	}
	res.Metrics["restore_s"] = time.Unix(0, firstFold.Load()).Sub(called).Seconds()
	// Conservation across the restore: what the restored job ends with is the
	// snapshot's sums plus what its readers handed over since, which is every
	// record up to their final cursors.
	final := box2.Taken()
	res.Attempted += final
	res.fail(abs(int64(sink2.total)-final), "restored job's final sums add up to %.0f, but its readers ended at %d records", sink2.total, final)
	res.Counts["restored_records"] = final

	res.Units["records"] = float64(taken)
	res.Units["generated_records"] = float64(taken)
	res.Units["combiner_records"] = float64(taken)
	res.Units["reduce_records"] = float64(taken) // refined below when the combiner's share is known
	res.Units["checkpoints"] = float64(len(backend.ckptMs))
	res.Units["state_keys"] = checkpointKeys
	res.Units["results"] = float64(sink.results)
	if reg != nil {
		regs := []*metrics.Registry{reg}
		passed := counter(regs, "node.sum.records_in")
		res.Layer["core.combiner_pass_share"] = share(passed, counter(regs, "node.gen.records_in"))
		res.Layer["dataflow.queued_batches_max"] = float64(watch.max)
		res.Layer["state.backend_persist_ms"] = mean(backend.persistMs)
		res.Layer["state.backend_load_ms"] = backend.loadMs
		res.Units["reduce_records"] = passed
		res.Units["exchange_records"] = passed
	}
	return nil
}

func runCheckpoint(cfg Config, tr *Tracer) (*Result, error) {
	res := newResult("checkpoint")
	in, setup, err := timeSetup(tr, func() (checkpointInputs, error) { return checkpointSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = setup

	vs := &sumSink{keep: map[uint64][]float64{}}
	env := streamline.New(streamline.WithParallelism(parallelism))
	checkpointPipeline(env, gen.NewBox(parallelism, verifyRecords/parallelism, 0),
		gen.WarmThenSkew(cfg.Seed, in.verifyZipf, verifyKeys), parallelism, add, vs, nil, -1)
	sp := tr.Begin("verify", -1)
	if err := env.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}
	tr.End(sp)
	d := ref.CompareSums(in.want, vs.keep)
	res.Attempted += d.Expected
	res.fail(d.Failed(), "verify pass: %d missing, %d extra, %d wrong of %d keyed sums", d.Missing, d.Extra, d.Bad, d.Expected)

	if err := checkpointMeasure(in, cfg, cfg.Seconds, parallelism, tr, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if _, err := baselines(res, cfg, func(seconds float64, par int, r *Result) error {
			return checkpointMeasure(in, cfg, seconds, par, nil, r)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
