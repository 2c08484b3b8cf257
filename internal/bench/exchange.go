package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/streamline"
)

// The exchange benchmark records the batched-exchange perf trajectory: the
// same two pipelines — a bounded slice wordcount (data at rest) and an
// unbounded channel pipeline drained to completion (data in motion) — run
// with per-record exchange (batch size 1) and with the default pooled
// batches, and the records/sec ratio is the measured win of vectorizing the
// data plane. Results are written to BENCH_exchange.json by
// `streamline-bench -exchange`.

// ExchangeRun is one (pipeline, batch size) measurement. The allocation
// columns (heap allocations and bytes per record, from runtime.MemStats
// deltas around the run) record the boxing/staging trajectory alongside
// throughput.
type ExchangeRun struct {
	Pipeline        string  `json:"pipeline"`
	BatchSize       int     `json:"batch_size"`
	Records         int64   `json:"records"`
	Seconds         float64 `json:"seconds"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
}

// ExchangeReport is the full suite: every run plus the default-vs-1 speedup
// per pipeline.
type ExchangeReport struct {
	DefaultBatchSize int                `json:"default_batch_size"`
	Runs             []ExchangeRun      `json:"runs"`
	Speedup          map[string]float64 `json:"speedup"`
}

// memDelta runs f between two MemStats readings and returns the heap
// allocation deltas (count and bytes). A GC first settles the baseline so
// leftover garbage from pipeline construction is not attributed to f.
func memDelta(f func() error) (mallocs, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, nil
}

// exchangeVocab is the word list the wordcount corpus cycles through.
var exchangeVocab = []string{
	"stream", "line", "data", "at", "rest", "in", "motion", "window",
	"watermark", "barrier", "batch", "exchange", "pipeline", "operator",
	"key", "shuffle", "record", "engine", "snapshot", "source",
}

// ExchangeWordcount runs the bounded wordcount: a slice of n words keyed by
// word, counted per key behind a hash shuffle. The combiner is disabled so
// every record crosses the exchange — the path under measurement.
func ExchangeWordcount(n int64, batchSize int) (ExchangeRun, error) {
	words := make([]string, n)
	for i := range words {
		words[i] = exchangeVocab[i%len(exchangeVocab)]
	}
	env := streamline.New(
		streamline.WithParallelism(2),
		streamline.WithCombiner(streamline.CombinerOff),
		streamline.WithBatchSize(batchSize),
	)
	src := streamline.From(env, "words", streamline.Slice(words),
		streamline.WithSourceParallelism(2))
	keyed := streamline.KeyByString(src, "word", func(w string) string { return w })
	ones := streamline.Map(keyed, "one", func(string) float64 { return 1 })
	counts := streamline.ReduceByKey(ones, "count", func(acc, v float64) float64 { return acc + v }, false)
	streamline.Sink(counts, "out", func(streamline.Keyed[float64]) {})
	start := time.Now()
	mallocs, bytes, err := memDelta(func() error { return env.Execute(context.Background()) })
	if err != nil {
		return ExchangeRun{}, fmt.Errorf("wordcount batch=%d: %w", batchSize, err)
	}
	el := time.Since(start).Seconds()
	return ExchangeRun{
		Pipeline: "wordcount", BatchSize: batchSize, Records: n,
		Seconds: el, RecordsPerSec: float64(n) / el,
		AllocsPerRecord: float64(mallocs) / float64(n),
		BytesPerRecord:  float64(bytes) / float64(n),
	}, nil
}

// ExchangeChannel runs the in-motion pipeline: two producer goroutines push
// n records into live channels, and the job merges the feeds (a rebalance
// exchange) into a keyed sum behind a hash shuffle until both close — every
// record crosses two subtask boundaries.
func ExchangeChannel(n int64, batchSize int) (ExchangeRun, error) {
	feed := func(count int64) chan streamline.Keyed[float64] {
		c := make(chan streamline.Keyed[float64], 4096)
		go func() {
			defer close(c)
			for i := int64(0); i < count; i++ {
				c <- streamline.Keyed[float64]{Ts: i, Key: uint64(i % 256), Value: 1}
			}
		}()
		return c
	}
	env := streamline.New(
		streamline.WithParallelism(2),
		streamline.WithCombiner(streamline.CombinerOff),
		streamline.WithBatchSize(batchSize),
	)
	a := streamline.From(env, "live-a", streamline.Channel(feed(n/2)))
	b := streamline.From(env, "live-b", streamline.Channel(feed(n-n/2)))
	merged := streamline.Union(a, "merge", b)
	keyed := streamline.KeyByRecord(merged, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	streamline.Sink(sums, "out", func(streamline.Keyed[float64]) {})
	start := time.Now()
	mallocs, bytes, err := memDelta(func() error { return env.Execute(context.Background()) })
	if err != nil {
		return ExchangeRun{}, fmt.Errorf("channel batch=%d: %w", batchSize, err)
	}
	el := time.Since(start).Seconds()
	return ExchangeRun{
		Pipeline: "channel", BatchSize: batchSize, Records: n,
		Seconds: el, RecordsPerSec: float64(n) / el,
		AllocsPerRecord: float64(mallocs) / float64(n),
		BytesPerRecord:  float64(bytes) / float64(n),
	}, nil
}

// Exchange workload sizes, shared with the BenchmarkExchange harness so the
// CI smoke run measures exactly the quick-mode workload recorded in
// BENCH_exchange.json.
const (
	ExchangeWords      int64 = 600_000
	ExchangeLive       int64 = 400_000
	ExchangeQuickWords int64 = 150_000
	ExchangeQuickLive  int64 = 100_000
)

// Exchange runs the exchange benchmark suite: both pipelines at batch size 1
// and at the default batch size.
func Exchange(quick bool) (*ExchangeReport, error) {
	nWords, nLive := ExchangeWords, ExchangeLive
	if quick {
		nWords, nLive = ExchangeQuickWords, ExchangeQuickLive
	}
	rep := &ExchangeReport{
		DefaultBatchSize: streamline.DefaultBatchSize,
		Speedup:          map[string]float64{},
	}
	base := map[string]float64{}
	for _, bs := range []int{1, streamline.DefaultBatchSize} {
		wc, err := ExchangeWordcount(nWords, bs)
		if err != nil {
			return nil, err
		}
		live, err := ExchangeChannel(nLive, bs)
		if err != nil {
			return nil, err
		}
		for _, r := range []ExchangeRun{wc, live} {
			rep.Runs = append(rep.Runs, r)
			if bs == 1 {
				base[r.Pipeline] = r.RecordsPerSec
			} else if b := base[r.Pipeline]; b > 0 {
				rep.Speedup[r.Pipeline] = r.RecordsPerSec / b
			}
		}
	}
	return rep, nil
}

// Table renders the report in the experiment-table format.
func (r *ExchangeReport) Table() *Table {
	t := &Table{
		ID:     "EXCHANGE",
		Title:  "vectorized exchange: pooled record batches vs per-record hops",
		Claim:  "\"as fast as the hardware allows\" — batch the hottest path",
		Header: []string{"pipeline", "batch size", "records", "runtime", "throughput", "allocs/rec", "bytes/rec"},
	}
	for _, run := range r.Runs {
		t.Add(run.Pipeline, fmt.Sprintf("%d", run.BatchSize), fmtCount(float64(run.Records)),
			fmt.Sprintf("%.3fs", run.Seconds), fmtRate(run.RecordsPerSec),
			fmt.Sprintf("%.2f", run.AllocsPerRecord), fmt.Sprintf("%.1f", run.BytesPerRecord))
	}
	for name, s := range r.Speedup {
		t.Note("%s: %.2fx records/sec at batch size %d over batch size 1", name, s, r.DefaultBatchSize)
	}
	return t
}

// WriteJSON records the report (the perf trajectory file BENCH_exchange.json).
func (r *ExchangeReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
