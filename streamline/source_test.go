package streamline_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/streamline"
)

// The acceptance bar of the connector API: From with the Slice connector
// must build the exact same job graph as the untyped substrate's
// FromRecords, and compute the same sums — a typed source is a lowering, not
// a parallel code path.
func TestSliceConnectorPlanIdentity(t *testing.T) {
	items := []float64{1, 2, 3, 4, 5, 6, 7}
	typedEnv := streamline.New(streamline.WithParallelism(2))
	keyed := streamline.KeyBy(streamline.From(typedEnv, "src", streamline.Slice(items)),
		"key", func(v float64) uint64 { return uint64(v) % 2 })
	typedOut := streamline.Collect(streamline.ReduceByKey(keyed, "sum",
		func(acc, v float64) float64 { return acc + v }, false), "out")

	untypedEnv := core.NewEnvironment(core.WithParallelism(2))
	recs := make([]dataflow.Record, len(items))
	for i, v := range items {
		recs[i] = dataflow.Data(int64(i), 0, v)
	}
	untypedOut := untypedEnv.FromRecords("src", recs).
		KeyBy("key", func(r dataflow.Record) uint64 { return uint64(r.Value.(float64)) % 2 }).
		ReduceByKey("sum", func(acc, v float64) float64 { return acc + v }, false).
		Collect("out")

	typedPlan := planString(typedEnv.Core().Graph())
	untypedPlan := planString(untypedEnv.Graph())
	if typedPlan != untypedPlan {
		t.Fatalf("plans differ:\nFrom+Slice:\n%s\nFromRecords:\n%s", typedPlan, untypedPlan)
	}

	execute(t, typedEnv.Execute)
	execute(t, untypedEnv.Execute)
	got, want := map[uint64]float64{}, map[uint64]float64{}
	for _, k := range typedOut.Records() {
		got[k.Key] += k.Value
	}
	for _, r := range untypedOut.Records() {
		want[r.Key] += r.Value.(float64)
	}
	if len(got) != len(want) {
		t.Fatalf("key counts differ: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: connector %v, untyped %v", k, got[k], v)
		}
	}
}

// The Generator and Paced connectors likewise lower to the plans of the
// untyped generator sources, at the parallelism WithSourceParallelism names.
func TestGeneratorConnectorPlanIdentity(t *testing.T) {
	gen := func(sub, par int, i int64) streamline.Keyed[float64] {
		return streamline.Keyed[float64]{Ts: i, Value: float64(i)}
	}
	untypedGen := func(sub, par int, i int64) dataflow.Record { return dataflow.Data(i, 0, float64(i)) }
	typed := func(src streamline.Source[float64], par int) string {
		env := streamline.New(streamline.WithParallelism(2))
		streamline.Collect(streamline.From(env, "gen", src, streamline.WithSourceParallelism(par)), "out")
		return planString(env.Core().Graph())
	}
	untyped := func(build func(env *core.Environment) *core.Stream) string {
		env := core.NewEnvironment(core.WithParallelism(2))
		build(env).Collect("out")
		return planString(env.Graph())
	}
	if got, want := typed(streamline.Generator(100, gen), 1), untyped(func(env *core.Environment) *core.Stream {
		return env.FromGenerator("gen", 1, 100, untypedGen)
	}); got != want {
		t.Fatalf("generator plans differ:\n%s\nvs\n%s", got, want)
	}
	if got, want := typed(streamline.Paced(streamline.Generator(100, gen), 1e6), 2), untyped(func(env *core.Environment) *core.Stream {
		return env.FromPacedGenerator("gen", 2, 100, 1e6, untypedGen)
	}); got != want {
		t.Fatalf("paced plans differ:\n%s\nvs\n%s", got, want)
	}
}

func TestChannelConnectorEndToEnd(t *testing.T) {
	ch := make(chan streamline.Keyed[float64])
	go func() {
		for i := 0; i < 50; i++ {
			ch <- streamline.Keyed[float64]{Ts: int64(i), Value: float64(i)}
		}
		close(ch)
	}()
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "live", streamline.Channel(ch))
	keyed := streamline.KeyBy(src, "key", func(v float64) uint64 { return uint64(v) % 3 })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(sums, "out")
	execute(t, env.Execute)

	got := map[uint64]float64{}
	for _, k := range out.Records() {
		got[k.Key] += k.Value
	}
	want := map[uint64]float64{}
	for i := 0; i < 50; i++ {
		want[uint64(i%3)] += float64(i)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d = %v, want %v", k, got[k], w)
		}
	}
}

// event is the element type of the file/hybrid tests.
type event struct {
	TsMs  int64   `json:"ts"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func writeJSONL(t *testing.T, events []event) string {
	t.Helper()
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "{\"ts\":%d,\"name\":%q,\"value\":%g}\n", e.TsMs, e.Name, e.Value)
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mkEvents(n int, startTs int64) []event {
	events := make([]event, n)
	for i := range events {
		events[i] = event{TsMs: startTs + int64(i), Name: fmt.Sprintf("s%d", i%3), Value: 1}
	}
	return events
}

func TestJSONLConnectorWithTimestamps(t *testing.T) {
	events := mkEvents(200, 1000)
	path := writeJSONL(t, events)

	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "history", streamline.JSONL[event](path),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
	keyed := streamline.KeyByString(src, "name", func(e event) string { return e.Name })
	vals := streamline.Map(keyed, "value", func(e event) float64 { return e.Value })
	win := streamline.WindowAggregate(vals, "count-100ms",
		streamline.Query(streamline.Tumbling(100), streamline.Count()))
	out := streamline.Collect(win, "out")
	execute(t, env.Execute)

	total := int64(0)
	for _, k := range out.Records() {
		if k.Value.Start < 1000 || k.Value.End > 1200 {
			t.Fatalf("window [%d,%d) outside the extracted event-time range", k.Value.Start, k.Value.End)
		}
		total += k.Value.Count
	}
	if total != 200 {
		t.Fatalf("windows cover %d events, want 200", total)
	}
}

func TestCSVConnectorParsesRows(t *testing.T) {
	content := "name,value\na,1\nb,2\na,3\nb,4\n"
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name  string
		value float64
	}
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "csv", streamline.CSV(path, true, func(r []string) (row, error) {
		var v float64
		if _, err := fmt.Sscanf(r[1], "%g", &v); err != nil {
			return row{}, err
		}
		return row{name: r[0], value: v}, nil
	}))
	keyed := streamline.KeyByString(src, "name", func(r row) string { return r.name })
	vals := streamline.Map(keyed, "value", func(r row) float64 { return r.value })
	sums := streamline.ReduceByKey(vals, "sum", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(sums, "out")
	execute(t, env.Execute)

	got := map[uint64]float64{}
	for _, k := range out.Records() {
		got[k.Key] += k.Value
	}
	if got[streamline.KeyOf("a")] != 4 || got[streamline.KeyOf("b")] != 6 {
		t.Fatalf("sums = %v, want a=4 b=6", got)
	}
}

func TestCSVConnectorParseErrorFailsExecute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte("1\nnot-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "csv", streamline.CSV(path, false, func(r []string) (float64, error) {
		var v float64
		_, err := fmt.Sscanf(r[0], "%g", &v)
		return v, err
	}))
	streamline.Sink(src, "out", func(streamline.Keyed[float64]) {})
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("parse error must fail Execute")
	}
}

func TestWithTimestampsTypeMismatchFailsBuild(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "src", streamline.Slice([]string{"a", "b"}),
		streamline.WithTimestamps(func(v float64) int64 { return int64(v) })) // wrong element type
	streamline.Sink(src, "out", func(streamline.Keyed[string]) {})
	err := env.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "WithTimestamps") {
		t.Fatalf("Execute error = %v, want a WithTimestamps type mismatch", err)
	}
}

// windowKey dedups window results for the hybrid equivalence tests.
type windowKey struct {
	key   uint64
	query int
	start int64
}

func collectWindows(res *streamline.Results[streamline.WindowResult]) map[windowKey]float64 {
	out := map[windowKey]float64{}
	for _, k := range res.Records() {
		out[windowKey{key: k.Key, query: k.Value.QueryID, start: k.Value.Start}] = k.Value.Value
	}
	return out
}

// buildHybridPipeline assembles the paper's headline scenario: a windowed
// aggregation over a source that replays JSONL history and continues on a
// live channel.
func buildHybridPipeline(env *streamline.Env, src *streamline.Stream[event]) *streamline.Results[streamline.WindowResult] {
	keyed := streamline.KeyByString(src, "name", func(e event) string { return e.Name })
	vals := streamline.Map(keyed, "value", func(e event) float64 { return e.Value })
	win := streamline.WindowAggregate(vals, "sum-50ms",
		streamline.Query(streamline.Tumbling(50), streamline.Sum()))
	return streamline.Collect(win, "out")
}

// feedLive pushes the live tail into a channel and closes it.
func feedLive(events []event) <-chan streamline.Keyed[event] {
	ch := make(chan streamline.Keyed[event], len(events))
	for _, e := range events {
		ch <- streamline.Keyed[event]{Ts: e.TsMs, Value: e}
	}
	close(ch)
	return ch
}

// The hybrid acceptance test: history file → live channel must produce the
// same windows as the equivalent single-source run over the concatenation.
func TestHybridFileThenChannelMatchesSingleSource(t *testing.T) {
	// Event timestamps deliberately do not equal file line indices, so the
	// handoff watermark must come from the extracted event time.
	history := mkEvents(400, 5000) // ts 5000..5399
	live := mkEvents(200, 5400)    // ts 5400..5599
	all := append(append([]event{}, history...), live...)
	path := writeJSONL(t, history)

	// Reference: one bounded source over the concatenation.
	refEnv := streamline.New(streamline.WithParallelism(2))
	refOut := buildHybridPipeline(refEnv, streamline.From(refEnv, "events",
		streamline.Slice(all), streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs })))
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	// Hybrid: replay the JSONL history, hand off to the live channel.
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "events",
		streamline.Hybrid(streamline.JSONL[event](path), streamline.Channel(feedLive(live))),
		streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
	out := buildHybridPipeline(env, src)
	execute(t, env.Execute)
	got := collectWindows(out)

	if len(got) != len(want) {
		t.Fatalf("hybrid produced %d windows, single-source %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v", k, got[k], v)
		}
	}
}

// The recovery acceptance test: kill the hybrid pipeline during the history
// replay, restore from the last checkpoint, continue across the handoff
// into the live channel — deduplicated windows must match the reference.
func TestHybridCheckpointRestoreMidHandoff(t *testing.T) {
	history := mkEvents(3000, 5000) // ts 5000..7999 (≠ line indices)
	live := mkEvents(600, 8000)     // ts 8000..8599
	all := append(append([]event{}, history...), live...)
	path := writeJSONL(t, history)

	refEnv := streamline.New(streamline.WithParallelism(2))
	refOut := buildHybridPipeline(refEnv, streamline.From(refEnv, "events",
		streamline.Slice(all), streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs })))
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)

	build := func(paceHistory float64, liveCh <-chan streamline.Keyed[event], backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(streamline.WithParallelism(2),
			streamline.WithCheckpointing(backend, 15*time.Millisecond))
		var hist streamline.Source[event] = streamline.JSONL[event](path)
		if paceHistory > 0 {
			hist = streamline.Paced(hist, paceHistory)
		}
		src := streamline.From(env, "events",
			streamline.Hybrid(hist, streamline.Channel(liveCh)),
			streamline.WithSourceParallelism(1),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		return env, buildHybridPipeline(env, src)
	}

	// Crash run: pace the history so the kill lands mid-replay, before the
	// handoff. The live channel stays untouched.
	backend := streamline.NewMemoryBackend(0)
	crashCh := make(chan streamline.Keyed[event]) // never fed; the kill hits during history
	crashEnv, crashOut := build(20_000, crashCh, backend)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	err := crashEnv.Execute(ctx)
	cancel()
	close(crashCh)
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before kill")
	}

	// Recovery run: rebuild the identical pipeline (fresh channel carrying
	// the live tail), resume from the snapshot, run through the handoff.
	// Windows that fired before the checkpoint live in the crash run's
	// sink; replays overwrite idempotently (same key, same value).
	recEnv, recOut := build(0, feedLive(live), streamline.NewMemoryBackend(0))
	recCtx, recCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer recCancel()
	if err := recEnv.ExecuteRestored(recCtx, snap); err != nil {
		t.Fatalf("restored run failed: %v", err)
	}
	got := collectWindows(crashOut)
	for k, v := range collectWindows(recOut) {
		got[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("restored run produced %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v (exactly-once across the handoff)", k, got[k], v)
		}
	}
}

// A splittable JSONL scan at source parallelism 4 must produce exactly the
// records of the parallelism-1 scan: the shared split queue partitions the
// file, no line lost or duplicated, at every split size.
func TestJSONLSplitScanMatchesSingleSubtask(t *testing.T) {
	events := mkEvents(500, 1000)
	path := writeJSONL(t, events)
	counts := func(par int, opts ...streamline.FileOption) map[uint64]float64 {
		t.Helper()
		env := streamline.New(streamline.WithParallelism(2))
		src := streamline.From(env, "history", streamline.JSONL[event](path, opts...),
			streamline.WithSourceParallelism(par),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		keyed := streamline.KeyByString(src, "name", func(e event) string { return e.Name })
		vals := streamline.Map(keyed, "value", func(e event) float64 { return e.Value })
		sums := streamline.ReduceByKey(vals, "sum", func(acc, v float64) float64 { return acc + v }, false)
		out := streamline.Collect(sums, "out")
		execute(t, env.Execute)
		got := map[uint64]float64{}
		for _, k := range out.Records() {
			got[k.Key] += k.Value
		}
		return got
	}
	want := counts(1)
	for _, splitSize := range []int64{512, 2048} {
		got := counts(4, streamline.WithSplitSize(splitSize))
		if len(got) != len(want) {
			t.Fatalf("splitSize %d: %d keys, want %d", splitSize, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("splitSize %d: key %d = %v, want %v", splitSize, k, got[k], w)
			}
		}
	}
}

// One connector value is reusable: two environments running concurrently
// off the same JSONL source each get their own scan plan (From's per-stage
// slot), so neither job loses records to the other's split consumption.
func TestFileConnectorReusableAcrossEnvironments(t *testing.T) {
	events := mkEvents(300, 1000)
	path := writeJSONL(t, events)
	src := streamline.JSONL[event](path, streamline.WithSplitSize(512))

	type result struct {
		n   int64
		err error
	}
	run := func(out chan<- result) {
		env := streamline.New(streamline.WithParallelism(2))
		s := streamline.From(env, "history", src, streamline.WithSourceParallelism(2),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		col := streamline.Collect(s, "out")
		err := env.Execute(context.Background())
		out <- result{n: int64(len(col.Records())), err: err}
	}
	results := make(chan result, 2)
	go run(results)
	go run(results)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.n != 300 {
			t.Fatalf("a concurrent execution saw %d of 300 records (scan plans bled across environments)", r.n)
		}
	}
}

// The at-scale hybrid scenario: JSONL history replayed at source parallelism
// 4 with splits in flight, killed mid-history, recovered at source
// parallelism 2 — pending splits redistribute, the handoff still happens
// exactly once, and the deduplicated windows equal the single-source
// reference.
func TestHybridScaledKillRecoverAtDifferentParallelism(t *testing.T) {
	history := mkEvents(4000, 5000) // ts 5000..8999
	live := mkEvents(800, 9000)     // ts 9000..9799
	all := append(append([]event{}, history...), live...)
	path := writeJSONL(t, history)

	refEnv := streamline.New(streamline.WithParallelism(2))
	refOut := buildHybridPipeline(refEnv, streamline.From(refEnv, "events",
		streamline.Slice(all), streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs })))
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	build := func(srcPar int, paceHistory float64, liveCh <-chan streamline.Keyed[event], backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(streamline.WithParallelism(2),
			streamline.WithCheckpointing(backend, 15*time.Millisecond))
		var hist streamline.Source[event] = streamline.JSONL[event](path, streamline.WithSplitSize(4096))
		if paceHistory > 0 {
			hist = streamline.Paced(hist, paceHistory)
		}
		src := streamline.From(env, "events",
			streamline.Hybrid(hist, streamline.Channel(liveCh)),
			streamline.WithSourceParallelism(srcPar),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		return env, buildHybridPipeline(env, src)
	}

	// Crash run: source parallelism 4, paced so the kill lands with splits
	// in flight across the subtasks.
	backend := streamline.NewMemoryBackend(0)
	crashCh := make(chan streamline.Keyed[event]) // never fed; the kill hits during history
	crashEnv, crashOut := build(4, 8_000, crashCh, backend)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	err := crashEnv.Execute(ctx)
	cancel()
	close(crashCh)
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before kill")
	}

	// Recovery at source parallelism 2: the remaining splits redistribute
	// across the smaller stage, the handoff crosses exactly once, and the
	// live tail flows.
	recEnv, recOut := build(2, 0, feedLive(live), streamline.NewMemoryBackend(0))
	recCtx, recCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer recCancel()
	if err := recEnv.ExecuteRestored(recCtx, snap); err != nil {
		t.Fatalf("restored run at source parallelism 2 failed: %v", err)
	}
	got := collectWindows(crashOut)
	for k, v := range collectWindows(recOut) {
		got[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("restored run produced %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v (exactly-once across the split reassignment)", k, got[k], v)
		}
	}
}

// The handoff watermark must fire history windows without waiting for the
// live phase to end: with the live channel held open, every window closed by
// the stage-wide history maximum (5399) eventually fires, and every one of
// them matches the reference. The single-split case is the trap this
// guards: one subtask scans the whole history and the other three cross the
// handoff having seen nothing — their event time must follow the stage
// clock instead of pinning the job at -inf.
func TestHybridHandoffWatermarkFiresHistoryWindows(t *testing.T) {
	history := mkEvents(400, 5000) // ts 5000..5399
	all := append([]event{}, history...)
	path := writeJSONL(t, history)

	refEnv := streamline.New(streamline.WithParallelism(2))
	refOut := buildHybridPipeline(refEnv, streamline.From(refEnv, "events",
		streamline.Slice(all), streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs })))
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)
	fireable := 0 // windows fully closed by the history max watermark
	for k := range want {
		if k.start+50 <= 5399 {
			fireable++
		}
	}
	if fireable == 0 {
		t.Fatalf("no fireable windows in the reference")
	}

	for name, splitSize := range map[string]int64{
		"many-splits":  1024,                        // splits outnumber the subtasks
		"single-split": streamline.DefaultSplitSize, // one subtask gets the whole history
	} {
		t.Run(name, func(t *testing.T) {
			live := make(chan streamline.Keyed[event]) // stays open: no end-of-stream close-out
			env := streamline.New(streamline.WithParallelism(2))
			src := streamline.From(env, "events",
				streamline.Hybrid(streamline.JSONL[event](path, streamline.WithSplitSize(splitSize)), streamline.Channel(live)),
				streamline.WithSourceParallelism(4),
				streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
			out := buildHybridPipeline(env, src)

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- env.Execute(ctx) }()
			deadline := time.After(30 * time.Second)
			for len(collectWindows(out)) < fireable {
				select {
				case err := <-done:
					t.Fatalf("job ended with %d/%d windows fired: %v", len(collectWindows(out)), fireable, err)
				case <-deadline:
					t.Fatalf("only %d of %d history windows fired from the handoff watermark within 30s", len(collectWindows(out)), fireable)
				case <-time.After(5 * time.Millisecond):
				}
			}
			cancel()
			<-done
			close(live)
			for k, v := range collectWindows(out) {
				w, ok := want[k]
				if !ok || w != v {
					t.Fatalf("handoff-fired window %+v = %v, want %v", k, v, w)
				}
			}
		})
	}
}

// Sanity: the legacy wrappers still produce working pipelines (they are
// deprecated, not removed).
func TestDeprecatedWrappersStillWork(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(1))
	nums := streamline.From(env, "src", streamline.Slice([]float64{3, 1, 2}))
	out := streamline.Collect(nums, "out")
	execute(t, env.Execute)
	var vals []float64
	for _, k := range out.Records() {
		vals = append(vals, k.Value)
	}
	sort.Float64s(vals)
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}

// A Channel connector passed straight to From must default to a single
// subtask (ParallelismHinter): at the environment default parallelism,
// subtasks would split the shared channel and a subtask that never receives
// a record would pin downstream event time at -inf. Decorating connectors
// forward the hint; an explicit WithSourceParallelism always wins.
func TestChannelConnectorHintsSingleSubtask(t *testing.T) {
	ch := make(chan streamline.Keyed[float64])
	srcParallelism := func(name string, build func(env *streamline.Env) *streamline.Stream[float64]) int {
		t.Helper()
		env := streamline.New(streamline.WithParallelism(4))
		src := build(env)
		streamline.Sink(src, "out", func(streamline.Keyed[float64]) {})
		for _, n := range env.Core().Graph().Nodes() {
			if n.Name == name {
				return n.Parallelism
			}
		}
		t.Fatalf("source node %q not in plan", name)
		return 0
	}

	if p := srcParallelism("chan", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "chan", streamline.Channel(ch))
	}); p != 1 {
		t.Fatalf("Channel via From runs at parallelism %d, want 1", p)
	}
	// Hybrid takes its hint from the history phase (the part that must
	// scale), not the live channel: Slice has no hint, so the stage runs at
	// the environment default — the implicit parallelism-1 behavior is gone.
	if p := srcParallelism("hybrid", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "hybrid", streamline.Hybrid(streamline.Slice([]float64{1, 2}), streamline.Channel(ch)))
	}); p != 4 {
		t.Fatalf("Hybrid parallelism = %d, want the env default 4 (history has no hint)", p)
	}
	if p := srcParallelism("paced", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "paced", streamline.Paced(streamline.Channel(ch), 100))
	}); p != 1 {
		t.Fatalf("Paced Channel runs at parallelism %d, want 1", p)
	}
	if p := srcParallelism("chan3", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "chan3", streamline.Channel(ch), streamline.WithSourceParallelism(3))
	}); p != 3 {
		t.Fatalf("explicit WithSourceParallelism gives %d, want 3", p)
	}
	if p := srcParallelism("chan0", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "chan0", streamline.Channel(ch), streamline.WithSourceParallelism(0))
	}); p != 4 {
		t.Fatalf("explicit WithSourceParallelism(0) gives %d, want the env default 4 over the hint", p)
	}
	if p := srcParallelism("slice", func(env *streamline.Env) *streamline.Stream[float64] {
		return streamline.From(env, "slice", streamline.Slice([]float64{1, 2}))
	}); p != 4 {
		t.Fatalf("hint-free Slice runs at parallelism %d, want the env default 4", p)
	}
}

// A history that fails mid-replay must fail Execute instead of handing off
// to the live channel: with an unbounded live phase the job would otherwise
// run forever over a silently truncated history, the error parked in Err.
func TestHybridCorruptHistoryFailsExecute(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(path, []byte("{\"ts\":1,\"name\":\"a\",\"value\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	live := make(chan streamline.Keyed[event]) // never fed, never closed

	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "hybrid",
		streamline.Hybrid(streamline.JSONL[event](path), streamline.Channel(live)))
	streamline.Sink(src, "out", func(streamline.Keyed[event]) {})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := env.Execute(ctx)
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("Execute = %v, want the history decode error surfaced", err)
	}
}
