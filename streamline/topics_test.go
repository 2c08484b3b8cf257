package streamline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/streamline"
)

// openTopicStore opens a store under a test temp dir with small segments so
// even modest histories span several segments (and several splits).
func openTopicStore(t testing.TB, opts ...streamline.TopicStoreOption) *streamline.TopicStore {
	t.Helper()
	store, err := streamline.OpenTopicStore(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// persistEvents runs a bounded pipeline appending events to a topic.
func persistEvents(t *testing.T, store *streamline.TopicStore, topic string, events []event) {
	t.Helper()
	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "events", streamline.Slice(events),
		streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
	streamline.Persist(src, store, topic)
	execute(t, env.Execute)
}

// waitForRecords blocks until a running job has collected n records, failing
// the test if the job ends or 30s pass first.
func waitForRecords(t *testing.T, out *streamline.Results[event], done <-chan error, n int) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for len(out.Records()) < n {
		select {
		case err := <-done:
			t.Fatalf("job ended with %d/%d records: %v", len(out.Records()), n, err)
		case <-deadline:
			t.Fatalf("only %d of %d records arrived within 30s", len(out.Records()), n)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// assertEventsExactlyOnce checks got against want by the unique TsMs of
// mkEvents-generated inputs: every event once, none invented.
func assertEventsExactlyOnce(t *testing.T, got []streamline.Keyed[event], want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	byTs := map[int64]event{}
	for _, e := range want {
		byTs[e.TsMs] = e
	}
	seen := map[int64]bool{}
	for _, k := range got {
		e, ok := byTs[k.Value.TsMs]
		if !ok {
			t.Fatalf("unexpected event ts %d", k.Value.TsMs)
		}
		if seen[k.Value.TsMs] {
			t.Fatalf("event ts %d read twice", k.Value.TsMs)
		}
		seen[k.Value.TsMs] = true
		if k.Ts != e.TsMs || k.Value.Name != e.Name || k.Value.Value != e.Value {
			t.Fatalf("event ts %d replayed as %+v (record ts %d), want %+v", e.TsMs, k.Value, k.Ts, e)
		}
	}
}

// Persist → Topic round trip: events written by one job replay exactly-once
// through another, with their stored event timestamps, at source parallelism
// 1 and 4 across multiple segments and byte-range splits.
func TestPersistTopicRoundTrip(t *testing.T) {
	store := openTopicStore(t, streamline.WithSegmentBytes(4<<10))
	events := mkEvents(500, 1000)
	persistEvents(t, store, "events", events)

	if names, err := store.Topics(); err != nil || len(names) != 1 || names[0] != "events" {
		t.Fatalf("Topics() = %v, %v; want [events]", names, err)
	}
	for _, par := range []int{1, 4} {
		env := streamline.New(streamline.WithParallelism(2))
		src := streamline.From(env, "replay",
			streamline.Topic[event](store, "events", streamline.WithSplitSize(1024)),
			streamline.WithSourceParallelism(par))
		out := streamline.Collect(src, "out")
		execute(t, env.Execute)
		assertEventsExactlyOnce(t, out.Records(), events)
	}
}

// A Persist that loses records must fail the job even when nothing
// checkpoints: the store is closed underneath the sink once it has written
// its first record, every later append fails, and Execute has to say so.
func TestPersistFailureFailsUncheckpointedJob(t *testing.T) {
	store := openTopicStore(t)
	topic, err := store.Store().Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan streamline.Keyed[event])
	env := streamline.New(streamline.WithParallelism(1))
	streamline.Persist(streamline.From(env, "chan", streamline.Channel(ch)), store, "events")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- env.Execute(ctx) }()
	send := func(e event) {
		select {
		case ch <- streamline.Keyed[event]{Ts: e.TsMs, Value: e}:
		case err := <-done:
			t.Fatalf("job ended before the store was closed: %v", err)
		}
	}
	events := mkEvents(20, 1000)
	send(events[0])
	for topic.NextOffset() == 0 {
		select {
		case err := <-done:
			t.Fatalf("job ended before its first append: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	store.Close()
	for _, e := range events[1:] {
		send(e)
	}
	close(ch)
	if err := <-done; err == nil || !strings.Contains(err.Error(), `persist "events"`) {
		t.Fatalf("Execute = %v, want the persist failure", err)
	}
}

// The paper's bootstrap scenario served from the engine's own store:
// Hybrid(Topic, Channel) must produce the same windows as a single source
// over the concatenation, with the handoff watermark derived from the
// persisted history's max event time.
func TestTopicHybridMatchesSingleSource(t *testing.T) {
	history := mkEvents(400, 5000) // ts 5000..5399
	live := mkEvents(200, 5400)    // ts 5400..5599
	all := append(append([]event{}, history...), live...)

	store := openTopicStore(t, streamline.WithSegmentBytes(4<<10))
	persistEvents(t, store, "history", history)

	refEnv := streamline.New(streamline.WithParallelism(2))
	refOut := buildHybridPipeline(refEnv, streamline.From(refEnv, "events",
		streamline.Slice(all), streamline.WithSourceParallelism(1),
		streamline.WithTimestamps(func(e event) int64 { return e.TsMs })))
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "events",
		streamline.Hybrid(
			streamline.Topic[event](store, "history", streamline.WithSplitSize(1024)),
			streamline.Channel(feedLive(live))),
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

// The recovery acceptance test of the issue: Hybrid(Topic, Channel) killed
// mid-history at source parallelism 4, restored at source parallelism 2 —
// the topic's pending splits redistribute, the handoff crosses exactly once,
// and the deduplicated windows equal the single-source reference.
func TestTopicHybridKillRecoverAtDifferentParallelism(t *testing.T) {
	history := mkEvents(4000, 5000) // ts 5000..8999
	live := mkEvents(800, 9000)     // ts 9000..9799
	all := append(append([]event{}, history...), live...)

	store := openTopicStore(t, streamline.WithSegmentBytes(16<<10))
	persistEvents(t, store, "history", history)

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
		var hist streamline.Source[event] = streamline.Topic[event](store, "history", streamline.WithSplitSize(4096))
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

	// Recovery at source parallelism 2.
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

// The no-double-append contract: a Persist job killed mid-stream and resumed
// from its checkpoint must leave each input event in the topic exactly once —
// the restore truncates whatever the crash run appended past the
// checkpointed high-water offset before the replayed records arrive.
func TestPersistCheckpointRestoreNoDoubleAppend(t *testing.T) {
	store := openTopicStore(t, streamline.WithSegmentBytes(8<<10))
	events := mkEvents(3000, 1000)

	build := func(pace float64, backend streamline.Backend) *streamline.Env {
		env := streamline.New(streamline.WithParallelism(2),
			streamline.WithCheckpointing(backend, 15*time.Millisecond))
		var src streamline.Source[event] = streamline.Slice(events)
		if pace > 0 {
			src = streamline.Paced(src, pace)
		}
		s := streamline.From(env, "events", src,
			streamline.WithSourceParallelism(1),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		streamline.Persist(s, store, "out")
		return env
	}

	backend := streamline.NewMemoryBackend(0)
	crashEnv := build(20_000, backend)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	err := crashEnv.Execute(ctx)
	cancel()
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before kill")
	}

	recEnv := build(0, streamline.NewMemoryBackend(0))
	recCtx, recCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer recCancel()
	if err := recEnv.ExecuteRestored(recCtx, snap); err != nil {
		t.Fatalf("restored run failed: %v", err)
	}

	// Read the topic back: every event exactly once despite the crash run
	// appending past its last checkpoint.
	readEnv := streamline.New(streamline.WithParallelism(2))
	replay := streamline.From(readEnv, "replay", streamline.Topic[event](store, "out"),
		streamline.WithSourceParallelism(2))
	out := streamline.Collect(replay, "out")
	execute(t, readEnv.Execute)
	assertEventsExactlyOnce(t, out.Records(), events)
}

// Follow mode: the source replays the history frozen at job start, then
// tails appends made while the job is running.
func TestTopicFollowTailsNewAppends(t *testing.T) {
	store := openTopicStore(t, streamline.WithSegmentBytes(4<<10))
	history := mkEvents(50, 1000)
	persistEvents(t, store, "events", history)

	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "follow",
		streamline.Topic[event](store, "events", streamline.WithFollow()))
	out := streamline.Collect(src, "out")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- env.Execute(ctx) }()

	waitFor := func(n int) { t.Helper(); waitForRecords(t, out, done, n) }
	waitFor(len(history))

	// Append the live tail directly to the topic while the job runs.
	live := mkEvents(30, 2000)
	tp, err := store.Store().Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range live {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tp.Append(e.TsMs, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(len(history) + len(live))

	cancel()
	<-done
	assertEventsExactlyOnce(t, out.Records(), append(append([]event{}, history...), live...))
}

// Follow mode is a single ordered tail: a stage forced to higher source
// parallelism must fail the job instead of emitting duplicates.
func TestTopicFollowRejectsHigherParallelism(t *testing.T) {
	store := openTopicStore(t)
	persistEvents(t, store, "events", mkEvents(10, 1000))

	env := streamline.New(streamline.WithParallelism(2))
	src := streamline.From(env, "follow",
		streamline.Topic[event](store, "events", streamline.WithFollow()),
		streamline.WithSourceParallelism(2))
	streamline.Sink(src, "out", func(streamline.Keyed[event]) {})
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("follow mode at source parallelism 2 must fail Execute")
	}
}

// A fresh (non-restored) Persist run appends after the topic's existing
// records rather than truncating them: exactly-once is a property of a
// checkpoint lineage, not of topic contents.
func TestPersistFreshRunAppends(t *testing.T) {
	store := openTopicStore(t)
	first := mkEvents(20, 1000)
	second := mkEvents(20, 2000)
	persistEvents(t, store, "events", first)
	persistEvents(t, store, "events", second)

	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "replay", streamline.Topic[event](store, "events"))
	out := streamline.Collect(src, "out")
	execute(t, env.Execute)
	assertEventsExactlyOnce(t, out.Records(), append(append([]event{}, first...), second...))
}

// Topic metrics: the store's registry carries per-topic append and scan
// series under "topic.<name>.".
func TestTopicStoreMetrics(t *testing.T) {
	store := openTopicStore(t)
	events := mkEvents(40, 1000)
	persistEvents(t, store, "m", events)

	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "replay", streamline.Topic[event](store, "m"))
	streamline.Sink(src, "out", func(streamline.Keyed[event]) {})
	execute(t, env.Execute)

	for _, name := range []string{"topic.m.appended_records", "topic.m.scanned_records"} {
		if v := store.Metrics().Counter(name).Value(); v < int64(len(events)) {
			t.Fatalf("metric %s = %d, want >= %d", name, v, len(events))
		}
	}
}

// mixedPayloads are JSON documents for event as any writer might have
// appended them: some the compiled decode plan takes, some it refuses and
// hands to encoding/json — an escaped string, a case-folded key, an extra
// field, a null. A reader must not be able to tell the difference.
var mixedPayloads = []string{
	`{"ts":1,"name":"plain","value":1.5}`,
	`{"ts":2,"name":"esc\"apedé","value":2}`,
	`{"TS":3,"Name":"folded","VALUE":3}`,
	`{"ts":4,"name":"extra","value":4,"unit":"ms","tags":["a",{"b":null}]}`,
	`{"ts":5,"name":null,"value":5}`,
	` { "value" : 6e0 , "name" : "späce" , "ts" : 6 } `,
	`{"ts":7,"name":"dup","value":0,"value":7}`,
	`{"ts":8,"name":"plain-again","value":-0.125}`,
	`{}`,
}

// decodeWithEncodingJSON is the oracle: a plain json.Unmarshal loop.
func decodeWithEncodingJSON(t *testing.T, payloads []string) []event {
	t.Helper()
	out := make([]event, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal([]byte(p), &out[i]); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
	}
	return out
}

// appendRaw appends payloads to a topic through the segment log itself, as
// they are, with timestamp = key = index.
func appendRaw(t *testing.T, store *streamline.TopicStore, topic string, payloads []string) {
	t.Helper()
	tp, err := store.Store().Topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	base := tp.NextOffset()
	for i, p := range payloads {
		if _, err := tp.Append(base+int64(i), uint64(base)+uint64(i), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Flush(); err != nil {
		t.Fatal(err)
	}
}

func assertEventsInOrder(t *testing.T, what string, got []streamline.Keyed[event], want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d events, want %d", what, len(got), len(want))
	}
	for i, k := range got {
		if k.Value != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", what, i, k.Value, want[i])
		}
	}
}

// Payloads the plan takes and payloads it refuses, interleaved, replay through
// Topic, the follow-mode tail and JSONL to exactly what encoding/json yields,
// in order. Collect keeps every value while the readers reuse their payload
// buffers, so a string aliasing one would show up here as well.
func TestAtRestDecodeMatchesEncodingJSON(t *testing.T) {
	want := decodeWithEncodingJSON(t, mixedPayloads)
	store := openTopicStore(t)
	appendRaw(t, store, "raw", mixedPayloads)

	t.Run("topic", func(t *testing.T) {
		env := streamline.New(streamline.WithParallelism(1))
		out := streamline.Collect(streamline.From(env, "replay", streamline.Topic[event](store, "raw")), "out")
		execute(t, env.Execute)
		got := out.Records()
		assertEventsInOrder(t, "topic", got, want)
		for i, k := range got {
			if k.Ts != int64(i) || k.Key != uint64(i) {
				t.Fatalf("record %d replayed with ts %d key %d, want the stored %d", i, k.Ts, k.Key, i)
			}
		}
	})

	t.Run("follow", func(t *testing.T) {
		env := streamline.New(streamline.WithParallelism(1))
		out := streamline.Collect(streamline.From(env, "follow",
			streamline.Topic[event](store, "raw", streamline.WithFollow())), "out")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- env.Execute(ctx) }()
		waitFor := func(n int) { t.Helper(); waitForRecords(t, out, done, n) }
		waitFor(len(mixedPayloads))
		appendRaw(t, store, "raw", mixedPayloads) // the tail decodes these
		waitFor(2 * len(mixedPayloads))
		cancel()
		<-done
		assertEventsInOrder(t, "follow", out.Records(), append(append([]event{}, want...), want...))
	})

	t.Run("jsonl", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "raw.jsonl")
		if err := os.WriteFile(path, []byte(strings.Join(mixedPayloads, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		env := streamline.New(streamline.WithParallelism(1))
		out := streamline.Collect(streamline.From(env, "scan", streamline.JSONL[event](path)), "out")
		execute(t, env.Execute)
		assertEventsInOrder(t, "jsonl", out.Records(), want)
	})
}

// A malformed payload fails the job with encoding/json's own error, named by
// topic and offset.
func TestTopicMalformedPayloadFailsExecute(t *testing.T) {
	store := openTopicStore(t)
	bad := `{"ts":2,"name":"cut`
	appendRaw(t, store, "bad", []string{mixedPayloads[0], bad})

	env := streamline.New(streamline.WithParallelism(1))
	streamline.Sink(streamline.From(env, "replay", streamline.Topic[event](store, "bad")), "out", func(streamline.Keyed[event]) {})
	err := env.Execute(context.Background())
	want := fmt.Sprintf("topic %q offset 1: decode streamline_test.event: %v", "bad", json.Unmarshal([]byte(bad), new(event)))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Execute = %v, want an error containing %q", err, want)
	}
}

// The segment log's readers reuse their payload buffer on the next call: a
// decoded string must own its bytes.
func TestTopicDecodedStringsDoNotAliasPayload(t *testing.T) {
	store := openTopicStore(t)
	appendRaw(t, store, "names", []string{
		`{"ts":1,"name":"first-name","value":1}`,
		`{"ts":2,"name":"other-name","value":2}`,
	})
	r := streamline.Topic[event](store, "names").Open(0, 1)
	first, st := r.Next()
	if st != streamline.ReadData {
		t.Fatalf("first Next: status %v", st)
	}
	if second, st := r.Next(); st != streamline.ReadData || second.Value.Name != "other-name" {
		t.Fatalf("second Next = %+v, status %v", second, st)
	}
	if first.Value.Name != "first-name" {
		t.Fatalf("first record's name became %q after the next Next()", first.Value.Name)
	}
}

const benchRecords = 100_000

// drainReader reads r to its end and fails the benchmark on a short or
// failed read.
func drainReader(b *testing.B, r streamline.Reader[event]) {
	n := 0
	for {
		_, st := r.Next()
		if st == streamline.ReadEnd {
			break
		}
		n++
	}
	if e, ok := r.(interface{ Err() error }); ok && e.Err() != nil {
		b.Fatal(e.Err())
	}
	if n != benchRecords {
		b.Fatalf("read %d records, want %d", n, benchRecords)
	}
}

func reportPerRecord(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRecords), "ns/record")
}

// BenchmarkTopicNext drains a topic of event-shaped records through one
// reader: segment-log range read plus payload decode, per record.
func BenchmarkTopicNext(b *testing.B) {
	store := openTopicStore(b)
	tp, err := store.Store().Topic("events")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range mkEvents(benchRecords, 1_700_000_000_000) {
		data, _ := json.Marshal(e)
		if _, err := tp.Append(e.TsMs, 0, data); err != nil {
			b.Fatal(err)
		}
	}
	if err := tp.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainReader(b, streamline.Topic[event](store, "events").Open(0, 1))
	}
	reportPerRecord(b)
}

// BenchmarkPersist is the write side of BenchmarkTopicNext: a Persist job
// appends the same event-shaped records to a fresh topic — payload encode
// plus segment-log append, per record.
func BenchmarkPersist(b *testing.B) {
	store := openTopicStore(b)
	events := mkEvents(benchRecords, 1_700_000_000_000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := streamline.New(streamline.WithParallelism(1))
		src := streamline.From(env, "events", streamline.Slice(events),
			streamline.WithSourceParallelism(1),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		topic := fmt.Sprintf("events-%d", i)
		streamline.Persist(src, store, topic)
		if err := env.Execute(ctx); err != nil {
			b.Fatal(err)
		}
		tp, err := store.Store().Topic(topic)
		if err != nil {
			b.Fatal(err)
		}
		if n := tp.NextOffset(); n != benchRecords {
			b.Fatalf("topic %s holds %d records, want %d", topic, n, benchRecords)
		}
	}
	reportPerRecord(b)
}

// BenchmarkJSONLNext is the same drain over a JSONL file: line scan plus
// payload decode.
func BenchmarkJSONLNext(b *testing.B) {
	var buf bytes.Buffer
	for _, e := range mkEvents(benchRecords, 1_700_000_000_000) {
		data, _ := json.Marshal(e)
		buf.Write(data)
		buf.WriteByte('\n')
	}
	path := filepath.Join(b.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainReader(b, streamline.JSONL[event](path).Open(0, 1))
	}
	reportPerRecord(b)
}
