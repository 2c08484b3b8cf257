package core_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/state"
	"repro/internal/window"
	"repro/streamline"
)

// windows merges window results by (key, window start): results of windows
// a restored run replays overwrite the crashed run's (idempotent).
func windows(outs ...*streamline.Results[streamline.WindowResult]) map[[2]int64]float64 {
	res := map[[2]int64]float64{}
	for _, out := range outs {
		for _, k := range out.Records() {
			res[[2]int64{int64(k.Key), k.Value.Start}] = k.Value.Value
		}
	}
	return res
}

// tumbling100 sums a keyed stream into tumbling windows of 100 ticks.
func tumbling100(s *streamline.Stream[float64]) *streamline.Results[streamline.WindowResult] {
	return streamline.Collect(streamline.WindowAggregate(s, "win",
		streamline.Query(streamline.Tumbling(100), streamline.Sum())), "out")
}

// crash runs env until a kill 120 ms in and returns the newest checkpoint;
// it skips the test when the job finished first or checkpointed nothing.
func crash(t *testing.T, env *streamline.Env, backend streamline.Backend) *streamline.Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	err := env.Execute(ctx)
	cancel()
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint before kill")
	}
	return snap
}

func sameWindows(t *testing.T, got, want map[[2]int64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %v = %v, want %v", k, got[k], v)
		}
	}
}

// checkpointed is the Env options of a run at the given parallelism,
// checkpointing every 20 ms when backend is set.
func checkpointed(parallelism int, backend streamline.Backend) []streamline.Option {
	opts := []streamline.Option{streamline.WithParallelism(parallelism)}
	if backend != nil {
		opts = append(opts, streamline.WithCheckpointing(backend, 20*time.Millisecond))
	}
	return opts
}

// generator is a bounded generator over two subtasks, keyed by global%keys,
// paced at 10k records per second per subtask when paced is set.
func generator(env *streamline.Env, n int64, keys int64, paced bool) *streamline.Stream[float64] {
	var src streamline.Source[float64] = streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % keys), Value: 1}
	})
	if paced {
		src = streamline.Paced(src, 10_000)
	}
	return byKey(streamline.From(env, "gen", src, streamline.WithSourceParallelism(2)))
}

// Kill/restore through the public API: the pipeline is rebuilt from its
// definition and resumed from the last checkpoint; dedup'd window results
// must equal a failure-free run.
func TestExecuteRestoredEquivalence(t *testing.T) {
	const n = 5000
	build := func(paced bool, backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(checkpointed(2, backend)...)
		return env, tumbling100(generator(env, n, 4, paced))
	}

	refEnv, refOut := build(false, nil)
	execute(t, refEnv)
	want := windows(refOut)

	backend := streamline.NewMemoryBackend(0)
	crashEnv, crashOut := build(true, backend)
	snap := crash(t, crashEnv, backend)
	// Rebuild the pipeline from its definition and resume from the
	// snapshot; results of replayed windows overwrite the crash run's
	// (sinks are per-environment, so the two result sets are merged).
	resumeEnv, out2 := build(false, backend)
	if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	sameWindows(t, windows(crashOut, out2), want)
}

// TestExecuteRestoredRescaledFileSource kills a checkpointing pipeline whose
// source is a splittable file scan at parallelism 2 and recovers it with the
// source at parallelism 1 and at 4: the snapshot's split state redistributes
// across the new source subtasks (seek-based resume, no re-scan), the keyed
// window state redistributes by key group, and the deduplicated window
// results must equal a failure-free run.
func TestExecuteRestoredRescaledFileSource(t *testing.T) {
	const n = 6000
	path := filepath.Join(t.TempDir(), "history.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(f, "%d\n", i)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	parse := func(row []string) (float64, error) {
		i, err := strconv.ParseInt(row[0], 10, 64)
		return float64(i), err
	}
	build := func(srcPar int, perSec float64, backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(checkpointed(2, backend)...)
		src := streamline.CSV(path, false, parse, streamline.WithSplitSize(2048))
		if perSec > 0 {
			src = streamline.Paced(src, perSec)
		}
		scan := streamline.From(env, "scan", src, streamline.WithSourceParallelism(srcPar),
			streamline.WithTimestamps(func(v float64) int64 { return int64(v) }))
		return env, tumbling100(streamline.KeyBy(scan, "k", func(v float64) uint64 { return uint64(v) % 5 }))
	}

	refEnv, refOut := build(2, 0, nil)
	execute(t, refEnv)
	want := windows(refOut)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, restorePar := range []int{1, 4} {
		t.Run(fmt.Sprintf("source-to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := streamline.NewMemoryBackend(0)
			crashEnv, crashOut := build(2, 12_000, backend)
			snap := crash(t, crashEnv, backend)
			resumeEnv, out2 := build(restorePar, 0, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run with source parallelism %d: %v", restorePar, err)
			}
			sameWindows(t, windows(crashOut, out2), want)
		})
	}
}

// TestExecuteRestoredRescaled kills a checkpointing pipeline running its
// keyed operator at parallelism 2 and recovers it at parallelism 1 and at
// 4: the snapshot's key-group blobs redistribute to the new subtask ranges
// and the deduplicated window results must equal a failure-free run. The
// source keeps its pinned parallelism — only the keyed stage rescales
// (generator positions are per-subtask; file scans may rescale too, see
// TestExecuteRestoredRescaledFileSource).
func TestExecuteRestoredRescaled(t *testing.T) {
	const n = 5000
	build := func(parallelism int, paced bool, backend streamline.Backend) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		env := streamline.New(checkpointed(parallelism, backend)...)
		return env, tumbling100(generator(env, n, 6, paced))
	}

	refEnv, refOut := build(2, false, nil)
	execute(t, refEnv)
	want := windows(refOut)

	for _, restorePar := range []int{1, 4} {
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := streamline.NewMemoryBackend(0)
			crashEnv, crashOut := build(2, true, backend)
			snap := crash(t, crashEnv, backend)
			// Rebuild the same logical pipeline at a different parallelism
			// and resume: the restore works because keyed state is stored
			// per key group, not per subtask.
			resumeEnv, out2 := build(restorePar, false, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run at parallelism %d: %v", restorePar, err)
			}
			sameWindows(t, windows(crashOut, out2), want)
		})
	}
}

// writeParentFixture regenerates testdata/v2_snapshot: run it at the commit
// whose checkpoint format the fixture pins, never at a commit under test.
var writeParentFixture = flag.Bool("write-parent-fixture", false, "rewrite testdata/v2_snapshot (run at the commit that introduced its format)")

// TestParentWrittenSnapshotRestores restores a checkpoint of checkpoint file
// format version 2 (file backend, window + reduce + combiner state, taken
// mid-stream with the combiner table non-empty) and demands the output tail
// its golden pins: no state format moved since. The checkpoint holds the
// state of testdata/v1_snapshot, the version-1 fixture written by the commit
// that introduced version 1, with its gob-encoded source and combiner
// sections re-encoded typed; the golden is v1_snapshot's, byte for byte. The
// checkpoints of the formats before it — version 1, and the gob format
// before that from before the last snapshot converter was deleted and from
// before the slice timeline — are refused as an older format, so nothing is
// restored from them.
func TestParentWrittenSnapshotRestores(t *testing.T) {
	const n = 6000
	dir := filepath.Join("testdata", "v2_snapshot")
	golden := filepath.Join(dir, "restored_output.golden")
	// The fixture's source states are dataflow.GenSource encodings, so the
	// plan is built on the graph by hand, node for node as the untyped
	// builder that wrote the fixture built it: generator, key map, window
	// and its sink, then the combiner, the reduce and its sink.
	build := func(perSec float64) (*dataflow.Graph, []*dataflow.CollectSink) {
		g := dataflow.NewGraph("streamline")
		src := g.AddSource("gen", 2, func(sub, par int) dataflow.SourceFunc {
			gen := &dataflow.GenSource{N: n / int64(par), Gen: func(i int64) dataflow.Record {
				global := i*int64(par) + int64(sub)
				return dataflow.Data(global, uint64(global%5), float64(global%7))
			}}
			if perSec > 0 {
				return &dataflow.PacedSource{PerSec: perSec, Inner: gen}
			}
			return gen
		})
		forward := func(in *dataflow.Node, name string, f dataflow.OperatorFactory) *dataflow.Node {
			return g.AddOperator(name, 2, f, dataflow.Edge{From: in, Part: dataflow.Forward})
		}
		hash := func(in *dataflow.Node, name string, f dataflow.OperatorFactory) *dataflow.Node {
			return g.AddOperator(name, 2, f, dataflow.Edge{From: in, Part: dataflow.HashPartition})
		}
		collect := func(in *dataflow.Node, name string) *dataflow.CollectSink {
			sink := &dataflow.CollectSink{}
			g.AddOperator(name, 1, sink.Factory(), dataflow.Edge{From: in, Part: dataflow.Rebalance}).Pinned = true
			return sink
		}
		keyed := forward(src, "k", func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { return r }}
		})
		win := collect(hash(keyed, "win", dataflow.NewWindowOp(
			dataflow.WindowQuery{Spec: window.Tumbling(100), Fn: agg.SumF64()},
			dataflow.WindowQuery{Spec: window.Sliding(200, 50), Fn: agg.SumF64()},
		)), "win-out")
		comb := forward(keyed, "sum-combine", func() dataflow.Operator { return &dataflow.CombinerOp{F: sum, FlushEvery: 1024} })
		total := collect(hash(comb, "sum", func() dataflow.Operator { return &dataflow.KeyedReduceOp{F: sum} }), "sum-out")
		return g, []*dataflow.CollectSink{win, total}
	}
	// The sinks merge two upstream subtasks, so order across keys is not
	// fixed; the multiset of results is.
	render := func(sinks []*dataflow.CollectSink) string {
		var lines []string
		for i, s := range sinks {
			for _, r := range s.Records() {
				lines = append(lines, fmt.Sprintf("%d %d %d %v", i, r.Key, r.Ts, r.Value))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n") + "\n"
	}

	if *writeParentFixture {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		backend, err := state.NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := build(10_000)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		err = dataflow.NewJob(g, dataflow.WithCheckpointing(backend, 20*time.Millisecond)).Run(ctx)
		cancel()
		if err == nil {
			t.Fatal("job finished before the kill; nothing mid-stream to restore")
		}
		snap, ok, err := backend.Latest()
		if !ok || err != nil {
			t.Fatalf("no checkpoint before the kill: %v", err)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "chk-*.ckpt"))
		for _, f := range files {
			if f != filepath.Join(dir, fmt.Sprintf("chk-%012d.ckpt", snap.CheckpointID)) {
				os.Remove(f)
			}
		}
		resume, sinks := build(0)
		if err := dataflow.NewJob(resume, dataflow.WithRestore(snap)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(render(sinks)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	backend, err := state.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := backend.Latest()
	if !ok || err != nil {
		t.Fatalf("fixture snapshot unreadable: ok=%v err=%v", ok, err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, sinks := build(0)
	if err := dataflow.NewJob(g, dataflow.WithRestore(snap)).Run(context.Background()); err != nil {
		t.Fatalf("restore of the parent's snapshot: %v", err)
	}
	if got := render(sinks); got != string(want) {
		t.Fatalf("restored output differs from the parent's:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	for _, old := range []string{"v1_snapshot", "parent_snapshot", "pre_timeline_snapshot"} {
		backend, err := state.NewFileBackend(filepath.Join("testdata", old))
		if err != nil {
			t.Fatal(err)
		}
		snap, ok, err := backend.Latest()
		if ok || snap != nil || !errors.Is(err, state.ErrOlderFormat) || !strings.Contains(err.Error(), "older checkpoint format") {
			t.Fatalf("%s: Latest = %v, %v, %v; want no snapshot and the older-format error", old, snap, ok, err)
		}
	}
}
