package core

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
)

// Kill/restore through the public core API: the pipeline is rebuilt from
// its definition and resumed from the last checkpoint; dedup'd window
// results must equal a failure-free run.
func TestExecuteRestoredEquivalence(t *testing.T) {
	const n = 5000
	build := func(paced bool, backend state.Backend) (*Environment, *dataflow.CollectSink) {
		opts := []Option{WithParallelism(2)}
		if backend != nil {
			opts = append(opts, WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := NewEnvironment(opts...)
		var src *Stream
		gen := func(sub, par int, i int64) dataflow.Record {
			global := i*int64(par) + int64(sub)
			return dataflow.Data(global, uint64(global%4), float64(1))
		}
		if paced {
			src = env.FromPacedGenerator("gen", 2, n, 10_000, gen)
		} else {
			src = env.FromGenerator("gen", 2, n, gen)
		}
		sink := src.
			KeyBy("k", func(r dataflow.Record) uint64 { return r.Key }).
			WindowAggregate("win",
				WindowedQuery{Window: window.Tumbling(100), Fn: agg.SumF64()},
			).
			Collect("out")
		return env, sink
	}
	collect := func(s *dataflow.CollectSink) map[[2]int64]float64 {
		out := map[[2]int64]float64{}
		for _, r := range s.Records() {
			wr := r.Value.(dataflow.WindowResult)
			out[[2]int64{int64(r.Key), wr.Start}] = wr.Value
		}
		return out
	}

	refEnv, refSink := build(false, nil)
	if err := refEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := collect(refSink)

	backend := state.NewMemoryBackend(0)
	crashEnv, crashSink := build(true, backend)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	err := crashEnv.Execute(ctx)
	cancel()
	if err == nil {
		t.Skip("job finished before kill on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint before kill")
	}
	// Rebuild the pipeline from its definition and resume from the
	// snapshot; results of replayed windows overwrite the crash run's
	// (sinks are per-environment, so the two result sets are merged).
	resumeEnv, sink2 := build(false, backend)
	if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got := collect(crashSink)
	for k, v := range collect(sink2) {
		got[k] = v // replayed windows overwrite (idempotent)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %v = %v, want %v", k, got[k], v)
		}
	}
}

// TestExecuteRestoredRescaledFileSource kills a checkpointing pipeline whose
// source is a splittable file scan at parallelism 2 and recovers it with the
// source at parallelism 1 and at 4 through the core lowering: the snapshot's
// split state redistributes across the new source subtasks (seek-based
// resume, no re-scan), the keyed window state redistributes by key group,
// and the deduplicated window results must equal a failure-free run.
func TestExecuteRestoredRescaledFileSource(t *testing.T) {
	const n = 6000
	path := filepath.Join(t.TempDir(), "history.txt")
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
	decode := func(line []byte, off int64) (dataflow.Record, bool, error) {
		i, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return dataflow.Record{}, false, err
		}
		return dataflow.Data(i, uint64(i%5), 1.0), true, nil
	}
	build := func(srcPar int, perSec float64, backend state.Backend) (*Environment, *dataflow.CollectSink) {
		opts := []Option{WithParallelism(2)}
		if backend != nil {
			opts = append(opts, WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := NewEnvironment(opts...)
		var plan *dataflow.ScanPlan // one per execution, shared by its subtasks
		src := env.FromSource("scan", srcPar, func(sub, par int) dataflow.SourceFunc {
			if sub == 0 {
				plan = &dataflow.ScanPlan{Inputs: []string{path}, SplitSize: 2048}
			}
			scan := &dataflow.FileScanSource{Plan: plan, Subtask: sub, Parallelism: par, DecodeLine: decode}
			if perSec > 0 {
				return &dataflow.PacedSource{PerSec: perSec, Inner: scan}
			}
			return scan
		})
		sink := src.
			KeyBy("k", func(r dataflow.Record) uint64 { return r.Key }).
			WindowAggregate("win",
				WindowedQuery{Window: window.Tumbling(100), Fn: agg.SumF64()},
			).
			Collect("out")
		return env, sink
	}
	collect := func(sinks ...*dataflow.CollectSink) map[[2]int64]float64 {
		out := map[[2]int64]float64{}
		for _, s := range sinks {
			for _, r := range s.Records() {
				wr := r.Value.(dataflow.WindowResult)
				out[[2]int64{int64(r.Key), wr.Start}] = wr.Value
			}
		}
		return out
	}

	refEnv, refSink := build(2, 0, nil)
	if err := refEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := collect(refSink)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, restorePar := range []int{1, 4} {
		restorePar := restorePar
		t.Run(fmt.Sprintf("source-to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := state.NewMemoryBackend(0)
			crashEnv, crashSink := build(2, 12_000, backend)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
			err := crashEnv.Execute(ctx)
			cancel()
			if err == nil {
				t.Skip("job finished before kill on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint before kill")
			}
			resumeEnv, sink2 := build(restorePar, 0, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run with source parallelism %d: %v", restorePar, err)
			}
			got := collect(crashSink, sink2)
			if len(got) != len(want) {
				t.Fatalf("got %d windows, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("window %v = %v, want %v", k, got[k], v)
				}
			}
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
	build := func(parallelism int, paced bool, backend state.Backend) (*Environment, *dataflow.CollectSink) {
		opts := []Option{WithParallelism(parallelism)}
		if backend != nil {
			opts = append(opts, WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := NewEnvironment(opts...)
		var src *Stream
		gen := func(sub, par int, i int64) dataflow.Record {
			global := i*int64(par) + int64(sub)
			return dataflow.Data(global, uint64(global%6), float64(1))
		}
		if paced {
			src = env.FromPacedGenerator("gen", 2, n, 10_000, gen)
		} else {
			src = env.FromGenerator("gen", 2, n, gen)
		}
		sink := src.
			KeyBy("k", func(r dataflow.Record) uint64 { return r.Key }).
			WindowAggregate("win",
				WindowedQuery{Window: window.Tumbling(100), Fn: agg.SumF64()},
			).
			Collect("out")
		return env, sink
	}
	collect := func(sinks ...*dataflow.CollectSink) map[[2]int64]float64 {
		out := map[[2]int64]float64{}
		for _, s := range sinks {
			for _, r := range s.Records() {
				wr := r.Value.(dataflow.WindowResult)
				out[[2]int64{int64(r.Key), wr.Start}] = wr.Value
			}
		}
		return out
	}

	refEnv, refSink := build(2, false, nil)
	if err := refEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := collect(refSink)

	for _, restorePar := range []int{1, 4} {
		restorePar := restorePar
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := state.NewMemoryBackend(0)
			crashEnv, crashSink := build(2, true, backend)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
			err := crashEnv.Execute(ctx)
			cancel()
			if err == nil {
				t.Skip("job finished before kill on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint before kill")
			}
			// Rebuild the same logical pipeline at a different parallelism
			// and resume: WithRestore works because keyed state is stored
			// per key group, not per subtask.
			resumeEnv, sink2 := build(restorePar, false, backend)
			if err := resumeEnv.ExecuteRestored(context.Background(), snap); err != nil {
				t.Fatalf("restored run at parallelism %d: %v", restorePar, err)
			}
			got := collect(crashSink, sink2)
			if len(got) != len(want) {
				t.Fatalf("got %d windows, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("window %v = %v, want %v", k, got[k], v)
				}
			}
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
	build := func(perSec float64, backend state.Backend) (*Environment, []*dataflow.CollectSink) {
		opts := []Option{WithParallelism(2), WithCombiner(CombinerOn)}
		if backend != nil {
			opts = append(opts, WithCheckpointing(backend, 20*time.Millisecond))
		}
		env := NewEnvironment(opts...)
		gen := func(sub, par int, i int64) dataflow.Record {
			global := i*int64(par) + int64(sub)
			return dataflow.Data(global, uint64(global%5), float64(global%7))
		}
		var src *Stream
		if perSec > 0 {
			src = env.FromPacedGenerator("gen", 2, n, perSec, gen)
		} else {
			src = env.FromGenerator("gen", 2, n, gen)
		}
		keyed := src.KeyBy("k", func(r dataflow.Record) uint64 { return r.Key })
		win := keyed.WindowAggregate("win",
			WindowedQuery{Window: window.Tumbling(100), Fn: agg.SumF64()},
			WindowedQuery{Window: window.Sliding(200, 50), Fn: agg.SumF64()},
		).Collect("win-out")
		sum := keyed.ReduceByKey("sum", func(a, v float64) float64 { return a + v }, false).Collect("sum-out")
		return env, []*dataflow.CollectSink{win, sum}
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
		env, _ := build(10_000, backend)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		err = env.Execute(ctx)
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
		resume, sinks := build(0, nil)
		if err := resume.ExecuteRestored(context.Background(), snap); err != nil {
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
	env, sinks := build(0, nil)
	if err := env.ExecuteRestored(context.Background(), snap); err != nil {
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
