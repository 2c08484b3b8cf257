package dataflow

import (
	"context"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

func TestCheckpointsComplete(t *testing.T) {
	g := NewGraph("ckpt")
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		return &PacedSource{
			PerSec: 20000,
			Inner: &GenSource{N: 8000, WatermarkEvery: 16, Gen: func(i int64) Record {
				return Data(i, uint64(i%5), float64(1))
			}},
		}
	})
	red := g.AddOperator("sum", 2, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
	}, Edge{From: src, Part: HashPartition})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})

	backend := state.NewMemoryBackend(0)
	job := NewJob(g, WithCheckpointing(backend, 30*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if job.CompletedCheckpoints() == 0 {
		t.Fatalf("no checkpoints completed during a ~400ms run")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Fatalf("backend has no snapshot")
	}
	// Every node must have state for every subtask.
	for _, n := range g.Nodes() {
		for s := 0; s < n.Parallelism; s++ {
			if _, present := snap.Entries[state.SubtaskKey{OperatorID: n.ID, Subtask: s}]; !present {
				t.Fatalf("snapshot missing entry for %q/%d", n.Name, s)
			}
		}
	}
	// The keyed operator stores one blob per (operator, key group) — all of
	// them, including empty groups, so restore ranges never have holes.
	if snap.NumKeyGroups != DefaultNumKeyGroups {
		t.Fatalf("snapshot NumKeyGroups = %d, want %d", snap.NumKeyGroups, DefaultNumKeyGroups)
	}
	for gk := 0; gk < snap.NumKeyGroups; gk++ {
		if snap.GetGroup(state.GroupKey{OperatorID: red.ID, KeyGroup: gk}) == nil {
			t.Fatalf("snapshot missing key group %d of %q", gk, red.Name)
		}
	}
}

// buildRecoveryGraph builds the job used by the kill/recover tests. The sink
// dedups window results by (key, query, start), making output idempotent so
// that exactly-once *state* yields exactly-once *results*.
func buildRecoveryGraph(n int64, perSec float64, sink *CollectSink) *Graph {
	return buildRecoveryGraphAt(n, perSec, sink, 2)
}

// buildRecoveryGraphAt is buildRecoveryGraph with the keyed (window)
// operator's parallelism as a knob — the rescale tests checkpoint at one
// parallelism and recover at another. Source parallelism stays fixed:
// source positions are per-subtask state and do not redistribute.
func buildRecoveryGraphAt(n int64, perSec float64, sink *CollectSink, winPar int) *Graph {
	g := NewGraph("recovery")
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		var inner SourceFunc = &GenSource{N: n / 2, WatermarkEvery: 8, Gen: func(i int64) Record {
			global := i*2 + int64(sub)
			return Data(global, uint64(global%4), float64(1))
		}}
		if perSec > 0 {
			inner = &PacedSource{PerSec: perSec, Inner: inner}
		}
		return inner
	})
	win := g.AddOperator("win", winPar, NewWindowOp(
		WindowQuery{Spec: window.Tumbling(50), Fn: agg.SumF64()},
		WindowQuery{Spec: window.Session(25), Fn: agg.CountF64()},
	), Edge{From: src, Part: HashPartition})
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: win, Part: Rebalance})
	return g
}

type windowKey struct {
	key     uint64
	queryID int
	start   int64
}

func collectWindows(t *testing.T, sink *CollectSink) map[windowKey]float64 {
	t.Helper()
	out := map[windowKey]float64{}
	for _, r := range sink.Records() {
		wr, ok := r.Value.(WindowResult)
		if !ok {
			t.Fatalf("sink saw non-window value %T", r.Value)
		}
		k := windowKey{key: r.Key, queryID: wr.QueryID, start: wr.Start}
		// Idempotent overwrite: replays emit the same value again.
		out[k] = wr.Value
	}
	return out
}

// The headline fault-tolerance test: run the job straight through; then run
// the same job again, kill it mid-stream, recover from the last completed
// checkpoint, and compare the deduplicated window results. Exactly-once
// state means the two result sets are identical.
func TestKillAndRecoverEquivalence(t *testing.T) {
	const n = 6000

	// Reference run, no failure, unpaced.
	refSink := &CollectSink{}
	run(t, buildRecoveryGraph(n, 0, refSink))
	want := collectWindows(t, refSink)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	// Faulty run: paced to ~10k rec/s per source subtask (~300ms total),
	// killed after ~150ms with checkpoints every 25ms.
	backend := state.NewMemoryBackend(0)
	crashSink := &CollectSink{}
	g1 := buildRecoveryGraph(n, 10000, crashSink)
	job1 := NewJob(g1, WithCheckpointing(backend, 25*time.Millisecond))
	ctx1, cancel1 := context.WithTimeout(context.Background(), 150*time.Millisecond)
	err := job1.Run(ctx1)
	cancel1()
	if err == nil {
		// The job finished before the kill fired; the machine is fast —
		// the recovery path can't be exercised, but results must be right.
		got := collectWindows(t, crashSink)
		assertWindowsEqual(t, got, want)
		t.Skip("job completed before kill; recovery path not exercised on this machine")
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before kill; cannot exercise recovery")
	}

	// Recovery run: restore from the snapshot and run to completion,
	// collecting into the same sink (replayed windows overwrite). Unpaced:
	// recovery replays at full speed.
	g2 := buildRecoveryGraph(n, 0, crashSink)
	job2 := NewJob(g2, WithRestore(snap), WithCheckpointing(backend, 25*time.Millisecond))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := job2.Run(ctx2); err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	got := collectWindows(t, crashSink)
	assertWindowsEqual(t, got, want)
}

func assertWindowsEqual(t *testing.T, got, want map[windowKey]float64) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing window %+v (have %d, want %d)", k, len(got), len(want))
		}
		if g != w {
			t.Fatalf("window %+v = %v, want %v", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("unexpected window %+v", k)
		}
	}
}

func TestSourceSnapshotRestoreResumes(t *testing.T) {
	src := &GenSource{N: 100, Gen: func(i int64) Record { return Data(i, 0, float64(i)) }}
	var first []Record
	for i := 0; i < 30; i++ {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("source ended early")
		}
		if r.Kind == KindData {
			first = append(first, r)
		}
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := &GenSource{N: 100, Gen: func(i int64) Record { return Data(i, 0, float64(i)) }}
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	// Drain both to end; the union must be exactly 0..99 with no gaps or dups.
	seen := map[int64]int{}
	for _, r := range first {
		seen[r.Ts]++
	}
	for {
		r, ok := resumed.Next()
		if !ok {
			break
		}
		if r.Kind == KindData {
			seen[r.Ts]++
		}
	}
	for i := int64(0); i < 100; i++ {
		if seen[i] != 1 {
			t.Fatalf("record %d seen %d times", i, seen[i])
		}
	}
}

func TestCheckpointOverheadIsBounded(t *testing.T) {
	// Sanity check for E9: with checkpointing the job still completes and
	// produces the same aggregate as without.
	build := func() (*Graph, *CollectSink) {
		g := NewGraph("ovh")
		src := g.AddSource("src", 1, SliceSource(intRecords(2000)))
		red := g.AddOperator("sum", 1, func() Operator {
			return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
		}, Edge{From: src, Part: HashPartition})
		sink := &CollectSink{}
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
		return g, sink
	}
	total := func(s *CollectSink) float64 {
		var sum float64
		for _, r := range s.Records() {
			sum += r.Value.(float64)
		}
		return sum
	}
	g1, s1 := build()
	run(t, g1)
	g2, s2 := build()
	run(t, g2, WithCheckpointing(state.NewMemoryBackend(3), 10*time.Millisecond))
	if total(s1) != total(s2) {
		t.Fatalf("checkpointing changed results: %v vs %v", total(s1), total(s2))
	}
}

// Checkpoints is what keeps restarted epochs sane: after a recovery the
// control streams may still carry acks for a checkpoint the failed epoch
// abandoned, and they must never pollute the snapshot being assembled.
func TestCheckpointsDropStaleAndDuplicateAcks(t *testing.T) {
	g := NewGraph("acks")
	g.NumKeyGroups = 8
	src := g.AddSource("src", 2, SliceSource(nil))
	backend := state.NewMemoryBackend(0)
	c := NewCheckpoints(g, backend, nil, nil)
	c.Resume(&state.Snapshot{CheckpointID: 4})
	keyA := state.SubtaskKey{OperatorID: src.ID, Subtask: 0}
	keyB := state.SubtaskKey{OperatorID: src.ID, Subtask: 1}
	offer := func(a Ack) {
		t.Helper()
		if err := c.Offer(a); err != nil {
			t.Fatal(err)
		}
	}

	offer(Ack{Ckpt: 4, Key: keyA})
	offer(Ack{Ckpt: 4, Key: keyB})
	if c.Completed() != 0 {
		t.Fatal("acks with no checkpoint in flight must be dropped")
	}

	id, ok := c.Begin()
	if !ok || id != 5 {
		t.Fatalf("Begin = (%d, %v), want (5, true): ids continue after the restored checkpoint", id, ok)
	}
	if _, ok := c.Begin(); ok {
		t.Fatal("Begin must refuse while a checkpoint is in flight")
	}
	// Stale ack from checkpoint 4, abandoned by the previous epoch: dropped,
	// and its blob must not leak into checkpoint 5.
	offer(Ack{Ckpt: 4, Key: keyA, Blob: []byte("stale")})
	offer(Ack{Ckpt: 5, Key: keyA, Blob: []byte("a"), Groups: map[int][]byte{3: []byte("ga")}})
	// Duplicate (e.g. redelivered after a control hiccup): dropped, first
	// blob wins.
	offer(Ack{Ckpt: 5, Key: keyA, Blob: []byte("dup")})
	if c.Completed() != 0 {
		t.Fatal("stale and duplicate acks must not complete the snapshot")
	}

	offer(Ack{Ckpt: 5, Key: keyB, Blob: []byte("b")})
	if c.Completed() != 1 {
		t.Fatal("last subtask's ack must complete the snapshot")
	}
	snap, ok, _ := backend.Latest()
	if !ok || snap.CheckpointID != 5 {
		t.Fatalf("persisted snapshot = %v (present %v), want checkpoint 5", snap, ok)
	}
	if snap.NumKeyGroups != 8 {
		t.Fatalf("NumKeyGroups = %d, want 8", snap.NumKeyGroups)
	}
	if got := string(snap.Get(keyA)); got != "a" {
		t.Fatalf("subtask A blob = %q, want %q (stale/duplicate acks must not overwrite)", got, "a")
	}
	if got := string(snap.Get(keyB)); got != "b" {
		t.Fatalf("subtask B blob = %q, want %q", got, "b")
	}
	if got := string(snap.GetGroup(state.GroupKey{OperatorID: src.ID, KeyGroup: 3})); got != "ga" {
		t.Fatalf("key-group blob = %q, want %q", got, "ga")
	}
	offer(Ack{Ckpt: 5, Key: keyB, Blob: []byte("late")})
	if id, ok := c.Begin(); !ok || id != 6 {
		t.Fatalf("Begin after completion = (%d, %v), want (6, true)", id, ok)
	}
	offer(Ack{Ckpt: 5, Key: keyA, Blob: []byte("late")})
	offer(Ack{Ckpt: 5, Key: keyB, Blob: []byte("late")})
	if c.Completed() != 1 {
		t.Fatal("acks after completion must be dropped")
	}
	if snap, _ := backend.Load(5); string(snap.Get(keyB)) != "b" {
		t.Fatal("a late ack must not touch the persisted snapshot")
	}
}

// TestCheckpointDurationIsClockTime: job.checkpoint_nanos observes exactly
// the clock time from Begin to the ack that completes the checkpoint —
// neither the first ack nor anything after the last counts.
func TestCheckpointDurationIsClockTime(t *testing.T) {
	g := NewGraph("duration")
	src := g.AddSource("src", 2, SliceSource(nil))
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.NewRegistry()
	c := NewCheckpoints(g, state.NewMemoryBackend(0), reg, clk)
	c.Resume(nil)
	h := reg.Histogram("job.checkpoint_nanos")
	for i, d := range []time.Duration{40*time.Millisecond + 7, 3 * time.Second} {
		clk.Advance(time.Hour) // between checkpoints: not counted
		id, ok := c.Begin()
		if !ok {
			t.Fatalf("checkpoint %d did not begin", i+1)
		}
		clk.Advance(d / 2)
		for sub := 0; sub < 2; sub++ {
			if err := c.Offer(Ack{Ckpt: id, Key: state.SubtaskKey{OperatorID: src.ID, Subtask: sub}}); err != nil {
				t.Fatal(err)
			}
			clk.Advance(d - d/2)
		}
		if h.Count() != int64(i+1) || h.Max() != int64(d) {
			t.Fatalf("checkpoint %d took %v of clock time, histogram reads count %d max %v", i+1, d, h.Count(), time.Duration(h.Max()))
		}
	}
	if h.Min() != int64(40*time.Millisecond+7) {
		t.Fatalf("first checkpoint recorded as %v, want 40.000000007ms", time.Duration(h.Min()))
	}
}
