package dataflow

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/state"
)

// captureGroups snapshots an operator's keyed state exactly the way the
// runtime does — a copy-on-write capture serialized into per-group blobs —
// and hands the blobs back for a restore via OpContext.RestoreGroups.
func captureGroups(t testing.TB, op Operator) map[int][]byte {
	t.Helper()
	h, ok := op.(KeyedStateful)
	if !ok {
		t.Fatalf("%T does not hold keyed state", op)
	}
	groups, err := h.KeyedState().Capture().EncodeGroups()
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// keyGroupPipeline is the workload of the plan-identity test: two keyed
// stages (reduce behind one hash edge feeding a second reduce behind
// another) over a skewed key space.
func keyGroupPipeline(numKeyGroups, parallelism int, sink *CollectSink) *Graph {
	g := NewGraph("kg")
	g.NumKeyGroups = numKeyGroups
	src := g.AddSource("src", 2, func(sub, par int) SourceFunc {
		return &GenSource{N: 3000, WatermarkEvery: 64, Gen: func(i int64) Record {
			global := i*2 + int64(sub)
			return Data(global, uint64(global*global%97), float64(global%13))
		}}
	})
	sum := g.AddOperator("sum", parallelism, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }, EmitEach: true}
	}, Edge{From: src, Part: HashPartition})
	rekey := g.AddOperator("rekey", parallelism, func() Operator {
		return &MapOp{F: func(r Record) Record {
			r.Key = r.Key % 7
			return r
		}}
	}, Edge{From: sum, Part: Forward})
	max := g.AddOperator("max", parallelism, func() Operator {
		return &KeyedReduceOp{F: func(acc, v float64) float64 {
			if v > acc {
				return v
			}
			return acc
		}}
	}, Edge{From: rekey, Part: HashPartition})
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: max, Part: Rebalance})
	return g
}

// TestNumKeyGroupsIsPhysicalOnly proves key grouping is purely physical:
// the same pipeline produces identical results at NumKeyGroups 1, 7 and 128
// and at any parallelism — including parallelism above the group count,
// where some subtasks own no groups at all.
func TestNumKeyGroupsIsPhysicalOnly(t *testing.T) {
	results := func(numKeyGroups, parallelism int) map[uint64]float64 {
		sink := &CollectSink{}
		run(t, keyGroupPipeline(numKeyGroups, parallelism, sink))
		out := map[uint64]float64{}
		for _, r := range sink.Records() {
			out[r.Key] = r.Value.(float64)
		}
		return out
	}
	want := results(DefaultNumKeyGroups, 1)
	if len(want) != 7 {
		t.Fatalf("reference run produced %d keys, want 7", len(want))
	}
	for _, numKeyGroups := range []int{1, 7, 128} {
		for _, parallelism := range []int{1, 2, 4} {
			got := results(numKeyGroups, parallelism)
			if len(got) != len(want) {
				t.Fatalf("G=%d P=%d: %d keys, want %d", numKeyGroups, parallelism, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("G=%d P=%d: key %d = %v, want %v", numKeyGroups, parallelism, k, got[k], v)
				}
			}
		}
	}
}

// TestHashRoutingMatchesStateOwnership drives every key group through a
// hash edge and asserts each record lands on the subtask owning its group —
// the invariant that makes per-group snapshots restorable. (KeyedState
// panics on a mismatch, so the keyed reduce doubles as the assertion.)
func TestHashRoutingMatchesStateOwnership(t *testing.T) {
	for _, parallelism := range []int{1, 2, 3, 5} {
		g := NewGraph("route")
		g.NumKeyGroups = 16
		src := g.AddSource("src", 1, SliceSource(intRecords(500)))
		red := g.AddOperator("sum", parallelism, func() Operator {
			return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
		}, Edge{From: src, Part: HashPartition})
		sink := &CollectSink{}
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
		run(t, g)
		if got := len(sink.Records()); got != 7 { // intRecords keys are i%7
			t.Fatalf("parallelism %d: %d keys, want 7", parallelism, got)
		}
	}
}

// TestGroupRangesPartition checks the range/ownership algebra directly:
// for any (groups, parallelism), the ranges partition [0, groups) and
// SubtaskForGroup inverts them.
func TestGroupRangesPartition(t *testing.T) {
	for _, numKeyGroups := range []int{1, 2, 7, 128} {
		for parallelism := 1; parallelism <= 9; parallelism++ {
			owner := make([]int, numKeyGroups)
			for i := range owner {
				owner[i] = -1
			}
			for s := 0; s < parallelism; s++ {
				start, end := state.GroupRangeFor(numKeyGroups, parallelism, s)
				for g := start; g < end; g++ {
					if owner[g] != -1 {
						t.Fatalf("G=%d P=%d: group %d owned by %d and %d", numKeyGroups, parallelism, g, owner[g], s)
					}
					owner[g] = s
					if got := state.SubtaskForGroup(g, numKeyGroups, parallelism); got != s {
						t.Fatalf("G=%d P=%d: SubtaskForGroup(%d) = %d, want %d", numKeyGroups, parallelism, g, got, s)
					}
				}
			}
			for g, s := range owner {
				if s == -1 {
					t.Fatalf("G=%d P=%d: group %d unowned", numKeyGroups, parallelism, g)
				}
			}
		}
	}
}

// TestKillAndRecoverRescaled is the headline rescale test: the job is
// checkpointed at keyed-operator parallelism 2, killed, and recovered at
// parallelism 1 and at 4 — the snapshot's key-group blobs redistribute to
// the new subtask ranges and the deduplicated window results must equal a
// failure-free run, exactly once.
func TestKillAndRecoverRescaled(t *testing.T) {
	const n = 6000
	refSink := &CollectSink{}
	run(t, buildRecoveryGraph(n, 0, refSink))
	want := collectWindows(t, refSink)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, restorePar := range []int{1, 4} {
		restorePar := restorePar
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := state.NewMemoryBackend(0)
			crashSink := &CollectSink{}
			g1 := buildRecoveryGraphAt(n, 10000, crashSink, 2)
			job1 := NewJob(g1, WithCheckpointing(backend, 25*time.Millisecond))
			ctx1, cancel1 := context.WithTimeout(context.Background(), 150*time.Millisecond)
			err := job1.Run(ctx1)
			cancel1()
			if err == nil {
				t.Skip("job completed before kill; rescale path not exercised on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint completed before kill")
			}
			g2 := buildRecoveryGraphAt(n, 0, crashSink, restorePar)
			job2 := NewJob(g2, WithRestore(snap), WithCheckpointing(backend, 25*time.Millisecond))
			ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel2()
			if err := job2.Run(ctx2); err != nil {
				t.Fatalf("recovery at parallelism %d failed: %v", restorePar, err)
			}
			assertWindowsEqual(t, collectWindows(t, crashSink), want)
		})
	}
}

// TestEmptyKeyedOperatorSnapshotRestore checkpoints a keyed operator that
// has seen no records at all (a filter upstream drops everything) and
// restores from that snapshot: both directions must work with zero keys.
func TestEmptyKeyedOperatorSnapshotRestore(t *testing.T) {
	build := func(sink *CollectSink) *Graph {
		g := NewGraph("empty")
		src := g.AddSource("src", 1, func(sub, par int) SourceFunc {
			return &PacedSource{PerSec: 20000, Inner: &GenSource{
				N: 4000, WatermarkEvery: 16,
				Gen: func(i int64) Record { return Data(i, uint64(i%5), float64(1)) },
			}}
		})
		drop := g.AddOperator("drop", 1, func() Operator {
			return &FilterOp{F: func(Record) bool { return false }}
		}, Edge{From: src, Part: Rebalance})
		red := g.AddOperator("sum", 2, func() Operator {
			return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
		}, Edge{From: drop, Part: HashPartition})
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
		return g
	}
	backend := state.NewMemoryBackend(0)
	sink1 := &CollectSink{}
	job1 := NewJob(build(sink1), WithCheckpointing(backend, 10*time.Millisecond))
	ctx1, cancel1 := context.WithTimeout(context.Background(), 120*time.Millisecond)
	err := job1.Run(ctx1)
	cancel1()
	snap, ok, _ := backend.Latest()
	if !ok {
		if err != nil {
			t.Skip("no checkpoint completed before kill")
		}
		t.Fatalf("job completed without a checkpoint")
	}
	sink2 := &CollectSink{}
	job2 := NewJob(build(sink2), WithRestore(snap))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := job2.Run(ctx2); err != nil {
		t.Fatalf("restore of empty keyed state failed: %v", err)
	}
	if got := len(sink2.Records()); got != 0 {
		t.Fatalf("empty keyed operator emitted %d records after restore", got)
	}
}

// TestRestoreRejectsChangedNumKeyGroups: NumKeyGroups is a plan constant —
// a snapshot must not silently load into a plan with a different value.
func TestRestoreRejectsChangedNumKeyGroups(t *testing.T) {
	sinkA := &CollectSink{}
	gA := keyGroupPipeline(8, 2, sinkA)
	backend := state.NewMemoryBackend(0)
	jobA := NewJob(gA, WithCheckpointing(backend, 5*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := jobA.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed during the run")
	}
	gB := keyGroupPipeline(16, 2, &CollectSink{})
	if err := NewJob(gB, WithRestore(snap)).Run(context.Background()); err == nil {
		t.Fatalf("restore with a different NumKeyGroups must fail")
	}
}

// TestRestoreRejectsSourceRescale: per-subtask state (source positions)
// does not redistribute; restoring a 2-subtask source at parallelism 3 must
// fail loudly instead of double-reading or dropping input.
func TestRestoreRejectsSourceRescale(t *testing.T) {
	build := func(srcPar int, sink *CollectSink) *Graph {
		g := NewGraph("srcscale")
		src := g.AddSource("src", srcPar, func(sub, par int) SourceFunc {
			return &PacedSource{PerSec: 20000, Inner: &GenSource{
				N: 4000, WatermarkEvery: 16,
				Gen: func(i int64) Record { return Data(i, uint64(i%5), float64(1)) },
			}}
		})
		red := g.AddOperator("sum", 2, func() Operator {
			return &KeyedReduceOp{F: func(acc, v float64) float64 { return acc + v }}
		}, Edge{From: src, Part: HashPartition})
		g.AddOperator("sink", 1, sink.Factory(), Edge{From: red, Part: Rebalance})
		return g
	}
	backend := state.NewMemoryBackend(0)
	job := NewJob(build(2, &CollectSink{}), WithCheckpointing(backend, 10*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	_ = job.Run(ctx)
	cancel()
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before kill")
	}
	err := NewJob(build(3, &CollectSink{}), WithRestore(snap)).Run(context.Background())
	if err == nil {
		t.Fatalf("restoring a rescaled source must fail")
	}
}
