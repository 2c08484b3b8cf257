package streamline

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"

	"repro/internal/dataflow"
)

// restorable is a source subtask's, or an operator's, snapshot pair.
type restorable interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// restoreAll restores a blob as the state of both subtasks of a stage of two
// into a stage of one, through RestoreAll.
type restoreAll struct {
	restorable
	m interface {
		RestoreAll(subtask, parallelism int, blobs map[int][]byte) error
	}
}

func (r restoreAll) Restore(blob []byte) error {
	return r.m.RestoreAll(0, 1, map[int][]byte{0: blob, 1: blob})
}

// combinerState restores a combiner through Open, where its state arrives.
type combinerState struct{ *dataflow.CombinerOp }

func (c combinerState) Restore(blob []byte) error {
	return c.Open(&dataflow.OpContext{Restore: blob})
}

// lowerForFuzz lowers a reader as From does, with a stage clock.
func lowerForFuzz[T any](r Reader[T]) *loweredReader[T] {
	l := &loweredReader[T]{r: r, boxed: asBoxed(r), every: 4, wmFloor: minInt64, clock: newStageClock(), wait: probeWait(r)}
	l.readTraits()
	return l
}

// sourceStateTargets returns every typed source-state decoder and the
// combiner's, each as a constructor of a fresh subtask: the lowering
// adapter over the index, channel, hybrid and topic-follow readers, those
// readers on their own, the generator and split-scan sources, and RestoreAll
// beside Restore wherever a reader has it.
func sourceStateTargets(tb testing.TB) []func() restorable {
	dir := tb.TempDir()
	path := filepath.Join(dir, "in.jsonl")
	var lines []byte
	for i := 0; i < 40; i++ {
		lines = fmt.Appendf(lines, "{\"n\":%d}\n", i)
	}
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		tb.Fatal(err)
	}
	store, err := OpenTopicStore(filepath.Join(dir, "topics"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	tp, err := store.s.Topic("ticks")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := tp.Append(int64(i), uint64(i), fmt.Appendf(nil, `{"n":%d}`, i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tp.Flush(); err != nil {
		tb.Fatal(err)
	}
	live := make(chan Keyed[tick], 64) // full enough for the seeds' reads
	for i := 0; i < cap(live); i++ {
		live <- Keyed[tick]{Ts: int64(i)}
	}
	hybrid := func() *hybridReader[tick] {
		return Hybrid(JSONL[tick](path, WithSplitSize(64)), Channel(live)).Open(0, 1).(*hybridReader[tick])
	}
	follow := func() *topicFollowReader[tick] {
		return Topic[tick](store, "ticks", WithFollow()).Open(0, 1).(*topicFollowReader[tick])
	}
	slice := func() Reader[tick] { return Slice(make([]tick, 40)).Open(0, 1) }
	return []func() restorable{
		func() restorable { return lowerForFuzz(slice()) },
		func() restorable { l := lowerForFuzz(hybrid()); return restoreAll{l, l} },
		func() restorable { return lowerForFuzz(follow()) },
		func() restorable { return slice() },
		func() restorable { return Channel(live).Open(0, 1) },
		func() restorable { return hybrid() },
		func() restorable { h := hybrid(); return restoreAll{h, h} },
		func() restorable { f := follow(); return restoreAll{f, f} },
		func() restorable { return JSONL[tick](path, WithSplitSize(64)).Open(0, 1) },
		func() restorable {
			return &dataflow.GenSource{N: 40, Gen: func(i int64) dataflow.Record { return dataflow.Data(i, uint64(i), 1.0) }}
		},
		func() restorable {
			c := &dataflow.CombinerOp{F: func(a, v float64) float64 { return a + v }}
			if err := c.Open(&dataflow.OpContext{}); err != nil {
				tb.Fatal(err)
			}
			return combinerState{c}
		},
	}
}

// FuzzSourceStateDecode restores arbitrary bytes into every source state the
// engine owns and into the combiner: an error or a restored subtask, never a
// panic, and never an allocation beyond a bound proportional to the input.
// Seeds are each target's own snapshots, taken after 0, 5 and 25 records.
func FuzzSourceStateDecode(f *testing.F) {
	targets := sourceStateTargets(f)
	for i, mk := range targets {
		for _, n := range []int{0, 5, 25} {
			r := mk()
			advance(f, r, n)
			blob, err := r.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(i), blob)
		}
	}
	f.Fuzz(func(t *testing.T, target uint8, blob []byte) {
		r := targets[int(target)%len(targets)]()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := r.Restore(blob)
		goruntime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(blob)); got > bound {
			t.Fatalf("restoring %d bytes allocated %d, bound %d (err %v)", len(blob), got, bound, err)
		}
	})
}

// advance feeds n records through a source subtask, or n data records
// through the combiner.
func advance(tb testing.TB, r restorable, n int) {
	for i := 0; i < n; i++ {
		switch r := r.(type) {
		case combinerState:
			r.OnBatch([]dataflow.Record{dataflow.Data(int64(i), uint64(i%3), 1.0)}, nil)
		case restoreAll:
			advance(tb, r.restorable, 1)
		case dataflow.SourceFunc:
			r.Next()
		case Reader[tick]:
			r.Next()
		default:
			tb.Fatalf("cannot advance %T", r)
		}
	}
}
