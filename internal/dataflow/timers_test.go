package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// sweepOnWatermark is WindowOp.OnWatermark as it was before the timer index:
// release, then advance every engine of the subtask on every watermark. It
// never consults or maintains the index, so it is the reference the indexed
// operator must match emission for emission.
func sweepOnWatermark(w *WindowOp, wm int64, out Collector) {
	w.out = out
	for _, key := range w.buf.SortedKeys() {
		entries, _ := w.buf.Get(key)
		due := false
		for i := range entries {
			if entries[i].Ts <= wm {
				due = true
				break
			}
		}
		if !due {
			continue
		}
		entries, _ = w.buf.GetMut(key)
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Ts < entries[j].Ts })
		e := w.engineFor(key)
		w.curKey = key
		i := 0
		for ; i < len(entries) && entries[i].Ts <= wm; i++ {
			e.OnWatermark(entries[i].Ts)
			e.OnElement(entries[i].Ts, entries[i].Val)
		}
		if i == len(entries) {
			w.buf.Delete(key)
		} else {
			w.buf.Put(key, entries[i:])
		}
	}
	for _, key := range w.engines.SortedKeys() {
		w.curKey = key
		w.engineFor(key).OnWatermark(wm)
	}
	w.wm.SetAll(wm)
	w.out = nil
}

// oracleStep is one event of a generated schedule: a data run, or (run == nil)
// a watermark.
type oracleStep struct {
	run []Record
	wm  int64
}

const oracleKeys = 240

// oracleSchedule generates a random interleaving of data runs and watermarks
// over oracleKeys keys: skewed keys, bounded disorder with a share of late
// records, non-float64 values, repeated watermarks, one jump far ahead, and
// the end-of-stream watermark last.
func oracleSchedule(rng *rand.Rand) []oracleStep {
	var steps []oracleStep
	now, lastWM := int64(0), int64(math.MinInt64)
	watermark := func(wm int64) {
		lastWM = max(lastWM, wm)
		steps = append(steps, oracleStep{wm: lastWM})
	}
	for i := 0; i < 400; i++ {
		switch c := rng.Intn(10); {
		case c < 6:
			run := make([]Record, 1+rng.Intn(80))
			for j := range run {
				key := uint64(rng.Intn(oracleKeys))
				if rng.Intn(2) == 0 {
					key = uint64(rng.Intn(8)) // hot keys: long sessions, full count windows
				}
				// Dyadic values: sums are exact however a restored engine
				// re-associates them.
				run[j] = Data(now+int64(rng.Intn(30))-12, key, float64(rng.Intn(1024))/1024)
				if rng.Intn(50) == 0 {
					run[j].Value = "not a float"
				}
				now += int64(rng.Intn(3))
			}
			steps = append(steps, oracleStep{run: run})
		case c < 9:
			watermark(now - int64(rng.Intn(15)))
		default:
			watermark(lastWM) // repeated
		}
		if i == 250 {
			now += 5000 // every time window and session falls due at once
			watermark(now)
		}
	}
	return append(steps, oracleStep{wm: math.MaxInt64})
}

var oracleSpecs = map[string][]WindowQuery{
	"tumbling":       {{Spec: window.Tumbling(50), Fn: agg.SumF64()}},
	"sliding":        {{Spec: window.Sliding(120, 30), Fn: agg.CountF64()}},
	"session":        {{Spec: window.Session(25), Fn: agg.SumF64()}},
	"session-maxdur": {{Spec: window.SessionWithMaxDuration(25, 90), Fn: agg.MaxF64()}},
	"count":          {{Spec: window.CountTumbling(7), Fn: agg.SumF64()}},
	"count-sliding":  {{Spec: window.CountSliding(9, 3), Fn: agg.AvgF64()}},
	"punctuation":    {{Spec: window.Punctuation(func(v float64) bool { return v < 0.15 }), Fn: agg.CountF64()}},
	"delta":          {{Spec: window.Delta(0.4), Fn: agg.SumF64()}},
	"time-or-count":  {{Spec: window.TimeOrCount(60, 5), Fn: agg.SumF64()}},
	"mix": {
		{Spec: window.Tumbling(50), Fn: agg.SumF64()},
		{Spec: window.Sliding(120, 30), Fn: agg.CountF64()},
		{Spec: window.Session(25), Fn: agg.MaxF64()},
		{Spec: window.CountTumbling(7), Fn: agg.AvgF64()},
		{Spec: window.TimeOrCount(60, 5), Fn: agg.SumF64()},
	},
}

// oracleSeeds returns the fixed seeds plus one from the clock, logged so a
// failure it finds can be pinned.
func oracleSeeds(t *testing.T) []int64 {
	clock := time.Now().UnixNano()
	t.Logf("clock seed %d", clock)
	return []int64{1, 2, 3, clock}
}

// checkTimerInvariant asserts what lets a watermark skip engines: after
// OnWatermark(wm) no engine — visited or not — has anything left to emit at
// or below wm.
func checkTimerInvariant(t *testing.T, op *WindowOp, wm int64, where string) {
	t.Helper()
	if wm == math.MaxInt64 {
		return
	}
	op.engines.Range(func(key uint64, e *cutty.Engine) bool {
		if nf := e.NextFire(); nf <= wm {
			t.Fatalf("%s: key %d skipped at watermark %d with NextFire %d", where, key, wm, nf)
		}
		return true
	})
}

// TestWindowOpTimerIndexMatchesSweep is the oracle test of the event-time
// timer index: over random schedules and every built-in window type, the
// indexed operator emits exactly the records — values and order — of an
// operator that visits every engine on every watermark, and drops the same
// late records.
func TestWindowOpTimerIndexMatchesSweep(t *testing.T) {
	seeds := oracleSeeds(t)
	for name, queries := range oracleSpecs {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				op, ref := newWindowOp(t, queries...), newWindowOp(t, queries...)
				emitted := 0
				for i, st := range oracleSchedule(rand.New(rand.NewSource(seed))) {
					where := fmt.Sprintf("seed %d step %d", seed, i)
					if st.run != nil {
						op.OnBatch(append([]Record{}, st.run...), nil)
						ref.OnBatch(append([]Record{}, st.run...), nil)
						continue
					}
					got, want := &capCollector{}, &capCollector{}
					op.OnWatermark(st.wm, got)
					sweepOnWatermark(ref, st.wm, want)
					if !reflect.DeepEqual(got.recs, want.recs) {
						t.Fatalf("%s, watermark %d: emissions diverged\n got %+v\nwant %+v", where, st.wm, got.recs, want.recs)
					}
					checkTimerInvariant(t, op, st.wm, where)
					emitted += len(got.recs)
				}
				if op.DroppedLate() != ref.DroppedLate() || op.DroppedLate() == 0 {
					t.Fatalf("seed %d: DroppedLate = %d, sweep %d (want equal and > 0)", seed, op.DroppedLate(), ref.DroppedLate())
				}
				if emitted == 0 || op.engines.Len() < 200 {
					t.Fatalf("seed %d: schedule too thin: %d results over %d keys", seed, emitted, op.engines.Len())
				}
			}
		})
	}
}

// TestWindowOpTimerIndexRebuiltOnRestore captures the indexed operator at a
// random point of the schedule and restores it at parallelism 2. The index is
// not in the snapshot; each restored subtask rebuilds it from its engines and
// must emit, for the rest of the schedule, exactly what the uninterrupted
// sweep reference emits for the keys that subtask now owns.
func TestWindowOpTimerIndexRebuiltOnRestore(t *testing.T) {
	const par = 2
	owner := func(key uint64) int {
		ng := state.DefaultNumKeyGroups
		return state.SubtaskForGroup(state.KeyGroupFor(key, ng), ng, par)
	}
	ownedBy := func(recs []Record, sub int) []Record {
		var out []Record
		for _, r := range recs {
			if owner(r.Key) == sub {
				out = append(out, r)
			}
		}
		return out
	}
	for _, seed := range oracleSeeds(t) {
		queries := oracleSpecs["mix"]
		steps := oracleSchedule(rand.New(rand.NewSource(seed)))
		cut := 50 + rand.New(rand.NewSource(seed)).Intn(len(steps)-100)

		op, ref := newWindowOp(t, queries...), newWindowOp(t, queries...)
		for _, st := range steps[:cut] {
			if st.run != nil {
				op.OnBatch(append([]Record{}, st.run...), nil)
				ref.OnBatch(append([]Record{}, st.run...), nil)
				continue
			}
			op.OnWatermark(st.wm, &capCollector{})
			sweepOnWatermark(ref, st.wm, &capCollector{})
		}
		droppedBefore := ref.DroppedLate()
		groups := captureGroups(t, op)

		var subs [par]*WindowOp
		for sub := range subs {
			start, end := state.GroupRangeFor(state.DefaultNumKeyGroups, par, sub)
			mine := map[int][]byte{}
			for g, blob := range groups {
				if g >= start && g < end {
					mine[g] = blob
				}
			}
			subs[sub] = NewWindowOp(queries...)().(*WindowOp)
			if err := subs[sub].Open(&OpContext{Subtask: sub, Parallelism: par, RestoreGroups: mine}); err != nil {
				t.Fatal(err)
			}
		}
		for i, st := range steps[cut:] {
			where := fmt.Sprintf("seed %d cut %d step %d", seed, cut, cut+i)
			if st.run != nil {
				ref.OnBatch(append([]Record{}, st.run...), nil)
				for sub, s := range subs {
					s.OnBatch(ownedBy(st.run, sub), nil)
				}
				continue
			}
			want := &capCollector{}
			sweepOnWatermark(ref, st.wm, want)
			for sub, s := range subs {
				got := &capCollector{}
				s.OnWatermark(st.wm, got)
				if !reflect.DeepEqual(got.recs, ownedBy(want.recs, sub)) {
					t.Fatalf("%s, subtask %d, watermark %d: emissions diverged\n got %+v\nwant %+v",
						where, sub, st.wm, got.recs, ownedBy(want.recs, sub))
				}
				checkTimerInvariant(t, s, st.wm, where)
			}
		}
		if got := subs[0].DroppedLate() + subs[1].DroppedLate(); got != ref.DroppedLate()-droppedBefore {
			t.Fatalf("seed %d: restored subtasks dropped %d late records, sweep %d", seed, got, ref.DroppedLate()-droppedBefore)
		}
	}
}

// TestWindowJoinTimerIndexMatchesScan checks the join on the same index
// against a reference that scans every key on every watermark: same pairs,
// keys ascending, a key's windows by start.
func TestWindowJoinTimerIndexMatchesScan(t *testing.T) {
	const size = 40
	for _, seed := range oracleSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		op := &WindowJoinOp{Size: size}
		if err := op.Open(&OpContext{}); err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]map[int64]joinSides{}
		pairs := 0
		for i, st := range oracleSchedule(rng) {
			if st.run != nil {
				edge := rng.Intn(2)
				if rng.Intn(2) == 0 {
					op.OnBatchEdge(edge, append([]Record{}, st.run...), nil)
				} else {
					for _, r := range st.run {
						op.OnBatchEdge(edge, []Record{r}, nil)
					}
				}
				for _, r := range st.run {
					v, ok := r.Value.(float64)
					if !ok {
						continue
					}
					start := r.Ts - ((r.Ts%size)+size)%size
					if ref[r.Key] == nil {
						ref[r.Key] = map[int64]joinSides{}
					}
					b := ref[r.Key][start]
					if edge == 0 {
						b.Left = append(b.Left, v)
					} else {
						b.Right = append(b.Right, v)
					}
					ref[r.Key][start] = b
				}
				continue
			}
			var want []Record
			keys := make([]uint64, 0, len(ref))
			for key := range ref {
				keys = append(keys, key)
			}
			sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
			for _, key := range keys {
				var starts []int64
				for start := range ref[key] {
					if start+size <= st.wm {
						starts = append(starts, start)
					}
				}
				sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
				for _, start := range starts {
					for _, l := range ref[key][start].Left {
						for _, r := range ref[key][start].Right {
							want = append(want, Data(start+size-1, key, JoinedPair{WindowStart: start, WindowEnd: start + size, Left: l, Right: r}))
						}
					}
					delete(ref[key], start)
				}
			}
			got := &capCollector{}
			op.OnWatermark(st.wm, got)
			if !reflect.DeepEqual(got.recs, want) {
				t.Fatalf("seed %d step %d, watermark %d: join diverged: %d pairs, want %d", seed, i, st.wm, len(got.recs), len(want))
			}
			pairs += len(want)
		}
		if pairs == 0 || op.wins.Len() != 0 {
			t.Fatalf("seed %d: %d pairs joined, %d keys left after the end-of-stream watermark", seed, pairs, op.wins.Len())
		}
	}
}

// TestTimerIndex pins the index's own rules: one live deadline per key, an
// earlier deadline supersedes, a later one is ignored, expired keys come back
// disarmed and in ascending order.
func TestTimerIndex(t *testing.T) {
	var ti timerIndex
	ti.init(&OpContext{})
	ti.arm(7, 30)
	ti.arm(3, 30)
	ti.arm(5, 10)
	ti.arm(9, math.MaxInt64) // nothing pending: never armed
	ti.arm(7, 20)            // earlier: supersedes the entry at 30
	ti.arm(7, 25)            // later than armed: ignored
	if got := ti.expire(9); len(got) != 0 {
		t.Fatalf("expire(9) = %v, want nothing", got)
	}
	if got := ti.expire(20); !reflect.DeepEqual(got, []uint64{5, 7}) {
		t.Fatalf("expire(20) = %v, want [5 7]", got)
	}
	ti.arm(7, 30) // re-armed beside its superseded entry at 30
	if got := ti.expire(math.MaxInt64); !reflect.DeepEqual(got, []uint64{3, 7}) {
		t.Fatalf("expire(max) = %v, want [3 7] once each", got)
	}
	if len(ti.heap) != 0 || len(ti.armed) != 0 {
		t.Fatalf("index not empty: %d entries, %d armed", len(ti.heap), len(ti.armed))
	}
}

// BenchmarkWindowOpWatermark drives the window operator the way a saturated
// source does — a run of 64 records, then a watermark — over the windows
// workload's four queries, at 100 and at 10 000 keys (every key warm, then
// Zipf-skewed traffic). One iteration is one run plus its watermark;
// ns/watermark is the watermark's share and keys/watermark the engines it
// visited. With the timer index the cost follows the keys that fire, not the
// keys the subtask holds: the two sizes differ by far less than 100x.
func BenchmarkWindowOpWatermark(b *testing.B) {
	for _, keys := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("%dkeys", keys), func(b *testing.B) {
			op := NewWindowOp(
				WindowQuery{Spec: window.Tumbling(1000), Fn: agg.SumF64()},
				WindowQuery{Spec: window.Tumbling(1000), Fn: agg.CountF64()},
				WindowQuery{Spec: window.Sliding(10_000, 1000), Fn: agg.AvgF64()},
				WindowQuery{Spec: window.Sliding(60_000, 5000), Fn: agg.MaxF64()},
			)().(*WindowOp)
			reg := metrics.NewRegistry()
			if err := op.Open(&OpContext{NodeName: "win", Metrics: reg}); err != nil {
				b.Fatal(err)
			}
			const lag = 20 // ms of disorder, and the watermark's distance behind
			rng := rand.New(rand.NewSource(1))
			out, run, next := &countCollector{}, make([]Record, 64), int64(0)
			step := func(key func() uint64) time.Duration {
				for j := range run {
					ts := max(next/10-rng.Int63n(lag), 0) // 10 records per event-time ms
					run[j] = Data(ts, key(), 1.0)
					next++
				}
				op.OnBatch(run, out)
				start := time.Now()
				op.OnWatermark(next/10-lag, out)
				return time.Since(start)
			}
			for op.engines.Len() < keys {
				step(func() uint64 { return uint64(next % int64(keys)) })
			}
			// P(rank k) ~ 1/k: the hottest hundredth of the keys takes half the records.
			zipf := func() uint64 { return uint64(math.Pow(float64(keys), rng.Float64())) - 1 }
			fired := reg.Counter("node.win.keys_fired")
			firedBefore := fired.Value()
			b.ReportAllocs()
			b.ResetTimer()
			var inWatermark time.Duration
			for i := 0; i < b.N; i++ {
				inWatermark += step(zipf)
			}
			b.ReportMetric(float64(inWatermark.Nanoseconds())/float64(b.N), "ns/watermark")
			b.ReportMetric(float64(fired.Value()-firedBefore)/float64(b.N), "keys/watermark")
		})
	}
}

type countCollector struct{ n int }

func (c *countCollector) Collect(Record) { c.n++ }
