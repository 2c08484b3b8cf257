package dataflow

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// sweepRef is the reference the window operator must match emission for
// emission: the operator as it was before the timer index and before the
// slice timeline. It runs one cutty.Engine per key whatever the query set,
// releases the reorder buffer on a watermark and then advances every engine it
// holds, on every watermark, and keeps its state in plain maps. It shares no
// code with WindowOp but the engine.
type sweepRef struct {
	queries []WindowQuery
	engines map[uint64]*cutty.Engine
	buf     map[uint64][]bufEntry
	wm      int64
	dropped int64
	curKey  uint64
	out     Collector
}

func newSweepRef(queries ...WindowQuery) *sweepRef {
	return &sweepRef{queries: queries, engines: map[uint64]*cutty.Engine{}, buf: map[uint64][]bufEntry{}, wm: math.MinInt64}
}

func (r *sweepRef) newEngine() *cutty.Engine {
	e := cutty.New(func(res engine.Result) {
		r.out.Collect(Data(res.End, r.curKey, WindowResult{QueryID: res.QueryID, Start: res.Start, End: res.End, Value: res.Value, Count: res.Count}))
	})
	for _, q := range r.queries {
		if _, err := e.AddQuery(engine.Query{Window: q.Spec, Fn: q.Fn}); err != nil {
			panic(err)
		}
	}
	return e
}

func (r *sweepRef) OnBatch(run []Record) {
	for _, rec := range run {
		v, ok := rec.Value.(float64)
		if !ok {
			continue
		}
		if rec.Ts <= r.wm {
			r.dropped++
			continue
		}
		r.buf[rec.Key] = append(r.buf[rec.Key], bufEntry{Ts: rec.Ts, Val: v})
	}
}

func (r *sweepRef) OnWatermark(wm int64, out Collector) {
	r.out = out
	for _, key := range slices.Sorted(maps.Keys(r.buf)) {
		entries := r.buf[key]
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Ts < entries[j].Ts })
		if entries[0].Ts > wm {
			continue
		}
		e := r.engines[key]
		if e == nil {
			e = r.newEngine()
			r.engines[key] = e
		}
		r.curKey = key
		i := 0
		for ; i < len(entries) && entries[i].Ts <= wm; i++ {
			e.OnWatermark(entries[i].Ts)
			e.OnElement(entries[i].Ts, entries[i].Val)
		}
		if r.buf[key] = entries[i:]; i == len(entries) {
			delete(r.buf, key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(r.engines)) {
		r.curKey = key
		r.engines[key].OnWatermark(wm)
	}
	r.wm = wm
	r.out = nil
}

func (r *sweepRef) DroppedLate() int64 { return r.dropped }

// oracleStep is one event of a generated schedule: a data run, or (run == nil)
// a watermark.
type oracleStep struct {
	run []Record
	wm  int64
}

const oracleKeys = 240

// oracleIdleKey shows up once every ninety steps, some two thousand ticks
// apart: under short windows its state is released and it returns as a new
// key, under the 60 000-tick windows it never goes away.
const oracleIdleKey = 100_000

// oracleSchedule generates a random interleaving of data runs and watermarks
// over oracleKeys keys: a stream that starts before time 0, skewed keys,
// bounded disorder with a share of late records, non-float64 values, repeated
// watermarks, one jump far ahead, and the end-of-stream watermark last.
func oracleSchedule(rng *rand.Rand) []oracleStep {
	var steps []oracleStep
	now, lastWM := int64(-150), int64(math.MinInt64)
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
	// One slice over the bound a timeline takes: per-key engines.
	"sliding-long": {{Spec: window.Sliding(10*(periodicSliceBound+1), 10), Fn: agg.SumF64()}},
}

// periodicSliceBound mirrors cutty's bound on a window's length in slices.
const periodicSliceBound = 256

// periodicSpecs are the query sets the slice timeline serves; init adds them
// to oracleSpecs. Hand-picked edges first, then generated sets.
var periodicSpecs = map[string][]WindowQuery{
	"tumbling":            {{Spec: window.Tumbling(50), Fn: agg.SumF64()}},
	"sliding":             {{Spec: window.Sliding(120, 30), Fn: agg.CountF64()}},
	"p-size-not-multiple": {{Spec: window.Sliding(70, 30), Fn: agg.SumF64()}},
	// Slice width 10, smaller than every slide (the 2000/3000 case, scaled).
	"p-narrow-slices": {
		{Spec: window.Sliding(60, 20), Fn: agg.MaxF64()},
		{Spec: window.Sliding(90, 30), Fn: agg.SumF64()},
	},
	"p-shared-function": {
		{Spec: window.Tumbling(50), Fn: agg.SumF64()},
		{Spec: window.Sliding(150, 50), Fn: agg.SumF64()},
		{Spec: window.Tumbling(100), Fn: agg.CountF64()},
	},
	"p-at-the-bound": {{Spec: window.Sliding(10*periodicSliceBound, 10), Fn: agg.CountF64()}},
	"windows":        windowsQueries(1),
	"windows-scaled": windowsQueries(100),
}

// windowsQueries is the windows workload's query set, sizes divided by scale.
func windowsQueries(scale int64) []WindowQuery {
	return []WindowQuery{
		{Spec: window.Tumbling(1000 / scale), Fn: agg.SumF64()},
		{Spec: window.Tumbling(1000 / scale), Fn: agg.CountF64()},
		{Spec: window.Sliding(10_000/scale, 1000/scale), Fn: agg.AvgF64()},
		{Spec: window.Sliding(60_000/scale, 5000/scale), Fn: agg.MaxF64()},
	}
}

func init() {
	// Var is left out: its Combine is associative only up to rounding, and a
	// FlatFAT range and a left fold associate differently.
	fns := []func() *agg.FnF64{agg.SumF64, agg.CountF64, agg.MinF64, agg.MaxF64, agg.AvgF64}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		var qs []WindowQuery
		for n := 1 + rng.Intn(5); n > 0; n-- {
			slide := int64(1 + rng.Intn(40))
			size := slide * int64(1+rng.Intn(4))
			if rng.Intn(2) == 0 {
				size += rng.Int63n(slide) // not a multiple of the slide
			}
			qs = append(qs, WindowQuery{Spec: window.Sliding(size, slide), Fn: fns[rng.Intn(len(fns))]()})
		}
		periodicSpecs[fmt.Sprintf("p-gen-%d", i)] = qs
	}
	for name, qs := range periodicSpecs {
		oracleSpecs[name] = qs
	}
}

// oracleSeeds returns the fixed seeds plus one from the clock, logged so a
// failure it finds can be pinned.
func oracleSeeds(t *testing.T) []int64 {
	clock := time.Now().UnixNano()
	t.Logf("clock seed %d", clock)
	return []int64{1, 2, 3, clock}
}

// checkTimerInvariant asserts what lets a watermark skip keys: after
// OnWatermark(wm) no key — visited or not — has anything left to emit at or
// below wm.
func checkTimerInvariant(t *testing.T, op *WindowOp, wm int64, where string) {
	t.Helper()
	if wm == math.MaxInt64 {
		return
	}
	for _, key := range op.keys() {
		if kw, _ := op.visit(key); kw.NextFire() <= wm {
			t.Fatalf("%s: key %d skipped at watermark %d with NextFire %d", where, key, wm, kw.NextFire())
		}
	}
}

// checkLayout asserts the rule that picks the window state layout: a timeline
// for exactly the periodic sets, an engine per key for everything else.
func checkLayout(t *testing.T, op *WindowOp, spec string) {
	t.Helper()
	if _, periodic := periodicSpecs[spec]; periodic != (op.timeline != nil) {
		t.Fatalf("%s: timeline layout = %v, want %v", spec, op.timeline != nil, periodic)
	}
}

// TestWindowOpTimerIndexMatchesSweep is the oracle test of the window operator — the
// event-time timer index and both window state layouts: over random schedules
// and every built-in window type, alone and in generated periodic sets, the
// operator emits exactly the records — values and order — of the sweep
// reference on every watermark, and drops the same late records.
func TestWindowOpTimerIndexMatchesSweep(t *testing.T) {
	seeds := oracleSeeds(t)
	for name, queries := range oracleSpecs {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				op, ref := newWindowOp(t, queries...), newSweepRef(queries...)
				checkLayout(t, op, name)
				emitted := 0
				for i, st := range oracleSchedule(rand.New(rand.NewSource(seed))) {
					where := fmt.Sprintf("seed %d step %d", seed, i)
					if st.run != nil {
						op.OnBatch(append([]Record{}, st.run...), nil)
						ref.OnBatch(st.run)
						continue
					}
					got, want := &capCollector{}, &capCollector{}
					op.OnWatermark(st.wm, got)
					ref.OnWatermark(st.wm, want)
					if !reflect.DeepEqual(got.recs, want.recs) {
						t.Fatalf("%s, watermark %d: emissions diverged\n got %+v\nwant %+v", where, st.wm, got.recs, want.recs)
					}
					checkTimerInvariant(t, op, st.wm, where)
					emitted += len(got.recs)
				}
				if op.DroppedLate() != ref.DroppedLate() || op.DroppedLate() == 0 {
					t.Fatalf("seed %d: DroppedLate = %d, sweep %d (want equal and > 0)", seed, op.DroppedLate(), ref.DroppedLate())
				}
				if emitted == 0 || len(ref.engines) < 200 {
					t.Fatalf("seed %d: schedule too thin: %d results over %d keys", seed, emitted, len(ref.engines))
				}
				if op.timeline != nil && op.slices.Len() != 0 {
					t.Fatalf("seed %d: %d keys hold state after the end-of-stream watermark", seed, op.slices.Len())
				}
			}
		})
	}
}

// TestWindowOpTimerIndexRebuiltOnRestore captures the operator at a random point of
// the schedule and restores it at parallelism 2. The timer index is not in
// the snapshot; each restored subtask rebuilds it from its keys and must
// emit, for the rest of the schedule, exactly what the uninterrupted sweep
// reference emits for the keys that subtask now owns.
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
	restore := func(t *testing.T, queries []WindowQuery, groups map[int][]byte) (subs [par]*WindowOp) {
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
		return subs
	}
	seeds := oracleSeeds(t)
	for name, queries := range oracleSpecs {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				steps := oracleSchedule(rand.New(rand.NewSource(seed)))
				cut := 50 + rand.New(rand.NewSource(seed)).Intn(len(steps)-100)

				op, ref := newWindowOp(t, queries...), newSweepRef(queries...)
				for _, st := range steps[:cut] {
					if st.run != nil {
						op.OnBatch(append([]Record{}, st.run...), nil)
						ref.OnBatch(st.run)
						continue
					}
					op.OnWatermark(st.wm, &capCollector{})
					ref.OnWatermark(st.wm, &capCollector{})
				}
				droppedBefore := ref.DroppedLate()
				restored := map[string][par]*WindowOp{"own snapshot": restore(t, queries, captureGroups(t, op))}
				for i, st := range steps[cut:] {
					if st.run != nil {
						ref.OnBatch(st.run)
						for _, subs := range restored {
							for sub, s := range subs {
								s.OnBatch(ownedBy(st.run, sub), nil)
							}
						}
						continue
					}
					want := &capCollector{}
					ref.OnWatermark(st.wm, want)
					for from, subs := range restored {
						where := fmt.Sprintf("seed %d cut %d step %d, restored from %s", seed, cut, cut+i, from)
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
				}
				for from, subs := range restored {
					if got := subs[0].DroppedLate() + subs[1].DroppedLate(); got != ref.DroppedLate()-droppedBefore {
						t.Fatalf("seed %d, restored from %s: subtasks dropped %d late records, sweep %d", seed, from, got, ref.DroppedLate()-droppedBefore)
					}
				}
			}
		})
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
// ns/watermark is the watermark's share and keys/watermark the keys it
// visited. With the timer index the cost follows the keys that fire, not the
// keys the subtask holds: the two sizes differ by far less than 100x. The
// capture-active variant takes a snapshot capture before every run and leaves
// it unserialized, so every key the run or the watermark touches pays its
// copy-on-write clone. The two-upstreams variant interleaves a second
// generator running a second of event time ahead, as a job's source subtasks
// drift apart: the watermark is the lagging one's, so some two thousand keys
// stay buffered while a watermark releases a few dozen — with the release
// index that cost follows the keys released, not the keys buffered.
// buffered-keys/watermark and released-keys/watermark report both.
func BenchmarkWindowOpWatermark(b *testing.B) {
	for _, bc := range []struct {
		name    string
		keys    int
		capture bool
		ahead   int64 // event-time lead of the second upstream; 0 = one upstream
	}{
		{"100keys", 100, false, 0},
		{"10000keys", 10_000, false, 0},
		{"10000keys/capture-active", 10_000, true, 0},
		{"10000keys/two-upstreams", 10_000, false, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			keys := bc.keys
			op := NewWindowOp(windowsQueries(1)...)().(*WindowOp)
			reg := metrics.NewRegistry()
			if err := op.Open(&OpContext{NodeName: "win", Metrics: reg}); err != nil {
				b.Fatal(err)
			}
			const lag = 20 // ms of disorder, and the watermark's distance behind
			rng := rand.New(rand.NewSource(1))
			out, run, next := &countCollector{}, make([]Record, 64), int64(0)
			var buffered, released int
			step := func(key func() uint64) time.Duration {
				for j := range run {
					ts := max(next/10-rng.Int63n(lag), 0) // 10 records per event-time ms
					if j%2 == 1 {
						ts += bc.ahead
					}
					run[j] = Data(ts, key(), 1.0)
					next++
				}
				op.OnBatch(run, out)
				start := time.Now()
				op.OnWatermark(next/10-lag, out)
				d := time.Since(start)
				buffered += op.buf.Len()
				released += len(op.release.due)
				return d
			}
			for next < int64(2*keys) {
				step(func() uint64 { return uint64(next % int64(keys)) })
			}
			// P(rank k) ~ 1/k: the hottest hundredth of the keys takes half the records.
			zipf := func() uint64 { return uint64(math.Pow(float64(keys), rng.Float64())) - 1 }
			fired := reg.Counter("node.win.keys_fired")
			firedBefore := fired.Value()
			buffered, released = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			var inWatermark time.Duration
			var capture *state.Captured
			for i := 0; i < b.N; i++ {
				if bc.capture {
					if capture != nil {
						capture.Release()
					}
					capture = op.KeyedState().Capture()
				}
				inWatermark += step(zipf)
			}
			b.ReportMetric(float64(inWatermark.Nanoseconds())/float64(b.N), "ns/watermark")
			b.ReportMetric(float64(fired.Value()-firedBefore)/float64(b.N), "keys/watermark")
			b.ReportMetric(float64(buffered)/float64(b.N), "buffered-keys/watermark")
			b.ReportMetric(float64(released)/float64(b.N), "released-keys/watermark")
		})
	}
}

type countCollector struct{ n int }

func (c *countCollector) Collect(Record) { c.n++ }

// BenchmarkWindowOpSessionCOW is the engine layout's copy-on-write cost: a
// session window over 1 000 keys, each holding one open session. An
// iteration takes a capture, buffers one element per key and releases all
// of them with one watermark — every key's engine is cloned (cloneEngine)
// before its first mutation under the capture — then lets the capture go.
// ns/key is the iteration's cost per key.
func BenchmarkWindowOpSessionCOW(b *testing.B) {
	const keys = 1000
	op := NewWindowOp(WindowQuery{Spec: window.Session(5), Fn: agg.SumF64()})().(*WindowOp)
	if err := op.Open(&OpContext{}); err != nil {
		b.Fatal(err)
	}
	out, run, ts := &countCollector{}, make([]Record, keys), int64(0)
	step := func() {
		ts += 10 // each element opens a session and the watermark closes the one before
		for k := range run {
			run[k] = Data(ts, uint64(k), 1.0)
		}
		op.OnBatch(run, out)
		op.OnWatermark(ts, out)
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := op.ks.Capture()
		step()
		c.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
}
