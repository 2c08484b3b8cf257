package dataflow

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/agg"
	"repro/internal/cutty"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// WindowQuery names a window aggregation declaratively so that the operator
// can be reconstructed on recovery (specs and functions live in the job
// definition; only mutable state is checkpointed).
type WindowQuery struct {
	Spec window.Spec
	Fn   *agg.FnF64
}

// WindowOp is the keyed window aggregation operator. It receives keyed
// float64 records (after a hash edge), restores event-time order with a
// watermark-driven reorder buffer (merging the per-upstream in-order streams
// re-introduces disorder), and feeds each key's elements, in order, to that
// key's window state. Window results are emitted as records whose Value is a
// WindowResult and whose Ts is the window end.
//
// Window state has two layouts, and nothing selects between them but the
// query set (cutty.NewTimeline decides in Open). When every query is a
// periodic time window (tumbling, sliding) short enough in slices, the slice
// edges are the same for every key: the subtask keeps one cutty.Timeline and
// per key a cutty.KeySlices — the partials of the slices that key has data
// in — and deletes a key whose last slice is evicted, so state is
// proportional to live keys x occupied slices. Any other set (session, count,
// punctuation, delta, time-or-count, a mix of those with periodic windows, a
// window too long for a linear fold) runs one cutty.Engine per key.
//
// Emission order is a contract and the same in both layouts: per watermark,
// the keys with released elements ascending, then the keys with a window due
// ascending; per key, everything due at ts fires before an element at ts is
// folded, query-major (ascending query id), ascending window start within a
// query.
//
// All mutable state — the per-key window state, the per-key reorder buffers
// and the per-group release watermark — lives in a state.KeyedState, so the
// operator snapshots per key group (asynchronously, behind a copy-on-write
// capture) and restores at any parallelism.
//
// A watermark visits only the keys with an element or a window due, through
// two timerIndexes. release holds each buffered key at or before its
// earliest buffered timestamp, so a watermark releases the keys it has
// reached and never looks at the ones whose elements are all still ahead of
// it. timers holds each key at or before the smallest watermark at which its
// window state would emit anything (NextFire), so a watermark advances only
// the keys it has reached — the rest catch up lazily, when their next
// element or deadline arrives. Neither is looked up: a key is armed only
// when its deadline moved earlier (OnBatch, leave), it is new, or its index
// just returned it. The invariants: for every key not released at wm, every
// buffered element is newer than wm; for every key not fired at wm,
// NextFire() > wm, so visiting it would emit nothing. Both indexes are
// derived from the keyed state and not checkpointed (a restore at another
// parallelism regroups the keys anyway): Open rebuilds them from the
// restored buffers and window state.
type WindowOp struct {
	Queries []WindowQuery

	out Collector
	ks  *state.KeyedState
	// The layout: timeline and slices, or (timeline == nil) engines.
	timeline    *cutty.Timeline
	slices      *state.MapCell[*cutty.KeySlices]
	engines     *state.MapCell[*cutty.Engine]
	cloneBuf    []byte // cloneEngine's scratch
	buf         *state.MapCell[[]bufEntry]
	wm          *state.GroupCell[int64]
	release     timerIndex // buffered key -> its earliest buffered timestamp
	timers      timerIndex // key -> its window state's NextFire
	curKey      uint64
	box         Boxer[WindowResult]
	droppedLate int64
	droppedCtr  *metrics.Counter

	// State size — keys holding window state and their slices, kept by visit
	// and leave — and what of it this subtask has added to the node's gauges.
	liveKeys, liveSlices   int64
	shownKeys, shownSlices int64
	keysGauge, slicesGauge *metrics.Gauge

	// Run scratch (see OnBatch), reused across calls.
	kt     keyTable
	recIdx []int32    // per record: dense key index, -1 = skipped (non-float64)
	segLen []int32    // per dense key: element count in the run
	segOff []int32    // per dense key: gather cursor (segment end after fill)
	gather []bufEntry // run elements grouped by key, record order within a key
}

// Config implements Configured: each query's window and aggregate.
func (w *WindowOp) Config() string {
	var b strings.Builder
	for _, q := range w.Queries {
		fmt.Fprintf(&b, "%s(%d,%d,%s)/%s;", q.Spec.Name, q.Spec.Size, q.Spec.Slide, q.Spec.Args, q.Fn.Name)
	}
	return b.String()
}

// keyWindows is one key's window state while OnWatermark visits it: the key's
// cutty.Engine, or the subtask's cutty.Timeline pointed at the key's slices.
type keyWindows interface {
	OnWatermark(wm int64)
	OnElement(ts int64, v float64)
	NextFire() int64
	Slices() int
}

// bufEntry is one buffered, not-yet-released element of a key's reorder
// buffer.
type bufEntry struct {
	Ts  int64
	Val float64
}

// bufCodec encodes a reorder buffer as its length, then per entry the
// timestamp as a zigzag delta from the one before and the value.
var bufCodec = state.Codec[[]bufEntry]{
	Append: func(b []byte, es []bufEntry) []byte {
		b, prev := binary.AppendUvarint(b, uint64(len(es))), int64(0)
		for _, e := range es {
			b, prev = state.AppendFloat64(binary.AppendVarint(b, e.Ts-prev), e.Val), e.Ts
		}
		return b
	},
	Read: func(b []byte) ([]bufEntry, []byte, error) {
		n, b, err := state.ReadCount(b, 2)
		es, prev := make([]bufEntry, n), int64(0)
		for i := 0; i < n && err == nil; i++ {
			var d int64
			if d, b, err = state.ReadVarint(b); err == nil {
				prev += d
				es[i].Ts = prev
				es[i].Val, b, err = state.ReadFloat64(b)
			}
		}
		return es, b, err
	},
	Clone: slices.Clone[[]bufEntry],
}

var _ Operator = (*WindowOp)(nil)
var _ KeyedStateful = (*WindowOp)(nil)

// NewWindowOp returns an operator factory running the given queries.
func NewWindowOp(queries ...WindowQuery) OperatorFactory {
	return func() Operator { return &WindowOp{Queries: queries} }
}

func (w *WindowOp) newEngine() *cutty.Engine {
	e := cutty.New(w.emitResult)
	for _, q := range w.Queries {
		if _, err := e.AddQuery(engine.Query{Window: q.Spec, Fn: q.Fn}); err != nil {
			// Queries are validated at graph build; this is unreachable in a
			// validated job.
			panic(fmt.Sprintf("dataflow: window query rejected: %v", err))
		}
	}
	return e
}

// cloneEngine deep-copies an engine through its typed state — the
// copy-on-write path taken when a key is mutated while its captured state
// is still being serialized. The encoding goes through one scratch buffer
// the operator reuses.
func (w *WindowOp) cloneEngine(e *cutty.Engine) *cutty.Engine {
	w.cloneBuf = e.AppendState(w.cloneBuf[:0])
	ne := w.newEngine()
	if _, err := ne.ReadState(w.cloneBuf); err != nil {
		panic(fmt.Sprintf("dataflow: window engine clone: %v", err))
	}
	return ne
}

func (w *WindowOp) emitResult(r engine.Result) {
	w.out.Collect(Data(r.End, w.curKey, w.box.Box(WindowResult{
		QueryID: r.QueryID,
		Start:   r.Start,
		End:     r.End,
		Value:   r.Value,
		Count:   r.Count,
	})))
}

// Open implements Operator.
func (w *WindowOp) Open(ctx *OpContext) error {
	w.ks = ctx.NewKeyedState()
	queries := make([]engine.Query, len(w.Queries))
	for i, q := range w.Queries {
		queries[i] = engine.Query{Window: q.Spec, Fn: q.Fn}
	}
	if tl, ok := cutty.NewTimeline(w.emitResult, queries); ok {
		w.timeline = tl
		w.slices = state.RegisterMap(w.ks, "slices", state.Codec[*cutty.KeySlices]{
			Append: cutty.AppendKeySlices,
			Read:   tl.Decode,
			Clone:  (*cutty.KeySlices).Clone,
		})
	} else {
		w.engines = state.RegisterMap(w.ks, "engines", state.Codec[*cutty.Engine]{
			Append: func(b []byte, e *cutty.Engine) []byte { return e.AppendState(b) },
			Read: func(b []byte) (*cutty.Engine, []byte, error) {
				e := w.newEngine()
				rest, err := e.ReadState(b)
				return e, rest, err
			},
			Clone: w.cloneEngine,
		})
	}
	w.buf = state.RegisterMap(w.ks, "buf", bufCodec)
	w.wm = state.RegisterPerGroup(w.ks, "wm", int64(math.MinInt64), state.ValueCodec[int64]())
	if ctx.Metrics != nil {
		w.droppedCtr = ctx.Metrics.Counter("node." + ctx.NodeName + ".records_dropped_late")
		w.keysGauge = ctx.Metrics.Gauge("node." + ctx.NodeName + ".window_keys")
		w.slicesGauge = ctx.Metrics.Gauge("node." + ctx.NodeName + ".window_slices")
	}
	if err := ctx.RestoreKeyedState(w.ks); err != nil {
		return err
	}
	// The release index counts nothing (no init): the node's watermarks /
	// keys_fired are the timer index's.
	for _, key := range w.buf.SortedKeys() {
		if entries, _ := w.buf.Get(key); len(entries) == 0 {
			w.buf.Delete(key) // a blob may hold an empty buffer; nothing to release
		} else {
			w.release.arm(key, slices.MinFunc(entries, byTs).Ts)
		}
	}
	w.timers.init(ctx)
	restored := w.keys()
	w.liveKeys = int64(len(restored))
	for _, key := range restored {
		kw, _ := w.visit(key)
		w.leave(key, kw, 0, math.MaxInt64)
	}
	return nil
}

// KeyedState implements KeyedStateful.
func (w *WindowOp) KeyedState() *state.KeyedState { return w.ks }

// Snapshot implements Operator. All window state is keyed and travels per
// key group through KeyedState; there is no residual per-subtask state.
func (w *WindowOp) Snapshot() ([]byte, error) { return nil, nil }

// OnBatch implements Operator: buffer until the watermark releases. Late
// elements — older than their key group's release watermark — are dropped
// (allowed lateness zero): releasing them would feed the per-key engines
// out-of-order input. The count of dropped records is observable via
// DroppedLate and, when the job runs with metrics, the per-node
// records_dropped_late counter.
//
// The run is grouped by key (counting sort into a reused gather buffer), then
// each distinct key pays one release-watermark read, one reorder-buffer load,
// one store and at most one release-index arm for all its elements instead of
// one of each per record. Appending a key's survivors in a single append also
// grows the buffer once per run instead of element by element. The release
// watermark only moves in OnWatermark — never inside a run — so one read per
// key is exact. OnBatch emits nothing: results fire on watermarks.
func (w *WindowOp) OnBatch(b []Record, _ Collector) []Record {
	w.kt.reset()
	w.recIdx = w.recIdx[:0]
	w.segLen = w.segLen[:0]
	for i := range b {
		if _, ok := b[i].Value.(float64); !ok {
			w.recIdx = append(w.recIdx, -1)
			continue
		}
		idx, fresh := w.kt.index(b[i].Key)
		if fresh {
			w.segLen = append(w.segLen, 0)
		}
		w.segLen[idx]++
		w.recIdx = append(w.recIdx, idx)
	}
	keys := w.kt.distinct()
	if len(keys) == 0 {
		return nil
	}
	w.segOff = w.segOff[:0]
	total := int32(0)
	for _, n := range w.segLen {
		w.segOff = append(w.segOff, total)
		total += n
	}
	if cap(w.gather) < int(total) {
		w.gather = make([]bufEntry, total)
	} else {
		w.gather = w.gather[:total]
	}
	for i := range b {
		d := w.recIdx[i]
		if d < 0 {
			continue
		}
		w.gather[w.segOff[d]] = bufEntry{Ts: b[i].Ts, Val: b[i].Value.(float64)}
		w.segOff[d]++
	}
	var dropped int64
	for d, key := range keys {
		end := w.segOff[d]
		seg := w.gather[end-w.segLen[d] : end]
		wm := w.wm.Get(key)
		keep, first := seg[:0], int64(math.MaxInt64)
		for _, e := range seg {
			if e.Ts <= wm {
				dropped++
			} else {
				keep = append(keep, e)
				first = min(first, e.Ts)
			}
		}
		if len(keep) == 0 {
			continue
		}
		ref := w.buf.RefFor(key)
		entries, _ := ref.Get()
		// Appending never mutates the visible prefix, so a captured view of
		// the old slice header stays intact and Get+Put (not GetMut) is
		// COW-safe here; sorting and compacting in OnWatermark go through
		// GetMut.
		ref.Put(append(entries, keep...))
		// The key holds a release entry at or before its first buffered
		// element (a remainder is sorted when released): only an earlier
		// element needs one.
		if len(entries) == 0 || first < entries[0].Ts {
			w.release.arm(key, first)
		}
	}
	if dropped > 0 {
		w.droppedLate += dropped
		if w.droppedCtr != nil {
			w.droppedCtr.Add(dropped)
		}
	}
	return nil
}

// DroppedLate reports how many elements arrived after the watermark had
// passed their timestamp and were therefore excluded.
func (w *WindowOp) DroppedLate() int64 { return w.droppedLate }

// keys returns the keys holding window state, ascending.
func (w *WindowOp) keys() []uint64 {
	if w.timeline != nil {
		return w.slices.SortedKeys()
	}
	return w.engines.SortedKeys()
}

// visit returns key's window state for mutation (while a capture serializes,
// a private copy: two slice copies for a timeline key, a snapshot round trip
// for an engine), creating it on demand, and how many slices it holds.
func (w *WindowOp) visit(key uint64) (keyWindows, int) {
	w.curKey = key
	if w.timeline == nil {
		e, ok := w.engines.GetMut(key)
		if !ok {
			e = w.newEngine()
			w.engines.Put(key, e)
			w.liveKeys++
		}
		return e, e.Slices()
	}
	k, ok := w.slices.GetMut(key)
	if !ok {
		k = cutty.NewKeySlices()
		w.slices.Put(key, k)
		w.liveKeys++
	}
	return w.timeline.Visit(k), len(k.Slots)
}

// leave ends a visit that found the key holding had slices: the key's timer
// is re-armed, or — nothing pending, no slice left (timeline layout), an idle
// engine (engine layout) — its state is released. A key that returns starts
// over: every later element is newer than the release watermark, so no
// window fires twice.
//
// armed bounds the key's timer entry: its NextFire when the visit began, or
// math.MaxInt64 for a key the index does not hold (new, or just expired).
// Only a NextFire earlier than that needs an entry.
func (w *WindowOp) leave(key uint64, kw keyWindows, had int, armed int64) {
	w.liveSlices += int64(kw.Slices() - had)
	next := kw.NextFire()
	switch {
	case w.timeline != nil && next == math.MaxInt64:
		w.slices.Delete(key)
	case w.timeline == nil && kw.(*cutty.Engine).Idle():
		w.engines.Delete(key)
	default:
		if next < armed {
			w.timers.arm(key, next)
		}
		return
	}
	w.liveKeys--
}

// timerStands is the fire index's check of a popped entry. On the timeline a
// deadline is a window end, pending until the key is advanced past it, so
// every popped entry's key is due or was just released past it. An engine's
// deadline can move later without firing (a growing session) or go with an
// idle engine: its entry stands while it is not later than NextFire.
func (w *WindowOp) timerStands(key uint64, at int64) bool {
	if w.timeline != nil {
		return true
	}
	e, ok := w.engines.Get(key)
	return ok && at <= e.NextFire()
}

func byTs(a, b bufEntry) int { return cmp.Compare(a.Ts, b.Ts) }

// OnWatermark implements Operator: for each key whose release deadline wm
// has reached, release its buffered records with ts <= wm in event-time
// order into the key's window state and re-arm both of the key's deadlines;
// then advance the keys whose timer wm has reached — each loop in ascending
// key order, the order results are emitted in — and the per-group release
// watermark. The other keys would release and emit nothing (the two
// invariants), and their own event time need only catch up before their
// next element, which the release loop sees to. The end-of-stream watermark
// closes windows no deadline announces (count, punctuation, delta), so it
// releases every buffered key and visits every key that still holds state.
//
// The results must be out before the runtime forwards the watermark
// downstream, or a downstream event-time operator would drop them as late.
// While a snapshot capture is serializing, each key touched — released into
// or due, not every key — pays its copy-on-write clone once.
func (w *WindowOp) OnWatermark(wm int64, out Collector) {
	w.out = out
	released := w.release.expire(wm, nil)
	if wm == math.MaxInt64 {
		released = w.buf.SortedKeys() // also a key holding only ts MaxInt64, never armed
	}
	for _, key := range released {
		entries, _ := w.buf.Get(key)
		// Mostly in order already (one upstream, bounded jitter): sort, and
		// take the private copy that sorting in place needs, only if not.
		if !slices.IsSortedFunc(entries, byTs) {
			entries, _ = w.buf.GetMut(key)
			slices.SortStableFunc(entries, byTs)
		}
		kw, had := w.visit(key)
		armed := kw.NextFire()
		i := 0
		for ; i < len(entries) && entries[i].Ts <= wm; i++ {
			kw.OnWatermark(entries[i].Ts)
			kw.OnElement(entries[i].Ts, entries[i].Val)
		}
		if i == len(entries) {
			w.buf.Delete(key)
		} else {
			w.buf.Put(key, entries[i:])
			w.release.arm(key, entries[i].Ts)
		}
		w.leave(key, kw, had, armed)
	}
	var fired []uint64
	if wm == math.MaxInt64 {
		fired = w.keys()
	} else {
		fired = w.timers.expire(wm, w.timerStands)
	}
	for _, key := range fired {
		kw, had := w.visit(key)
		kw.OnWatermark(wm)
		w.leave(key, kw, had, math.MaxInt64)
	}
	w.timers.count(len(fired))
	w.wm.SetAll(wm)
	if w.keysGauge != nil {
		w.keysGauge.Add(w.liveKeys - w.shownKeys)
		w.slicesGauge.Add(w.liveSlices - w.shownSlices)
		w.shownKeys, w.shownSlices = w.liveKeys, w.liveSlices
	}
	w.out = nil
}

// Finish implements Operator: flush every remaining window.
func (w *WindowOp) Finish(out Collector) {
	w.OnWatermark(math.MaxInt64, out)
}
