// Package cutty implements the Cutty aggregate-sharing engine (Carbone,
// Traub, Katsifodimos, Haridi, Markl: "Cutty: Aggregate Sharing for
// User-Defined Windows", CIKM 2016), the first research highlight of the
// STREAMLINE paper.
//
// The central idea: for *deterministic* user-defined window functions, it is
// sufficient to cut the stream into non-overlapping slices at window-begin
// boundaries (the union of begins across all registered queries). Every
// window is then a union of whole slices, so
//
//   - each element is lifted and combined into exactly one slice partial per
//     distinct aggregate function — O(1) aggregation work per element
//     regardless of how many queries or how finely windows overlap, and
//   - each completed window is answered with O(log s) combines by a range
//     query over a FlatFAT aggregate tree built on the slice partials,
//     where s is the number of live slices.
//
// This is what produces the order-of-magnitude gap over bucket-per-window
// and element-granularity sharing (B-Int) measured in experiments E1–E5,
// and — unlike Pairs and Panes — it applies to non-periodic windows such as
// sessions, punctuations and delta windows.
//
// The package holds the slicing in two layouts. Engine is the general one: it
// learns its slice edges from the window functions as the stream goes by, so
// it serves every deterministic window, and it is one stream's worth of state
// — slice ring, one FlatFAT per function, assigners, open-window lists. For
// a query set made only of periodic time windows the edges are known in
// advance and the same for every key of a keyed stream; Timeline computes
// them and keeps per key nothing but the partials of occupied slices
// (KeySlices). The keyed window operator of the dataflow layer runs a
// Timeline per subtask for such a set and an Engine per key for any other;
// NewTimeline decides, from the queries alone.
package cutty

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/window"
)

// sliceMeta describes one slice: the timestamp of its first element and the
// number of elements folded into it.
type sliceMeta struct {
	firstTs int64
	count   int64
}

// metaRing stores slice metadata addressed by absolute slice index.
type metaRing struct {
	base  int64 // absolute index of items[0]
	items []sliceMeta
}

func (r *metaRing) len() int64     { return int64(len(r.items)) }
func (r *metaRing) nextAbs() int64 { return r.base + r.len() }
func (r *metaRing) at(abs int64) *sliceMeta {
	return &r.items[abs-r.base]
}

func (r *metaRing) append(m sliceMeta) { r.items = append(r.items, m) }

func (r *metaRing) popFront() {
	r.base++
	if len(r.items) == 1 {
		r.items = r.items[:0] // keep the array for the next slice
		return
	}
	r.items = r.items[1:]
	// Reclaim the unreachable prefix once it dominates the backing array.
	if cap(r.items) > 64 && len(r.items) < cap(r.items)/4 {
		fresh := make([]sliceMeta, len(r.items))
		copy(fresh, r.items)
		r.items = fresh
	}
}

// firstAtOrAfter returns the smallest absolute slice index in [fromAbs,
// nextAbs) whose firstTs >= cutoff, or nextAbs if none (timestamps are
// non-decreasing across slices).
func (r *metaRing) firstAtOrAfter(fromAbs, cutoff int64) int64 {
	lo := int(fromAbs - r.base)
	if lo < 0 {
		lo = 0
	}
	n := len(r.items)
	idx := sort.Search(n-lo, func(i int) bool { return r.items[lo+i].firstTs >= cutoff })
	return r.base + int64(lo+idx)
}

// fnStore is the shared per-aggregate-function state: one FlatFAT over slice
// partials, shared by every query using the same function name.
type fnStore struct {
	fn   *agg.FnF64
	tree agg.FlatFAT[agg.Acc]
	refs int
}

type openWin struct {
	id    int64
	begin int64 // absolute index of the window's first slice
}

type queryState struct {
	id       int
	assigner window.Assigner
	store    int // index in Engine.stores
	open     winList
}

// winList holds a query's open windows in the order they opened. A window
// begins at the next slice, so begins never decrease along the list and the
// first entry's begin is the oldest slice the query still needs. Windows
// mostly close oldest-first, which find answers at the front and remove
// serves by advancing head; a list is also a fraction of a map's footprint,
// and there is one per query per key.
type winList struct {
	wins []openWin // wins[head:] are open
	head int
}

func (l *winList) live() []openWin { return l.wins[l.head:] }

// find returns the index in live() of the open window id, or -1.
func (l *winList) find(id int64) int {
	for i, w := range l.live() {
		if w.id == id {
			return i
		}
	}
	return -1
}

func (l *winList) push(w openWin) {
	// Reclaim the closed prefix before growing: a steady open/close cycle
	// then allocates nothing, and stays O(1) amortized because the array only
	// ever grew (geometrically) while every entry in it was open.
	if len(l.wins) == cap(l.wins) && l.head > 0 {
		l.wins = l.wins[:copy(l.wins, l.live())]
		l.head = 0
	}
	l.wins = append(l.wins, w)
}

// remove drops live()[i].
func (l *winList) remove(i int) {
	if i > 0 {
		l.wins = slices.Delete(l.wins, l.head+i, l.head+i+1)
	} else if l.head++; l.head == len(l.wins) {
		l.wins, l.head = l.wins[:0], 0
	}
}

// Engine is the Cutty multi-query window aggregation engine over one in-order
// stream. It is not safe for concurrent use. The dataflow layer runs one
// engine per key — all of a subtask's engines on the subtask's own goroutine
// — when the query set holds a data-driven window (session, count,
// punctuation, delta, time-or-count) or a periodic window too long in slices
// for Timeline's linear fold; purely periodic sets run on a Timeline instead.
type Engine struct {
	emit engine.Emit

	pos     int64
	curWM   int64
	nextQID int
	// queries (ascending id) and stores are lists of values in insertion
	// order, not maps: the per-element and per-watermark paths iterate them
	// (Go map iteration re-seeds its random start on every call, a real cost
	// when OnElement and OnWatermark run once per record), dispatch — and
	// therefore emission order under multiple queries — is deterministic,
	// and with one engine per key a pair of maps per engine would be a
	// visible share of a window operator's memory; as values they are also
	// one allocation each when Clone copies them. Lookups by id or function
	// name scan; they happen on AddQuery, RemoveQuery and Restore only.
	queries []queryState
	stores  []fnStore

	meta       metaRing
	cutPending bool
	linearEval bool

	// active is the query whose assigner callbacks are being dispatched.
	active *queryState
}

var _ engine.Engine = (*Engine)(nil)

// Option configures an Engine.
type Option func(*Engine)

// WithLinearEval switches window evaluation from O(log s) FlatFAT range
// queries to a linear fold over the window's slices — the evaluation-
// strategy ablation of experiment E11. Slicing and sharing are unchanged.
func WithLinearEval() Option {
	return func(e *Engine) { e.linearEval = true }
}

// New returns an empty Cutty engine emitting completed windows to emit.
func New(emit engine.Emit, opts ...Option) *Engine {
	e := &Engine{emit: emit, curWM: math.MinInt64}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name implements engine.Engine.
func (e *Engine) Name() string { return "cutty" }

// AddQuery implements engine.Engine. Cutty accepts every deterministic
// window spec.
func (e *Engine) AddQuery(q engine.Query) (int, error) {
	if q.Fn == nil || q.Window.Factory == nil {
		return 0, fmt.Errorf("cutty: query requires a window spec and an aggregate function")
	}
	si := e.store(q.Fn.Name)
	if si < 0 {
		si = len(e.stores)
		e.stores = append(e.stores, fnStore{fn: q.Fn, tree: *agg.NewFlatFAT(q.Fn.Identity, q.Fn.Combine, 16)})
		// Align the new tree with the existing slice ring: identity
		// partials for slices that predate the query (its windows can only
		// begin at future slices, so these leaves are never queried).
		for i := int64(0); i < e.meta.len(); i++ {
			e.stores[si].tree.Append(q.Fn.Identity)
		}
	}
	e.stores[si].refs++
	id := e.nextQID
	e.nextQID++
	e.queries = append(e.queries, queryState{
		id:       id,
		assigner: q.Window.Factory(),
		store:    si,
	})
	return id, nil
}

// store returns the index of the aggregate function name's shared state, or
// -1.
func (e *Engine) store(name string) int {
	return slices.IndexFunc(e.stores, func(st fnStore) bool { return st.fn.Name == name })
}

// query returns the index of the registered query id, or -1.
func (e *Engine) query(id int) int {
	return slices.IndexFunc(e.queries, func(q queryState) bool { return q.id == id })
}

// RemoveQuery implements engine.Engine.
func (e *Engine) RemoveQuery(id int) {
	qi := e.query(id)
	if qi < 0 {
		return
	}
	si := e.queries[qi].store
	e.queries = slices.Delete(e.queries, qi, qi+1)
	if e.stores[si].refs--; e.stores[si].refs == 0 {
		e.stores = slices.Delete(e.stores, si, si+1)
		for i := range e.queries {
			if e.queries[i].store > si {
				e.queries[i].store--
			}
		}
	}
	e.evict()
}

// Clone returns an independent deep copy of the engine — the slice ring,
// each store's tree in its physical layout, each query's open windows and
// its assigner's state — emitting to the same function. It is the
// copy-on-write copy of a key whose captured state is still being
// serialized, and answers every later call exactly as the original would.
func (e *Engine) Clone() *Engine {
	c := *e
	c.meta.items = slices.Clone(e.meta.items)
	c.stores = slices.Clone(e.stores)
	for i := range c.stores {
		c.stores[i].tree = e.stores[i].tree.Clone()
	}
	c.queries = slices.Clone(e.queries)
	for i := range c.queries {
		q := &c.queries[i]
		q.open = winList{wins: slices.Clone(q.open.live())}
		q.assigner = q.assigner.(window.Checkpointable).Clone()
	}
	return &c
}

// OnElement implements engine.Engine.
func (e *Engine) OnElement(ts int64, v float64) {
	// 1. Let every query's window function observe the element first; any
	//    Open cuts a slice boundary immediately before it.
	for i := range e.queries {
		q := &e.queries[i]
		e.active = q
		q.assigner.OnElement(ts, e.pos, v, (*ctx)(e))
	}
	e.active = nil
	// 2. Fold the element into the current slice (or start a new one),
	//    once per distinct aggregate function — this is the shared work.
	if e.cutPending || e.meta.len() == 0 {
		e.meta.append(sliceMeta{firstTs: ts, count: 1})
		for i := range e.stores {
			st := &e.stores[i]
			st.tree.Append(st.fn.Lift(v))
		}
		e.cutPending = false
	} else {
		e.meta.at(e.meta.nextAbs()-1).count++
		for i := range e.stores {
			st := &e.stores[i]
			st.tree.UpdateBack(st.fn.Combine(st.tree.Back(), st.fn.Lift(v)))
		}
	}
	e.pos++
}

// OnWatermark implements engine.Engine.
func (e *Engine) OnWatermark(wm int64) {
	// Equal watermarks are idempotent: skip the per-query dispatch.
	if wm <= e.curWM {
		return
	}
	e.curWM = wm
	for i := range e.queries {
		q := &e.queries[i]
		e.active = q
		q.assigner.OnTime(wm, (*ctx)(e))
	}
	e.active = nil
	e.evict()
}

// NextFire reports the smallest watermark at which OnWatermark would emit
// anything: the minimum of the queries' Assigner.NextTime, math.MaxInt64
// when only the end-of-stream watermark closes a window. A caller may skip
// every OnWatermark(wm) with wm < NextFire() — the dataflow layer's timer
// index does — because such a call only advances curWM and re-runs an
// eviction that the next effective call repeats: slices die only when a
// window closes, and OnWatermark(ts) precedes OnElement(ts) on the release
// path, so no assigner ever observes time running backwards.
func (e *Engine) NextFire() int64 {
	next := int64(math.MaxInt64)
	for i := range e.queries {
		next = min(next, e.queries[i].assigner.NextTime())
	}
	return next
}

// StoredPartials implements engine.Engine: live slice partials across all
// function stores.
func (e *Engine) StoredPartials() int {
	n := 0
	for i := range e.stores {
		n += e.stores[i].tree.Len()
	}
	return n
}

// Slices reports the number of live slices (diagnostics, E5).
func (e *Engine) Slices() int { return int(e.meta.len()) }

// Idle reports whether the engine holds nothing a new engine with the same
// queries lacks: no slice, no open window in any query, no pending cut. An
// idle engine may be dropped and replaced by a new one for a stream whose
// later elements are all newer than any window it closed. Every built-in
// assigner keeps no state outside its open windows that such an element
// could observe: a periodic assigner re-aligns to the element, and a
// count window is open from a stream's first element to its end.
func (e *Engine) Idle() bool {
	if e.meta.len() > 0 || e.cutPending {
		return false
	}
	for i := range e.queries {
		if len(e.queries[i].open.live()) > 0 {
			return false
		}
	}
	return true
}

// ctx adapts Engine to window.Context for the query in e.active.
type ctx Engine

func (c *ctx) engine() *Engine { return (*Engine)(c) }

// Open implements window.Context: the window begins with the next element;
// a slice boundary is cut before it.
func (c *ctx) Open(id int64) {
	e := c.engine()
	q := e.active
	// The window starts at the slice created next: the current slice (if
	// any) ends at this boundary, cutPending forces the next element to
	// open a fresh slice at absolute index nextAbs().
	begin := e.meta.nextAbs()
	e.cutPending = true
	if q.open.find(id) < 0 {
		q.open.push(openWin{id: id, begin: begin})
	}
}

// CloseHere implements window.Context: content is every slice so far.
func (c *ctx) CloseHere(id, end int64) {
	e := c.engine()
	if i := e.active.open.find(id); i >= 0 {
		c.close(i, end, e.meta.nextAbs())
	}
}

// CloseAt implements window.Context: content is every slice whose first
// element's timestamp is below cutoff.
func (c *ctx) CloseAt(id, end, cutoff int64) {
	e := c.engine()
	if i := e.active.open.find(id); i >= 0 {
		c.close(i, end, e.meta.firstAtOrAfter(e.active.open.live()[i].begin, cutoff))
	}
}

// close completes the active query's i-th open window with the slices up to
// toAbs.
func (c *ctx) close(i int, end, toAbs int64) {
	e := c.engine()
	q := e.active
	w := q.open.live()[i]
	q.open.remove(i)
	st := &e.stores[q.store]
	lo := w.begin - e.meta.base
	hi := toAbs - e.meta.base
	var acc agg.Acc
	if e.linearEval {
		acc = st.tree.FoldRange(int(lo), int(hi))
	} else {
		acc = st.tree.Range(int(lo), int(hi))
	}
	e.emit(engine.Result{
		QueryID: q.id,
		Start:   w.id,
		End:     end,
		Value:   st.fn.Lower(acc),
		Count:   acc.N,
	})
}

// evict drops slices that no open window can reference anymore. A window
// opened in the future always begins at the next slice or later, so every
// slice below the minimum open begin (or every slice at all, if no window is
// open) is dead. The trailing slice may still receive elements; evicting it
// forces a cut before the next element.
func (e *Engine) evict() {
	minNeeded := int64(math.MaxInt64)
	for i := range e.queries {
		if open := e.queries[i].open.live(); len(open) > 0 {
			minNeeded = min(minNeeded, open[0].begin)
		}
	}
	for e.meta.len() > 0 && e.meta.base < minNeeded {
		last := e.meta.len() == 1
		e.meta.popFront()
		for i := range e.stores {
			e.stores[i].tree.EvictFront()
		}
		if last {
			e.cutPending = false // next element starts a fresh slice anyway
		}
	}
}
