// Package ref is the benchmark's reference: keyed sums and tumbling/sliding
// window aggregates computed single-threaded over plain maps, with no engine
// code, so that a wrong engine result cannot also be the expected one.
package ref

import "math"

// Agg names a window aggregate.
type Agg uint8

const (
	Sum Agg = iota
	Count
	Avg
	Max
)

// Query is one periodic window query: windows [k*Slide, k*Slide+Size) for
// k >= 0 (Slide == Size is tumbling).
type Query struct {
	Size, Slide int64
	Fn          Agg
}

// WinID identifies one window of one query on one key.
type WinID struct {
	Query int
	Key   uint64
	Start int64
}

// WinVal is a window's aggregate and the number of elements in it.
type WinVal struct {
	Value float64
	Count int64
}

type acc struct {
	sum, max float64
	n        int64
}

// Windows accumulates elements into every window that contains them. A
// window exists only if it holds at least one element, and starts never go
// below the stream origin 0: the engine's documented window semantics.
type Windows struct {
	queries []Query
	accs    map[WinID]*acc
}

// NewWindows returns an empty reference for the queries, numbered by
// position like the engine's.
func NewWindows(queries ...Query) *Windows {
	return &Windows{queries: queries, accs: map[WinID]*acc{}}
}

// Add folds one element that the engine must not drop.
func (w *Windows) Add(key uint64, ts int64, v float64) {
	for q, spec := range w.queries {
		// Windows containing ts start in (ts-Size, ts], on multiples of Slide.
		first := int64(0)
		if ts-spec.Size >= 0 {
			first = ((ts-spec.Size)/spec.Slide + 1) * spec.Slide
		}
		for start := first; start <= ts; start += spec.Slide {
			id := WinID{Query: q, Key: key, Start: start}
			a := w.accs[id]
			if a == nil {
				a = &acc{max: math.Inf(-1)}
				w.accs[id] = a
			}
			a.sum += v
			a.n++
			if v > a.max {
				a.max = v
			}
		}
	}
}

// Results returns every non-empty window.
func (w *Windows) Results() map[WinID]WinVal {
	out := make(map[WinID]WinVal, len(w.accs))
	for id, a := range w.accs {
		var v float64
		switch w.queries[id.Query].Fn {
		case Sum:
			v = a.sum
		case Count:
			v = float64(a.n)
		case Avg:
			v = a.sum / float64(a.n)
		case Max:
			v = a.max
		}
		out[id] = WinVal{Value: v, Count: a.n}
	}
	return out
}

// End returns the exclusive end of window id.
func (w *Windows) End(id WinID) int64 { return id.Start + w.queries[id.Query].Size }

// Cadence models the event-time clock of one in-order source subtask as the
// streamline package documents it: after every Every records the subtask
// emits a watermark trailing the largest timestamp seen so far by Lag, and
// watermarks never regress. A window operator fed by that one subtask drops
// exactly the records whose timestamp is not above the last watermark
// emitted before them.
type Cadence struct {
	Every, Lag int64

	maxTs, wm int64
	since     int64
	started   bool
}

// Late reports whether the next record of the subtask, carrying ts, arrives
// behind the watermark, and then accounts for it: a dropped record still
// advances the subtask's clock, since the source cannot know its fate.
func (c *Cadence) Late(ts int64) bool {
	if !c.started {
		c.started, c.maxTs, c.wm = true, ts, math.MinInt64
	}
	late := ts <= c.wm
	if ts > c.maxTs {
		c.maxTs = ts
	}
	if c.since++; c.since >= c.Every {
		c.since = 0
		if wm := c.maxTs - c.Lag; wm > c.wm {
			c.wm = wm
		}
	}
	return late
}

// Sums is the keyed-sum reference.
type Sums map[uint64]float64

// Diff is the outcome of comparing engine output with the reference.
type Diff struct {
	Expected            int64
	Missing, Extra, Bad int64
}

// Failed is the number of results that count against failed_share.
func (d Diff) Failed() int64 { return d.Missing + d.Extra + d.Bad }

// close reports equality up to float rounding in the last place: sums of
// small integers are exact, only Avg divides.
func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// CompareWindows matches got, one entry per result the engine emitted,
// against want result for result.
func CompareWindows(want map[WinID]WinVal, got map[WinID][]WinVal) Diff {
	d := Diff{Expected: int64(len(want))}
	for id, w := range want {
		g := got[id]
		switch {
		case len(g) == 0:
			d.Missing++
		case !closeTo(g[0].Value, w.Value) || g[0].Count != w.Count:
			d.Bad++
		}
		if len(g) > 1 {
			d.Extra += int64(len(g) - 1)
		}
	}
	for id, g := range got {
		if _, ok := want[id]; !ok {
			d.Extra += int64(len(g))
		}
	}
	return d
}

// CompareSums matches got, one entry per (key, value) the engine emitted,
// against want.
func CompareSums(want Sums, got map[uint64][]float64) Diff {
	d := Diff{Expected: int64(len(want))}
	for k, w := range want {
		g := got[k]
		switch {
		case len(g) == 0:
			d.Missing++
		case !closeTo(g[0], w):
			d.Bad++
		}
		if len(g) > 1 {
			d.Extra += int64(len(g) - 1)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			d.Extra += int64(len(g))
		}
	}
	return d
}
