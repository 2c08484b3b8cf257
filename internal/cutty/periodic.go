package cutty

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/agg"
	"repro/internal/engine"
	"repro/internal/state"
)

// maxWindowSlices bounds how many slices one window may span on a Timeline.
// A fired window is a linear fold over its slices, which beats a FlatFAT
// range query only while windows are short in slices; past the bound
// (Sliding(86_400_000, 1000) would fold 86 400 partials per result) the
// per-key Engine and its log-time range query are the better layout.
const maxWindowSlices = 256

// Timeline is Cutty's slicing specialised to a query set made only of
// periodic time windows (tumbling, sliding). For those the slice edges are a
// function of time and the query set — every multiple of the gcd of all sizes
// and slides — and therefore identical for every key of a keyed stream, so a
// window subtask keeps one Timeline and per key only a KeySlices: the
// partials of the slices that key has data in. Nothing else is stored per
// key; which windows exist, when they fire and which slices they cover is
// computed.
//
// Semantics are the closed form of what Engine's sliding assigner does
// lazily, under the driving protocol of package engine (OnWatermark(ts)
// before OnElement(ts, v)): query q emits (start, start+size) for every
// start >= 0, start = 0 mod slide, whose interval holds at least one element,
// when event time reaches start+size; Value and Count are the left-to-right
// Combine of the slices in the interval. One OnWatermark emits query-major
// (ascending query id), ascending start within a query — Engine's order.
// Sharing is Cutty's: one partial per slice per distinct Fn.Name, however
// many queries use the function.
//
// A Timeline works on one key at a time (Visit) and is not safe for
// concurrent use.
type Timeline struct {
	emit    engine.Emit
	width   int64 // slice width in ticks
	queries []timelineQuery
	fns     []*agg.FnF64 // one per distinct function name, AddQuery order
	maxTs   int64        // newest timestamp whose windows end inside int64
	key     *KeySlices
}

// timelineQuery is one query in slice units; its id is its index.
type timelineQuery struct {
	size, slide int64
	store       int
}

// firstEndingAfter returns the first window start (>= 0) whose window ends
// after slice x — equally, for x >= 0, the earliest window containing x.
func (q *timelineQuery) firstEndingAfter(x int64) int64 {
	if x < q.size {
		return 0
	}
	return ((x-q.size)/q.slide + 1) * q.slide
}

// KeySlices is one key's window state on a Timeline: the event time the key
// has been advanced to, the indexes (floor(ts/width)) of the slices it has
// data in, ascending, and one partial per slice per function store, slice-
// major. The exported fields are its snapshot.
type KeySlices struct {
	Fired int64
	Slots []int64
	Parts []agg.Acc

	next int64 // earliest end of a non-empty unfired window, MaxInt64 if none
}

// NewKeySlices returns the state of a key that has seen nothing. A key whose
// last slice was evicted may be dropped and start over from this: every
// later element is newer than any window it fired.
func NewKeySlices() *KeySlices {
	return &KeySlices{Fired: math.MinInt64, next: math.MaxInt64}
}

// Clone deep-copies the state.
func (k *KeySlices) Clone() *KeySlices {
	c := *k
	c.Slots, c.Parts = slices.Clone(k.Slots), slices.Clone(k.Parts)
	return &c
}

// NewTimeline returns the timeline of the query set, or false when the set is
// not made only of periodic time windows spanning at most maxWindowSlices
// slices each — the caller then runs an Engine per key. The choice depends on
// the queries alone.
func NewTimeline(emit engine.Emit, queries []engine.Query) (*Timeline, bool) {
	if len(queries) == 0 {
		return nil, false
	}
	t := &Timeline{emit: emit}
	var maxSize int64
	for _, q := range queries {
		if !q.Window.IsPeriodic() || q.Fn == nil {
			return nil, false
		}
		t.width = gcd(gcd(t.width, q.Window.Size), q.Window.Slide)
		maxSize = max(maxSize, q.Window.Size)
	}
	if maxSize/t.width > maxWindowSlices {
		return nil, false
	}
	for _, q := range queries {
		store := slices.IndexFunc(t.fns, func(f *agg.FnF64) bool { return f.Name == q.Fn.Name })
		if store < 0 {
			store = len(t.fns)
			t.fns = append(t.fns, q.Fn)
		}
		t.queries = append(t.queries, timelineQuery{size: q.Window.Size / t.width, slide: q.Window.Slide / t.width, store: store})
	}
	t.maxTs = math.MaxInt64 - maxSize - t.width
	return t, true
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Visit points the timeline at one key's state; the engine-shaped methods
// below act on it until the next Visit.
func (t *Timeline) Visit(k *KeySlices) *Timeline {
	t.key = k
	return t
}

// OnElement folds one element into the visited key. An element before time 0
// or within one window of the end of time lies in no representable window
// and is dropped.
func (t *Timeline) OnElement(ts int64, v float64) {
	if ts < 0 || ts > t.maxTs {
		return
	}
	k, n, slot := t.key, len(t.fns), ts/t.width
	if last := len(k.Slots) - 1; last >= 0 && k.Slots[last] >= slot {
		parts := k.Parts[last*n:]
		for i, fn := range t.fns {
			parts[i] = fn.Combine(parts[i], fn.Lift(v))
		}
		return
	}
	k.Slots = append(k.Slots, slot)
	k.Parts = slices.Grow(k.Parts, n)
	for _, fn := range t.fns {
		k.Parts = append(k.Parts, fn.Lift(v))
	}
	// A new slice can bring the key's deadline forward: its 1 s window ends
	// before the 60 s window of an older slice does.
	for i := range t.queries {
		q := &t.queries[i]
		k.next = min(k.next, (q.firstEndingAfter(slot)+q.size)*t.width)
	}
}

// OnWatermark advances the visited key's event time to wm, emitting every
// window that ends at or before it.
func (t *Timeline) OnWatermark(wm int64) {
	k := t.key
	if wm <= k.Fired {
		return
	}
	if wm >= k.next {
		t.fire(k, wm)
	}
	k.Fired = wm
}

// NextFire reports the smallest watermark at which OnWatermark would emit
// anything for the visited key, math.MaxInt64 when it holds no slice.
func (t *Timeline) NextFire() int64 { return t.key.next }

// Slices reports the visited key's live slices.
func (t *Timeline) Slices() int { return len(t.key.Slots) }

// fire emits the non-empty windows ending in (k.Fired, wm], drops the slices
// no unfired window covers and recomputes the key's deadline. Per query one
// cursor walks the slices once: a window folds its own slice range, runs of
// empty windows are stepped over from the next occupied slice (so the
// end-of-stream watermark ends at the last slice, not at the end of time),
// and the first window found ending after wm is the query's deadline. The
// slices before that window's first are in no unfired window of the query.
func (t *Timeline) fire(k *KeySlices, wm int64) {
	fired, upTo := floorDiv(k.Fired, t.width), floorDiv(wm, t.width)
	n, next, keep := len(t.fns), int64(math.MaxInt64), len(k.Slots)
	for id := range t.queries {
		q := &t.queries[id]
		fn := t.fns[q.store]
		// Slices older than the query's first unfired window stay while a
		// longer window of another query needs them: search past them.
		start := q.firstEndingAfter(fired)
		i, _ := slices.BinarySearch(k.Slots, start)
		for {
			for i < len(k.Slots) && k.Slots[i] < start {
				i++
			}
			if i == len(k.Slots) {
				break
			}
			start = max(start, q.firstEndingAfter(k.Slots[i]))
			end := start + q.size
			if end > upTo {
				next = min(next, end*t.width)
				break
			}
			acc := k.Parts[i*n+q.store]
			for j := i + 1; j < len(k.Slots) && k.Slots[j] < end; j++ {
				acc = fn.Combine(acc, k.Parts[j*n+q.store])
			}
			t.emit(engine.Result{QueryID: id, Start: start * t.width, End: end * t.width, Value: fn.Lower(acc), Count: acc.N})
			start += q.slide
		}
		keep = min(keep, i)
	}
	if keep > 0 {
		k.Slots = k.Slots[:copy(k.Slots, k.Slots[keep:])]
		k.Parts = k.Parts[:copy(k.Parts, k.Parts[keep*n:])]
	}
	k.next = next
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// AppendKeySlices appends k's snapshot to b: Fired, the slice count and the
// slice indexes as zigzag deltas (the first from zero), then the partial
// count and each partial's V, M2 and N.
func AppendKeySlices(b []byte, k *KeySlices) []byte {
	b = binary.AppendVarint(b, k.Fired)
	b = binary.AppendUvarint(b, uint64(len(k.Slots)))
	prev := int64(0)
	for _, slot := range k.Slots {
		b = binary.AppendVarint(b, slot-prev)
		prev = slot
	}
	b = binary.AppendUvarint(b, uint64(len(k.Parts)))
	for _, p := range k.Parts {
		b = appendAcc(b, p)
	}
	return b
}

// Decode reads one key's snapshot (AppendKeySlices) from the front of b and
// validates it against the timeline, so a malformed blob fails the restore
// instead of the fire that would have indexed past its partials. It derives
// what is not stored: the deadline, and with it the eviction of slices that
// were already dead.
func (t *Timeline) Decode(b []byte) (*KeySlices, []byte, error) {
	c := state.Cursor{B: b}
	k := &KeySlices{Fired: c.Varint()}
	if n := c.Count(1); n > 0 {
		k.Slots = make([]int64, n)
	}
	for i := range k.Slots {
		k.Slots[i] = c.Varint()
		if i > 0 {
			if k.Slots[i] += k.Slots[i-1]; k.Slots[i] <= k.Slots[i-1] && c.Err == nil {
				return nil, c.B, fmt.Errorf("cutty: slice indexes not ascending (%d after %d)", k.Slots[i], k.Slots[i-1])
			}
		}
	}
	parts := c.Count(3)
	if c.Err != nil {
		return nil, c.B, c.Err
	}
	if parts != len(k.Slots)*len(t.fns) {
		return nil, c.B, fmt.Errorf("cutty: %d partials for %d slices, want %d per slice (query set mismatch)", parts, len(k.Slots), len(t.fns))
	}
	if parts > 0 {
		k.Parts = make([]agg.Acc, parts)
	}
	for i := range k.Parts {
		k.Parts[i] = readAcc(&c)
	}
	if c.Err != nil {
		return nil, c.B, c.Err
	}
	// Slices outside the representable range hold elements OnElement would
	// have dropped; only a malformed blob carries them.
	lo, _ := slices.BinarySearch(k.Slots, 0)
	hi, _ := slices.BinarySearch(k.Slots, t.maxTs/t.width+1)
	k.Slots, k.Parts = k.Slots[lo:hi], k.Parts[lo*len(t.fns):hi*len(t.fns)]
	t.fire(k, k.Fired)
	return k, c.B, nil
}
