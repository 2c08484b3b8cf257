package window

import (
	"fmt"
	"math"
)

// Tumbling returns a spec for non-overlapping time windows of the given
// size: [k*size, (k+1)*size).
func Tumbling(size int64) Spec {
	if size <= 0 {
		panic("window: Tumbling size must be positive")
	}
	return Spec{
		Name:    "tumbling",
		Size:    size,
		Slide:   size,
		Factory: func() Assigner { return &slidingAssigner{size: size, slide: size} },
	}
}

// Sliding returns a spec for overlapping time windows of the given size,
// advancing every slide ticks: [k*slide, k*slide+size).
func Sliding(size, slide int64) Spec {
	if size <= 0 || slide <= 0 {
		panic("window: Sliding size and slide must be positive")
	}
	if slide > size {
		panic("window: Sliding slide must not exceed size (use Tumbling with gaps instead)")
	}
	return Spec{
		Name:    "sliding",
		Size:    size,
		Slide:   slide,
		Factory: func() Assigner { return &slidingAssigner{size: size, slide: slide} },
	}
}

// slidingAssigner implements periodic time windows (tumbling is the special
// case slide == size). Windows are opened lazily when the first element that
// belongs to them arrives, and closed when the watermark passes their end —
// so empty windows produce no results, matching Flink semantics.
type slidingAssigner struct {
	size, slide int64
	// open window starts, ascending; all have start+size > last watermark.
	open []int64
	// nextStart is the smallest window start not yet opened.
	nextStart   int64
	initialized bool
}

func (a *slidingAssigner) Periodic() (int64, int64) { return a.size, a.slide }

func (a *slidingAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	// Windows containing ts start in (ts-size, ts]; the earliest is
	// floor((ts-size)/slide)*slide + slide (clamped to >= 0 for the stream
	// origin at time 0).
	first := firstStartAfter(ts-a.size, a.slide)
	if first < 0 {
		first = 0
	}
	if !a.initialized {
		a.nextStart = first
		a.initialized = true
	} else if first > a.nextStart {
		// Stream skipped ahead; windows strictly before `first` that were
		// never opened would be empty — skip them.
		if a.nextStart < first {
			a.nextStart = first
		}
	}
	for a.nextStart <= ts {
		ctx.Open(a.nextStart)
		a.open = append(a.open, a.nextStart)
		a.nextStart += a.slide
	}
}

func (a *slidingAssigner) OnTime(wm int64, ctx Context) {
	i := 0
	for ; i < len(a.open); i++ {
		start := a.open[i]
		if start+a.size > wm {
			break
		}
		ctx.CloseAt(start, start+a.size, start+a.size)
	}
	a.open = a.open[i:]
}

func (a *slidingAssigner) NextTime() int64 {
	if len(a.open) == 0 {
		return math.MaxInt64
	}
	return a.open[0] + a.size
}

// firstStartAfter returns the smallest non-negative multiple of slide that
// is strictly greater than t.
func firstStartAfter(t, slide int64) int64 {
	if t < 0 {
		return 0
	}
	return (t/slide + 1) * slide
}

// Session returns a spec for session windows: a window spans consecutive
// elements whose gaps are < gap; a session closes when event time passes
// lastTs+gap. Sessions are the paper's canonical non-periodic window.
func Session(gap int64) Spec {
	if gap <= 0 {
		panic("window: Session gap must be positive")
	}
	return Spec{
		Name:    "session",
		Args:    fmt.Sprint(gap),
		Factory: func() Assigner { return &sessionAssigner{gap: gap} },
	}
}

type sessionAssigner struct {
	gap    int64
	active bool
	start  int64
	lastTs int64
}

func (a *sessionAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	if a.active && ts-a.lastTs >= a.gap {
		ctx.CloseHere(a.start, a.lastTs+a.gap)
		a.active = false
	}
	if !a.active {
		ctx.Open(ts)
		a.start = ts
		a.active = true
	}
	a.lastTs = ts
}

func (a *sessionAssigner) OnTime(wm int64, ctx Context) {
	if a.active && wm >= a.lastTs+a.gap {
		ctx.CloseHere(a.start, a.lastTs+a.gap)
		a.active = false
	}
}

func (a *sessionAssigner) NextTime() int64 {
	if !a.active {
		return math.MaxInt64
	}
	return a.lastTs + a.gap
}

// CountTumbling returns a spec for count windows of n elements each.
func CountTumbling(n int64) Spec {
	if n <= 0 {
		panic("window: CountTumbling n must be positive")
	}
	return Spec{
		Name:    "count",
		Args:    fmt.Sprint(n),
		Factory: func() Assigner { return &countAssigner{size: n, every: n} },
	}
}

// CountSliding returns a spec for count windows of n elements, opening a new
// window every `every` elements.
func CountSliding(n, every int64) Spec {
	if n <= 0 || every <= 0 || every > n {
		panic("window: CountSliding requires 0 < every <= n")
	}
	return Spec{
		Name:    "count-sliding",
		Args:    fmt.Sprint(n, every),
		Factory: func() Assigner { return &countAssigner{size: n, every: every} },
	}
}

type countAssigner struct {
	size, every int64
	open        []int64 // start positions
}

func (a *countAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	// Close windows whose size is reached: window [s, s+size) closes when
	// element s+size arrives.
	i := 0
	for ; i < len(a.open); i++ {
		if a.open[i]+a.size > pos {
			break
		}
		ctx.CloseHere(a.open[i], a.open[i]+a.size)
	}
	a.open = a.open[i:]
	if pos%a.every == 0 {
		ctx.Open(pos)
		a.open = append(a.open, pos)
	}
}

func (a *countAssigner) OnTime(wm int64, ctx Context) {
	// Count windows are insensitive to time except at end of stream, which
	// engines signal with a +inf watermark: flush incomplete windows.
	if wm == math.MaxInt64 {
		for _, s := range a.open {
			ctx.CloseHere(s, s+a.size)
		}
		a.open = nil
	}
}

func (a *countAssigner) NextTime() int64 { return math.MaxInt64 }

// Punctuation returns a spec for data-driven windows delimited by marker
// elements: a window begins at a marker and spans up to (excluding) the next
// marker. Elements before the first marker belong to no window.
func Punctuation(isMarker func(v float64) bool) Spec {
	return Spec{
		Name:    "punctuation",
		Factory: func() Assigner { return &punctuationAssigner{isMarker: isMarker} },
	}
}

type punctuationAssigner struct {
	isMarker func(v float64) bool
	active   bool
	start    int64
}

func (a *punctuationAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	if !a.isMarker(v) {
		return
	}
	if a.active {
		ctx.CloseHere(a.start, ts)
	}
	ctx.Open(ts)
	a.start = ts
	a.active = true
}

func (a *punctuationAssigner) OnTime(wm int64, ctx Context) {
	if a.active && wm == math.MaxInt64 {
		ctx.CloseHere(a.start, wm)
		a.active = false
	}
}

func (a *punctuationAssigner) NextTime() int64 { return math.MaxInt64 }

// Delta returns a spec for delta (threshold) windows, one of Cutty's
// user-defined examples: a new window begins whenever the value deviates
// from the first value of the current window by at least threshold; the
// previous window closes at that point.
func Delta(threshold float64) Spec {
	if threshold <= 0 {
		panic("window: Delta threshold must be positive")
	}
	return Spec{
		Name:    "delta",
		Args:    fmt.Sprint(threshold),
		Factory: func() Assigner { return &deltaAssigner{threshold: threshold} },
	}
}

type deltaAssigner struct {
	threshold float64
	active    bool
	start     int64
	ref       float64
}

func (a *deltaAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	if a.active && math.Abs(v-a.ref) >= a.threshold {
		ctx.CloseHere(a.start, ts)
		a.active = false
	}
	if !a.active {
		ctx.Open(ts)
		a.start = ts
		a.ref = v
		a.active = true
	}
}

func (a *deltaAssigner) OnTime(wm int64, ctx Context) {
	if a.active && wm == math.MaxInt64 {
		ctx.CloseHere(a.start, wm)
		a.active = false
	}
}

func (a *deltaAssigner) NextTime() int64 { return math.MaxInt64 }

// SessionWithMaxDuration returns a spec for sessions that additionally close
// after maxDur ticks regardless of activity — a composite user-defined
// window beyond what periodic sharing techniques can express.
func SessionWithMaxDuration(gap, maxDur int64) Spec {
	if gap <= 0 || maxDur <= 0 {
		panic("window: SessionWithMaxDuration gap and maxDur must be positive")
	}
	return Spec{
		Name:    "session-maxdur",
		Args:    fmt.Sprint(gap, maxDur),
		Factory: func() Assigner { return &sessionMaxAssigner{gap: gap, maxDur: maxDur} },
	}
}

type sessionMaxAssigner struct {
	gap, maxDur int64
	active      bool
	start       int64
	lastTs      int64
}

func (a *sessionMaxAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	if a.active {
		switch {
		case ts-a.lastTs >= a.gap:
			ctx.CloseHere(a.start, a.lastTs+a.gap)
			a.active = false
		case ts-a.start >= a.maxDur:
			ctx.CloseHere(a.start, a.start+a.maxDur)
			a.active = false
		}
	}
	if !a.active {
		ctx.Open(ts)
		a.start = ts
		a.active = true
	}
	a.lastTs = ts
}

func (a *sessionMaxAssigner) OnTime(wm int64, ctx Context) {
	if !a.active {
		return
	}
	if end := a.NextTime(); wm >= end {
		ctx.CloseHere(a.start, end)
		a.active = false
	}
}

func (a *sessionMaxAssigner) NextTime() int64 {
	if !a.active {
		return math.MaxInt64
	}
	return min(a.lastTs+a.gap, a.start+a.maxDur)
}
