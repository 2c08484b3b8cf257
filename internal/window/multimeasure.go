package window

import (
	"encoding/binary"
	"math"

	"repro/internal/state"
)

// TimeOrCount returns a spec for multi-measure windows, one of the window
// classes the Cutty paper supports beyond single-measure periodic windows:
// a window begins with the first element after the previous window closed
// and closes when *either* maxDur event-time ticks have passed since its
// start *or* maxCount elements have been collected — whichever happens
// first. Useful for "emit a batch every second or every 100 records"
// business logic.
func TimeOrCount(maxDur, maxCount int64) Spec {
	if maxDur <= 0 || maxCount <= 0 {
		panic("window: TimeOrCount requires positive maxDur and maxCount")
	}
	return Spec{
		Name:    "time-or-count",
		Factory: func() Assigner { return &timeOrCountAssigner{maxDur: maxDur, maxCount: maxCount} },
	}
}

type timeOrCountAssigner struct {
	maxDur, maxCount int64

	active   bool
	start    int64 // start timestamp
	startPos int64
	count    int64
}

func (a *timeOrCountAssigner) OnElement(ts, pos int64, v float64, ctx Context) {
	if a.active {
		switch {
		case ts-a.start >= a.maxDur:
			// Time bound hit before this element: the element belongs to
			// the next window.
			ctx.CloseHere(a.start, a.start+a.maxDur)
			a.active = false
		case a.count >= a.maxCount:
			// Count bound reached by the previous element.
			ctx.CloseHere(a.start, ts)
			a.active = false
		}
	}
	if !a.active {
		ctx.Open(ts)
		a.start = ts
		a.startPos = pos
		a.count = 0
		a.active = true
	}
	a.count++
}

func (a *timeOrCountAssigner) OnTime(wm int64, ctx Context) {
	if !a.active {
		return
	}
	if wm >= a.start+a.maxDur {
		ctx.CloseHere(a.start, a.start+a.maxDur)
		a.active = false
		return
	}
	if wm == math.MaxInt64 {
		ctx.CloseHere(a.start, wm)
		a.active = false
	}
}

func (a *timeOrCountAssigner) NextTime() int64 {
	if !a.active {
		return math.MaxInt64
	}
	return a.start + a.maxDur
}

// AppendState implements Checkpointable.
func (a *timeOrCountAssigner) AppendState(b []byte) []byte {
	b = binary.AppendVarint(state.AppendBool(b, a.active), a.start)
	return binary.AppendVarint(binary.AppendVarint(b, a.startPos), a.count)
}

// ReadState implements Checkpointable.
func (a *timeOrCountAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.active, a.start, a.startPos, a.count = c.Bool(), c.Varint(), c.Varint(), c.Varint()
	return c.B, c.Err
}
