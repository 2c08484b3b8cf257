package dataflow

import "math"

// gate is the input side of an operator subtask's control protocol: the
// per-channel watermarks, end markers and barrier alignment that decide what
// a control record arriving on one input channel means for the subtask. It
// holds no channels, goroutines or chain — runOperator receives, hands each
// control record to control and applies the answer — so the protocol is a
// state machine a test can drive directly. It sees control records only,
// never data.
type gate struct {
	chans     []gateChan
	open      int   // channels not ended
	curWM     int64 // the watermark last emitted
	aligning  int64 // id of the barrier being aligned, 0 = none
	alignSeen int   // channels blocked on it
	// active lists the channels neither ended nor blocked, ascending: the
	// ones the subtask receives from.
	active []int
}

type gateChan struct {
	wm      int64
	ended   bool
	blocked bool // delivered the barrier being aligned
}

// step is the gate's answer to one control record. The subtask applies it in
// field order: pass the flush on, advance to wm, checkpoint, finish.
type step struct {
	flush   bool  // an early flush upstream: flush this subtask's outputs too
	advance bool  // the emitted watermark rose to wm
	wm      int64 // the subtask's watermark after the record
	barrier int64 // id of the checkpoint whose alignment completed, 0 = none
	// done: every channel ended. The subtask advances to math.MaxInt64, then
	// finishes.
	done bool
}

// newGateCheck, set only by tests, makes each operator subtask check its
// gate's answers as it runs: runOperator calls the checker it returns after
// every control record, with the record, the answer and the active channels,
// and fails the subtask on an error.
var newGateCheck func(channels int) func(ch int, r Record, st step, active []int) error

func newGate(n int) *gate {
	g := &gate{chans: make([]gateChan, n), open: n, curWM: math.MinInt64, active: make([]int, n)}
	for i := range g.chans {
		g.chans[i].wm = math.MinInt64
		g.active[i] = i
	}
	return g
}

// control takes control record r, received on channel i, and says what it
// changes. The rules:
//   - a channel's watermark only rises, and the subtask's is the minimum over
//     the open channels — except that an end marker never emits the end of
//     time (math.MaxInt64): a watermark that carries it does, or done;
//   - the first barrier after a completed one starts an alignment; a barrier
//     with another id is stale (its checkpoint was abandoned) and skipped; a
//     channel that delivered the aligned barrier is blocked until it
//     completes, which it does once every open channel is blocked — an ended
//     channel counts as having delivered it.
func (g *gate) control(i int, r Record) step {
	c := &g.chans[i]
	var st step
	switch r.Kind {
	case KindFlush:
		st.flush = true
	case KindWatermark:
		if r.Ts > c.wm {
			c.wm = r.Ts
			if m := g.minOpen(); m > g.curWM {
				g.curWM, st.advance = m, true
			}
		}
	case KindBarrier:
		if g.aligning == 0 {
			g.aligning = r.Ts
		}
		if r.Ts != g.aligning {
			break
		}
		c.blocked = true
		g.alignSeen++
		st.barrier = g.complete()
	case KindEnd:
		c.ended = true
		g.open--
		if m := g.minOpen(); m > g.curWM && m != math.MaxInt64 {
			g.curWM, st.advance = m, true
		}
		st.barrier = g.complete()
		st.done = g.open == 0
	}
	st.wm = g.curWM
	if r.Kind == KindBarrier || r.Kind == KindEnd {
		g.active = g.active[:0]
		for j, cj := range g.chans {
			if !cj.ended && !cj.blocked {
				g.active = append(g.active, j)
			}
		}
	}
	return st
}

// minOpen is the minimum watermark over the open channels, math.MaxInt64
// when none is open.
func (g *gate) minOpen() int64 {
	m := int64(math.MaxInt64)
	for _, c := range g.chans {
		if !c.ended && c.wm < m {
			m = c.wm
		}
	}
	return m
}

// complete ends the alignment if every open channel has delivered its
// barrier, unblocking them all, and returns the completed id (0 if none).
func (g *gate) complete() int64 {
	if g.aligning == 0 || g.alignSeen < g.open {
		return 0
	}
	id := g.aligning
	g.aligning, g.alignSeen = 0, 0
	for i := range g.chans {
		g.chans[i].blocked = false
	}
	return id
}
