package dataflow

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// Every operator subtask of every test in this package checks its gate's
// answers against gateModel as it runs.
func init() {
	newGateCheck = func(n int) func(int, Record, step, []int) error {
		return newGateModel(n).check
	}
}

// gateModel holds what the control records delivered so far imply, and
// check holds the gate's answer to each one against it:
//   - the emitted watermark is monotone and equals the minimum over the open
//     channels (an end marker that leaves only channels at the end of time
//     emits nothing: done does);
//   - a barrier completes exactly once, when every open channel has
//     delivered it, and an alignment every open channel has delivered
//     completes at once;
//   - active is exactly the channels neither ended nor blocked, so nothing is
//     received from a blocked channel;
//   - the subtask is done exactly once, on the last end marker.
type gateModel struct {
	wm        []int64
	ended     []bool
	blocked   []bool
	emitted   int64
	aligning  int64
	completed map[int64]bool
	done      bool
}

func newGateModel(n int) *gateModel {
	m := &gateModel{
		wm: make([]int64, n), ended: make([]bool, n), blocked: make([]bool, n),
		emitted: math.MinInt64, completed: map[int64]bool{},
	}
	for i := range m.wm {
		m.wm[i] = math.MinInt64
	}
	return m
}

func (m *gateModel) check(ch int, r Record, st step, active []int) error {
	if m.done || m.ended[ch] || m.blocked[ch] {
		return fmt.Errorf("gate: %v received on channel %d after done, its end or its barrier", r.Kind, ch)
	}
	switch r.Kind {
	case KindWatermark:
		m.wm[ch] = max(m.wm[ch], r.Ts)
	case KindBarrier:
		if m.aligning == 0 {
			m.aligning = r.Ts
		}
		m.blocked[ch] = r.Ts == m.aligning
	case KindEnd:
		m.ended[ch] = true
	}
	if st.flush != (r.Kind == KindFlush) {
		return fmt.Errorf("gate: flush=%v on a %v", st.flush, r.Kind)
	}

	if st.advance {
		if st.wm <= m.emitted {
			return fmt.Errorf("gate: watermark went from %d to %d", m.emitted, st.wm)
		}
		if st.wm == math.MaxInt64 && r.Kind == KindEnd {
			return fmt.Errorf("gate: an end marker emitted the end of time; only done may")
		}
		m.emitted = st.wm
	}
	if st.wm != m.emitted {
		return fmt.Errorf("gate: watermark %d, but %d was emitted", st.wm, m.emitted)
	}
	minOpen, allEnded, allIn := int64(math.MaxInt64), true, m.aligning != 0
	for i := range m.wm {
		if !m.ended[i] {
			minOpen = min(minOpen, m.wm[i])
			allEnded = false
			allIn = allIn && m.blocked[i]
		}
	}
	if minOpen != math.MaxInt64 && m.emitted != minOpen {
		return fmt.Errorf("gate: emitted watermark %d, the minimum over open channels is %d", m.emitted, minOpen)
	}

	switch {
	case st.barrier != 0 && (!allIn || st.barrier != m.aligning):
		return fmt.Errorf("gate: barrier %d completed; aligning %d, every open channel delivered it: %v", st.barrier, m.aligning, allIn)
	case st.barrier == 0 && allIn:
		return fmt.Errorf("gate: every open channel delivered barrier %d, but it did not complete", m.aligning)
	case st.barrier != 0:
		if m.completed[st.barrier] {
			return fmt.Errorf("gate: barrier %d completed twice", st.barrier)
		}
		m.completed[st.barrier] = true
		m.aligning = 0
		clear(m.blocked)
	}

	if st.done != allEnded {
		return fmt.Errorf("gate: done=%v with every channel ended: %v", st.done, allEnded)
	}
	m.done = st.done
	var want []int
	for i := range m.wm {
		if !m.ended[i] && !m.blocked[i] {
			want = append(want, i)
		}
	}
	if !slices.Equal(active, want) {
		return fmt.Errorf("gate: active channels %v, want %v", active, want)
	}
	return nil
}

// genControls generates n channels' control records: watermarks that may
// fall and may reach the end of time, flush markers, and barriers with ids
// 1..k in order — every id up to the channel's end, or, with skips, any
// ordered subset, as a checkpoint abandoned upstream leaves — then one end
// marker at a random length.
func genControls(rng *rand.Rand, n int, skips bool) [][]Record {
	k := int64(rng.IntN(5))
	chans := make([][]Record, n)
	for i := range chans {
		var seq []Record
		var base, next int64 = int64(rng.IntN(20)), 1
		for l := rng.IntN(24); l > 0; l-- {
			switch p := rng.IntN(10); {
			case p < 5:
				base += int64(rng.IntN(8))
				seq = append(seq, Watermark(base-int64(rng.IntN(6))))
			case p < 6:
				seq = append(seq, Watermark(math.MaxInt64))
			case p < 7:
				seq = append(seq, Record{Kind: KindFlush})
			case next <= k:
				if skips {
					next += int64(rng.IntN(2))
				}
				if next <= k {
					seq = append(seq, Barrier(next))
					next++
				}
			}
		}
		chans[i] = append(seq, End())
	}
	return chans
}

// TestGateProperties drives the gate with generated per-channel control
// sequences, receiving each next record from a random active channel as
// runOperator's sweep does, and checks every answer against gateModel; a
// sequence ends when the gate says done, which must be after the last record
// of every channel. Without skipped ids every barrier a channel delivered
// must have completed.
func TestGateProperties(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 42))
	for seq := 0; seq < 20000; seq++ {
		n := 1 + rng.IntN(8)
		skips := seq%2 == 1
		chans := genControls(rng, n, skips)
		g, m := newGate(n), newGateModel(n)
		pos := make([]int, n)
		fail := func(format string, args ...any) {
			var b strings.Builder
			for i, c := range chans {
				fmt.Fprintf(&b, "\n  channel %d (at %d): %v", i, pos[i], c)
			}
			t.Fatalf("sequence %d: "+format+b.String(), append([]any{seq}, args...)...)
		}
		for done := false; !done; {
			if len(g.active) == 0 {
				fail("no active channel before done")
			}
			i := g.active[rng.IntN(len(g.active))]
			r := chans[i][pos[i]]
			pos[i]++
			st := g.control(i, r)
			if err := m.check(i, r, st, g.active); err != nil {
				fail("%v", err)
			}
			done = st.done
		}
		for i, c := range chans {
			if pos[i] != len(c) {
				fail("done with %d records of channel %d unread", len(c)-pos[i], i)
			}
			for _, r := range c {
				if !skips && r.Kind == KindBarrier && !m.completed[r.Ts] {
					fail("barrier %d never completed", r.Ts)
				}
			}
		}
	}
}

// TestGateAllocatesNothing: the gate is called per control record and
// allocates on none of them.
func TestGateAllocatesNothing(t *testing.T) {
	const n = 4
	g := newGate(n)
	var wm, id int64
	allocs := testing.AllocsPerRun(100, func() {
		wm++
		id++
		for i := 0; i < n; i++ {
			g.control(i, Watermark(wm))
			g.control(i, Record{Kind: KindFlush})
		}
		for i := 0; i < n; i++ {
			g.control(i, Barrier(id))
		}
	})
	if allocs != 0 {
		t.Fatalf("gate allocated %.1f times per round of control records", allocs)
	}
}
