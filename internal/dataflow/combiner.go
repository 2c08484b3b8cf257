package dataflow

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/state"
)

// CombinerOp is the optimizer's pre-aggregation operator: it sits on the
// producer side of a hash shuffle and folds same-key float64 records into
// partial aggregates, flushing on every watermark (preserving event-time
// semantics downstream) and whenever the table reaches FlushEvery keys
// (bounding memory).
//
// In Adaptive mode the operator implements the paper's "adopted to the data
// distribution" promise: it first observes sampleSize records, estimates the
// duplicate-key ratio, and switches combining off when keys are nearly
// unique (combining would only add overhead) — Zipf-skewed streams keep it
// on, uniform high-cardinality streams turn it off.
type CombinerOp struct {
	F          func(acc, v float64) float64
	FlushEvery int
	Adaptive   bool

	table   map[uint64]combEntry
	order   []uint64 // flush in first-seen order for determinism
	decided bool
	enabled bool
	sampled int
	since   int // sampled at the restore: unique holds the keys sampled after it
	unique  map[uint64]struct{}
}

type combEntry struct {
	acc float64
	ts  int64 // max event time folded in
}

const combinerSampleSize = 512

var _ Operator = (*CombinerOp)(nil)

// Config implements Configured.
func (c *CombinerOp) Config() string {
	return fmt.Sprintf("flush=%d adaptive=%v", c.FlushEvery, c.Adaptive)
}

// Open implements Operator.
func (c *CombinerOp) Open(ctx *OpContext) error {
	c.table = make(map[uint64]combEntry)
	c.unique = make(map[uint64]struct{})
	if c.FlushEvery <= 0 {
		c.FlushEvery = 1024
	}
	if !c.Adaptive {
		c.decided, c.enabled = true, true
	}
	if ctx.Restore == nil {
		return nil
	}
	r := state.Cursor{B: ctx.Restore}
	c.decided, c.enabled, c.sampled = r.Bool(), r.Bool(), int(r.Uvarint())
	c.since = c.sampled
	for n := r.Count(3); n > 0 && r.Err == nil; n-- {
		k := r.Uvarint()
		if _, dup := c.table[k]; dup {
			return fmt.Errorf("combiner restore: key %#x twice", k)
		}
		c.table[k] = combEntry{acc: r.Float64(), ts: r.Varint()}
		c.order = append(c.order, k)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("combiner restore: %w", err)
	}
	return nil
}

// fold takes one record: pass-throughs and table flushes emit through out.
func (c *CombinerOp) fold(r Record, out Collector) {
	v, ok := r.Value.(float64)
	if !ok {
		out.Collect(r)
		return
	}
	if !c.decided {
		c.sampled++
		c.unique[r.Key] = struct{}{}
		if c.sampled >= combinerSampleSize {
			// Duplicate ratio above ~2x means combining pays for itself. A
			// snapshot keeps the sample's count but not its keys, so a
			// restored sample is judged on the records sampled since the
			// restore: the decision falls where it would have without the
			// restore. Fewer than an eighth of the sample are too few to
			// judge alone; their keys are then weighed against all of it.
			n := c.sampled - c.since
			if n < combinerSampleSize/8 {
				n = c.sampled
			}
			c.enabled = len(c.unique)*2 <= n
			c.decided = true
			c.unique = nil
		}
		// While sampling, pass through unchanged (no combining yet).
		out.Collect(r)
		return
	}
	if !c.enabled {
		out.Collect(r)
		return
	}
	e, exists := c.table[r.Key]
	if exists {
		e.acc = c.F(e.acc, v)
		if r.Ts > e.ts {
			e.ts = r.Ts
		}
	} else {
		// First value is taken as-is (semigroup fold), so the combiner is
		// correct for any associative f, identity or not.
		e = combEntry{acc: v, ts: r.Ts}
		c.order = append(c.order, r.Key)
	}
	c.table[r.Key] = e
	if len(c.table) >= c.FlushEvery {
		c.flush(out)
	}
}

// OnBatch implements Operator: the fold applied over the run in
// order, everything it emits going through out. A combiner that decided
// against combining holds nothing and forwards every record, so it returns
// the run whole and the run enters the exchange as one.
func (c *CombinerOp) OnBatch(b []Record, out Collector) []Record {
	if c.decided && !c.enabled {
		return b
	}
	for i := range b {
		c.fold(b[i], out)
	}
	return nil
}

// OnWatermark implements Operator: flush so that downstream
// event-time processing (window release) sees all data at or below the
// watermark.
func (c *CombinerOp) OnWatermark(wm int64, out Collector) {
	c.flush(out)
}

func (c *CombinerOp) flush(out Collector) {
	for _, k := range c.order {
		e := c.table[k]
		out.Collect(Data(e.ts, k, e.acc))
	}
	c.table = make(map[uint64]combEntry)
	c.order = c.order[:0]
}

// Snapshot implements Operator: the decided and enabled flags, the
// sample count, then the table as a uvarint count and, in key order, each
// key as a uvarint, its partial aggregate and its varint timestamp.
func (c *CombinerOp) Snapshot() ([]byte, error) {
	b := binary.AppendUvarint(state.AppendBool(state.AppendBool(nil, c.decided), c.enabled), uint64(c.sampled))
	b = binary.AppendUvarint(b, uint64(len(c.table)))
	for _, k := range slices.Sorted(maps.Keys(c.table)) {
		b = binary.AppendVarint(state.AppendFloat64(binary.AppendUvarint(b, k), c.table[k].acc), c.table[k].ts)
	}
	return b, nil
}

// Finish implements Operator.
func (c *CombinerOp) Finish(out Collector) {
	c.flush(out)
}

// Enabled reports whether combining is currently active (diagnostics).
func (c *CombinerOp) Enabled() bool { return c.decided && c.enabled }
