package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"repro/internal/dataflow"
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
	unique  map[uint64]struct{}
}

type combEntry struct {
	acc float64
	ts  int64 // max event time folded in
}

const combinerSampleSize = 512

var _ dataflow.Operator = (*CombinerOp)(nil)

type combinerState struct {
	Decided bool
	Enabled bool
	Sampled int
	Keys    []uint64
	Accs    []float64
	Ts      []int64
}

// Open implements dataflow.Operator.
func (c *CombinerOp) Open(ctx *dataflow.OpContext) error {
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
	var s combinerState
	if err := gob.NewDecoder(bytes.NewReader(ctx.Restore)).Decode(&s); err != nil {
		return fmt.Errorf("combiner restore: %w", err)
	}
	c.decided, c.enabled, c.sampled = s.Decided, s.Enabled, s.Sampled
	for i, k := range s.Keys {
		c.table[k] = combEntry{acc: s.Accs[i], ts: s.Ts[i]}
		c.order = append(c.order, k)
	}
	return nil
}

// fold takes one record: pass-throughs and table flushes emit through out.
func (c *CombinerOp) fold(r dataflow.Record, out dataflow.Collector) {
	v, ok := r.Value.(float64)
	if !ok {
		out.Collect(r)
		return
	}
	if !c.decided {
		c.sampled++
		c.unique[r.Key] = struct{}{}
		if c.sampled >= combinerSampleSize {
			// Duplicate ratio above ~2x means combining pays for itself.
			c.enabled = len(c.unique)*2 <= c.sampled
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

// OnBatch implements dataflow.Operator: the fold applied over the run in
// order, everything it emits going through out. A combiner that decided
// against combining holds nothing and forwards every record, so it returns
// the run whole and the run enters the exchange as one.
func (c *CombinerOp) OnBatch(b []dataflow.Record, out dataflow.Collector) []dataflow.Record {
	if c.decided && !c.enabled {
		return b
	}
	for i := range b {
		c.fold(b[i], out)
	}
	return nil
}

// OnWatermark implements dataflow.Operator: flush so that downstream
// event-time processing (window release) sees all data at or below the
// watermark.
func (c *CombinerOp) OnWatermark(wm int64, out dataflow.Collector) {
	c.flush(out)
}

func (c *CombinerOp) flush(out dataflow.Collector) {
	for _, k := range c.order {
		e := c.table[k]
		out.Collect(dataflow.Data(e.ts, k, e.acc))
	}
	c.table = make(map[uint64]combEntry)
	c.order = c.order[:0]
}

// Snapshot implements dataflow.Operator.
func (c *CombinerOp) Snapshot() ([]byte, error) {
	s := combinerState{Decided: c.decided, Enabled: c.enabled, Sampled: c.sampled}
	keys := make([]uint64, 0, len(c.table))
	for k := range c.table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		s.Keys = append(s.Keys, k)
		s.Accs = append(s.Accs, c.table[k].acc)
		s.Ts = append(s.Ts, c.table[k].ts)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("combiner snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Finish implements dataflow.Operator.
func (c *CombinerOp) Finish(out dataflow.Collector) {
	c.flush(out)
}

// Enabled reports whether combining is currently active (diagnostics).
func (c *CombinerOp) Enabled() bool { return c.decided && c.enabled }
