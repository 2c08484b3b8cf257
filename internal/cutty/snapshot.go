package cutty

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/state"
	"repro/internal/window"
)

// AppendState/ReadState make the Cutty engine checkpointable, which is what
// the dataflow layer's asynchronous barrier snapshotting needs to give
// windowed aggregations exactly-once state (experiment E9).
//
// Protocol: the restoring side first reconstructs the engine with the same
// AddQuery sequence (specs and functions are part of the job definition and
// survive failures in the job graph, not in the snapshot), then calls
// ReadState. Only mutable state is encoded:
//
//	pos, curWM       varint each; cutPending a bool
//	slices           varint base, uvarint count, per slice varint first
//	                 timestamp and varint element count
//	stores           uvarint count, in function-name order: the name, then
//	                 a uvarint leaf count and per leaf its partial (appendAcc)
//	queries          uvarint count, per query varint id, uvarint open-window
//	                 count and per window, in id order, varint id and begin
//	assigners        per query in query order, window.Checkpointable's state

// AppendState appends the engine's mutable state to b.
func (e *Engine) AppendState(b []byte) []byte {
	b = state.AppendBool(binary.AppendVarint(binary.AppendVarint(b, e.pos), e.curWM), e.cutPending)
	b = binary.AppendUvarint(binary.AppendVarint(b, e.meta.base), uint64(len(e.meta.items)))
	for _, m := range e.meta.items {
		b = binary.AppendVarint(binary.AppendVarint(b, m.firstTs), m.count)
	}
	stores := slices.Clone(e.stores)
	slices.SortFunc(stores, func(a, b fnStore) int { return cmp.Compare(a.fn.Name, b.fn.Name) })
	b = binary.AppendUvarint(b, uint64(len(stores)))
	for _, s := range stores {
		b = binary.AppendUvarint(state.AppendBytes(b, s.fn.Name), uint64(s.tree.Len()))
		for i := 0; i < s.tree.Len(); i++ {
			b = appendAcc(b, s.tree.Range(i, i+1))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.queries)))
	for _, q := range e.queries {
		wins := slices.Clone(q.open.live())
		slices.SortFunc(wins, func(a, b openWin) int { return cmp.Compare(a.id, b.id) })
		b = binary.AppendUvarint(binary.AppendVarint(b, int64(q.id)), uint64(len(wins)))
		for _, w := range wins {
			b = binary.AppendVarint(binary.AppendVarint(b, w.id), w.begin)
		}
	}
	for _, q := range e.queries {
		b = q.assigner.(window.Checkpointable).AppendState(b)
	}
	return b
}

// ReadState loads state produced by AppendState from the front of b into an
// engine that was rebuilt with the same AddQuery sequence, and returns the
// bytes after it.
func (e *Engine) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	e.pos, e.curWM, e.cutPending = c.Varint(), c.Varint(), c.Bool()
	e.meta = metaRing{base: c.Varint()}
	e.meta.items = make([]sliceMeta, c.Count(2))
	for i := range e.meta.items {
		e.meta.items[i] = sliceMeta{firstTs: c.Varint(), count: c.Varint()}
	}
	if n := c.Count(2); c.Err == nil && n != len(e.stores) {
		return c.B, fmt.Errorf("cutty: restore: %d stores for %d functions (query set mismatch)", n, len(e.stores))
	}
	for range e.stores {
		name := c.Bytes()
		leaves := c.Count(3)
		if c.Err != nil {
			break
		}
		si := e.store(string(name))
		if si < 0 {
			return c.B, fmt.Errorf("cutty: restore: no store for function %q (query set mismatch)", name)
		}
		s := &e.stores[si]
		s.tree = *agg.NewFlatFAT(s.fn.Identity, s.fn.Combine, leaves+1)
		for ; leaves > 0; leaves-- {
			s.tree.Append(readAcc(&c))
		}
	}
	for _, s := range e.stores { // also catches a blob naming one store twice
		if c.Err == nil && s.tree.Len() != len(e.meta.items) {
			return c.B, fmt.Errorf("cutty: restore: %d partials of %q for %d slices", s.tree.Len(), s.fn.Name, len(e.meta.items))
		}
	}
	for n := c.Count(2); n > 0 && c.Err == nil; n-- {
		id := c.Varint()
		qi := e.query(int(id))
		if qi < 0 {
			return c.B, fmt.Errorf("cutty: restore: query %d missing (query set mismatch)", id)
		}
		q := &e.queries[qi]
		// The blob lists windows by id; the engine wants them in opening
		// order, which is begin order (ties opened at the same element).
		wins := make([]openWin, c.Count(2))
		for i := range wins {
			wins[i] = openWin{id: c.Varint(), begin: c.Varint()}
		}
		slices.SortStableFunc(wins, func(a, b openWin) int { return cmp.Compare(a.begin, b.begin) })
		q.open = winList{wins: wins}
	}
	for _, q := range e.queries {
		if c.Err != nil {
			break
		}
		c.B, c.Err = q.assigner.(window.Checkpointable).ReadState(c.B)
	}
	if c.Err != nil {
		return c.B, fmt.Errorf("cutty: restore: %w", c.Err)
	}
	return c.B, nil
}

// appendAcc and readAcc encode one partial aggregate.
func appendAcc(b []byte, p agg.Acc) []byte {
	return binary.AppendVarint(state.AppendFloat64(state.AppendFloat64(b, p.V), p.M2), p.N)
}

func readAcc(c *state.Cursor) agg.Acc {
	return agg.Acc{V: c.Float64(), M2: c.Float64(), N: c.Varint()}
}
