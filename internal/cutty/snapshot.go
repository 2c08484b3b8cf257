package cutty

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"

	"repro/internal/agg"
	"repro/internal/window"
)

// Snapshot/Restore make the Cutty engine checkpointable, which is what the
// dataflow layer's asynchronous barrier snapshotting needs to give windowed
// aggregations exactly-once state (experiment E9).
//
// Protocol: the restoring side first reconstructs the engine with the same
// AddQuery sequence (specs and functions are part of the job definition and
// survive failures in the job graph, not in the snapshot), then calls
// Restore. Only mutable state is serialized: the slice ring, the per-store
// tree leaves, each query's open windows and — via window.Checkpointable —
// each assigner's mutable fields.

type engineState struct {
	Pos        int64
	CurWM      int64
	CutPending bool
	MetaBase   int64
	MetaFirst  []int64
	MetaCount  []int64
	Stores     []storeState
	Queries    []queryStateBlob
}

type storeState struct {
	FnName string
	Leaves []agg.Acc
}

type queryStateBlob struct {
	ID        int
	OpenIDs   []int64
	OpenBegin []int64
	MinBegin  int64
}

// Snapshot serializes the engine's mutable state.
func (e *Engine) Snapshot(enc *gob.Encoder) error {
	st := engineState{
		Pos:        e.pos,
		CurWM:      e.curWM,
		CutPending: e.cutPending,
		MetaBase:   e.meta.base,
	}
	for _, m := range e.meta.items {
		st.MetaFirst = append(st.MetaFirst, m.firstTs)
		st.MetaCount = append(st.MetaCount, m.count)
	}
	stores := slices.Clone(e.stores)
	slices.SortFunc(stores, func(a, b *fnStore) int { return cmp.Compare(a.fn.Name, b.fn.Name) })
	for _, s := range stores {
		ss := storeState{FnName: s.fn.Name}
		for i := 0; i < s.tree.Len(); i++ {
			ss.Leaves = append(ss.Leaves, s.tree.Range(i, i+1))
		}
		st.Stores = append(st.Stores, ss)
	}
	for _, q := range e.queries {
		qb := queryStateBlob{ID: q.id}
		wins := slices.Clone(q.open.live())
		if len(wins) > 0 {
			qb.MinBegin = wins[0].begin
		}
		slices.SortFunc(wins, func(a, b openWin) int { return cmp.Compare(a.id, b.id) })
		for _, w := range wins {
			qb.OpenIDs = append(qb.OpenIDs, w.id)
			qb.OpenBegin = append(qb.OpenBegin, w.begin)
		}
		st.Queries = append(st.Queries, qb)
	}
	if err := enc.Encode(st); err != nil {
		return fmt.Errorf("cutty: snapshot: %w", err)
	}
	// Assigner state, in query-id order.
	for _, q := range e.queries {
		ck, ok := q.assigner.(window.Checkpointable)
		if !ok {
			return fmt.Errorf("cutty: assigner of query %d is not checkpointable", q.id)
		}
		if err := ck.SaveState(enc); err != nil {
			return fmt.Errorf("cutty: snapshot assigner %d: %w", q.id, err)
		}
	}
	return nil
}

// Restore loads state produced by Snapshot into an engine that was rebuilt
// with the same AddQuery sequence.
func (e *Engine) Restore(dec *gob.Decoder) error {
	var st engineState
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("cutty: restore: %w", err)
	}
	if len(st.MetaCount) != len(st.MetaFirst) || len(st.Stores) != len(e.stores) {
		return fmt.Errorf("cutty: restore: %d slice starts, %d slice counts, %d stores for %d functions (malformed or query set mismatch)",
			len(st.MetaFirst), len(st.MetaCount), len(st.Stores), len(e.stores))
	}
	e.pos = st.Pos
	e.curWM = st.CurWM
	e.cutPending = st.CutPending
	e.meta = metaRing{base: st.MetaBase}
	for i := range st.MetaFirst {
		e.meta.append(sliceMeta{firstTs: st.MetaFirst[i], count: st.MetaCount[i]})
	}
	for _, ss := range st.Stores {
		s := e.store(ss.FnName)
		if s == nil {
			return fmt.Errorf("cutty: restore: no store for function %q (query set mismatch)", ss.FnName)
		}
		s.tree = agg.NewFlatFAT(s.fn.Identity, s.fn.Combine, len(ss.Leaves)+1)
		for _, leaf := range ss.Leaves {
			s.tree.Append(leaf)
		}
	}
	for _, s := range e.stores { // also catches a blob naming one store twice
		if s.tree.Len() != len(st.MetaFirst) {
			return fmt.Errorf("cutty: restore: %d partials of %q for %d slices", s.tree.Len(), s.fn.Name, len(st.MetaFirst))
		}
	}
	for _, qb := range st.Queries {
		q := e.query(qb.ID)
		if q == nil {
			return fmt.Errorf("cutty: restore: query %d missing (query set mismatch)", qb.ID)
		}
		if len(qb.OpenBegin) != len(qb.OpenIDs) {
			return fmt.Errorf("cutty: restore: query %d lists %d open windows and %d begins", qb.ID, len(qb.OpenIDs), len(qb.OpenBegin))
		}
		// The blob lists windows by id; the engine wants them in opening
		// order, which is begin order (ties opened at the same element).
		wins := make([]openWin, len(qb.OpenIDs))
		for i, wid := range qb.OpenIDs {
			wins[i] = openWin{id: wid, begin: qb.OpenBegin[i]}
		}
		slices.SortStableFunc(wins, func(a, b openWin) int { return cmp.Compare(a.begin, b.begin) })
		q.open = winList{wins: wins}
	}
	for _, q := range e.queries {
		ck, ok := q.assigner.(window.Checkpointable)
		if !ok {
			return fmt.Errorf("cutty: assigner of query %d is not checkpointable", q.id)
		}
		if err := ck.LoadState(dec); err != nil {
			return fmt.Errorf("cutty: restore assigner %d: %w", q.id, err)
		}
	}
	return nil
}
