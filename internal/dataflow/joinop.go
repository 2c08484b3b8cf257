package dataflow

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/state"
)

// EdgeAware is an optional capability of a chain's head operator: one
// implementing it receives each run through OnBatchEdge, tagged with the index
// of the input edge it arrived on, instead of through OnBatch. Two-input
// operators (joins, co-processing) need the distinction. A run arrives on
// exactly one edge — it never spans channels — and the contract is OnBatch's:
// the returned records (compacted input or the operator's own buffer) are
// forwarded after anything collected through out.
type EdgeAware interface {
	OnBatchEdge(edge int, b []Record, out Collector) []Record
}

// JoinedPair is the payload emitted by WindowJoinOp for each matching
// (left, right) value pair within a window.
type JoinedPair struct {
	WindowStart int64
	WindowEnd   int64
	Left        float64
	Right       float64
}

// WindowJoinOp is the keyed tumbling-window equi-join: records from edge 0
// (left) and edge 1 (right) with the same key and the same tumbling window
// are joined pairwise, the relational semantics of stream joins in Flink's
// DataStream API. Both inputs must be hash-partitioned on the join key with
// identical parallelism.
//
// The open windows' buffered values live per key in a state.KeyedState, so
// the operator snapshots per key group and restores at any parallelism.
type WindowJoinOp struct {
	// Size is the tumbling window length in event-time ticks.
	Size int64

	ks   *state.KeyedState
	wins *state.MapCell[map[int64]joinSides]
	// timers holds each key at or before its earliest window end, so a
	// watermark visits only the keys with a window to fire. Derived: rebuilt
	// from the keyed state on Open, kept current by OnBatchEdge and the fire
	// pass. Every entry is an open window's end, so expire checks none.
	timers timerIndex

	// Run scratch (see OnBatchEdge), reused across calls.
	kt     keyTable
	maps   []map[int64]joinSides // dense key index -> the key's window map
	starts []int64               // OnWatermark's: a due key's closing windows
}

// Config implements Configured.
func (j *WindowJoinOp) Config() string { return fmt.Sprintf("size=%d", j.Size) }

// joinSides buffers one (key, window) bucket's values. The slices are
// append-only between snapshots; structural changes go through the outer
// map under GetMut.
type joinSides struct {
	Left  []float64
	Right []float64
}

// appendJoinWins encodes a key's windows in ascending start order: a
// uvarint count, then per window its varint start and each side as a
// uvarint count and AppendFloat64 values.
func appendJoinWins(b []byte, m map[int64]joinSides) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for _, start := range slices.Sorted(maps.Keys(m)) {
		b = binary.AppendVarint(b, start)
		for _, side := range [2][]float64{m[start].Left, m[start].Right} {
			b = binary.AppendUvarint(b, uint64(len(side)))
			for _, v := range side {
				b = state.AppendFloat64(b, v)
			}
		}
	}
	return b
}

// readJoinWins reads what appendJoinWins wrote; starts must ascend.
func readJoinWins(b []byte) (map[int64]joinSides, []byte, error) {
	c := state.Cursor{B: b}
	n := c.Count(3)
	m := make(map[int64]joinSides, n)
	prev := int64(math.MinInt64)
	for i := 0; i < n && c.Err == nil; i++ {
		start := c.Varint()
		if i > 0 && start <= prev && c.Err == nil {
			return nil, c.B, fmt.Errorf("join windows not ascending (%d after %d)", start, prev)
		}
		var sides [2][]float64
		for s := range sides {
			if k := c.Count(1); k > 0 {
				sides[s] = make([]float64, k)
			}
			for j := range sides[s] {
				sides[s][j] = c.Float64()
			}
		}
		m[start], prev = joinSides{Left: sides[0], Right: sides[1]}, start
	}
	return m, c.B, c.Err
}

var _ Operator = (*WindowJoinOp)(nil)
var _ EdgeAware = (*WindowJoinOp)(nil)
var _ KeyedStateful = (*WindowJoinOp)(nil)

// NewWindowJoinOp returns an operator factory for a tumbling equi-join.
func NewWindowJoinOp(size int64) OperatorFactory {
	if size <= 0 {
		panic("dataflow: join window size must be positive")
	}
	return func() Operator { return &WindowJoinOp{Size: size} }
}

// Open implements Operator.
func (j *WindowJoinOp) Open(ctx *OpContext) error {
	j.ks = ctx.NewKeyedState()
	// Clone is a shallow copy: the slice headers are duplicated, and the
	// buffers behind them are only ever appended to, never edited in place.
	j.wins = state.RegisterMap(j.ks, "wins", state.Codec[map[int64]joinSides]{
		Append: appendJoinWins, Read: readJoinWins, Clone: maps.Clone[map[int64]joinSides],
	})
	if err := ctx.RestoreKeyedState(j.ks); err != nil {
		return err
	}
	j.timers.init(ctx)
	j.wins.Range(func(key uint64, m map[int64]joinSides) bool {
		if len(m) > 0 {
			j.timers.arm(key, slices.Min(slices.Collect(maps.Keys(m)))+j.Size)
		}
		return true
	})
	return nil
}

// KeyedState implements KeyedStateful.
func (j *WindowJoinOp) KeyedState() *state.KeyedState { return j.ks }

// Snapshot implements Operator. All join state is keyed and travels per key
// group through KeyedState; there is no residual per-subtask state.
func (j *WindowJoinOp) Snapshot() ([]byte, error) { return nil, nil }

// OnBatch implements Operator. The runtime hands a head join its runs
// through OnBatchEdge; a join that is not the head of its chain has one input
// and takes it as the left side.
func (j *WindowJoinOp) OnBatch(b []Record, out Collector) []Record {
	return j.OnBatchEdge(0, b, out)
}

// OnBatchEdge implements EdgeAware: each distinct key of the run resolves its
// window map once — one key-group hash and, during a capture window, at most
// one copy-on-write clone — and the run's records then append straight into
// the resolved maps in record order. It emits nothing: joins fire on
// watermarks.
func (j *WindowJoinOp) OnBatchEdge(edge int, b []Record, _ Collector) []Record {
	j.kt.reset()
	clear(j.maps)
	j.maps = j.maps[:0]
	for i := range b {
		v, ok := b[i].Value.(float64)
		if !ok {
			continue
		}
		idx, fresh := j.kt.index(b[i].Key)
		if fresh {
			ref := j.wins.RefFor(b[i].Key)
			m, ok := ref.GetMut()
			if !ok {
				m = make(map[int64]joinSides)
				ref.Put(m)
			}
			j.maps = append(j.maps, m)
		}
		m := j.maps[idx]
		r := &b[i]
		start := (r.Ts / j.Size) * j.Size
		if r.Ts < 0 {
			start = ((r.Ts - j.Size + 1) / j.Size) * j.Size
		}
		bkt, open := m[start]
		if edge == 0 {
			bkt.Left = append(bkt.Left, v)
		} else {
			bkt.Right = append(bkt.Right, v)
		}
		m[start] = bkt
		// Only a new window that ends before every other window of the key
		// moves its timer; otherwise the key holds an entry at or before it.
		if !open && earliest(m, start) {
			j.timers.arm(r.Key, start+j.Size)
		}
	}
	return nil
}

// earliest reports whether no window of m starts before start.
func earliest(m map[int64]joinSides, start int64) bool {
	for s := range m {
		if s < start {
			return false
		}
	}
	return true
}

// OnWatermark implements Operator: fire every window whose end has passed,
// keys ascending and a key's windows by start. Only keys with a due window
// are visited, so a watermark that closes nothing costs O(1).
func (j *WindowJoinOp) OnWatermark(wm int64, out Collector) {
	due := j.timers.expire(wm, nil)
	for _, key := range due {
		m, _ := j.wins.GetMut(key)
		j.starts = j.starts[:0]
		next := int64(math.MaxInt64) // earliest end among the windows that stay
		for start := range m {
			if end := start + j.Size; end <= wm {
				j.starts = append(j.starts, start)
			} else {
				next = min(next, end)
			}
		}
		slices.Sort(j.starts)
		for _, start := range j.starts {
			b := m[start]
			delete(m, start)
			for _, l := range b.Left {
				for _, r := range b.Right {
					out.Collect(Data(start+j.Size-1, key, JoinedPair{
						WindowStart: start, WindowEnd: start + j.Size, Left: l, Right: r,
					}))
				}
			}
		}
		if len(m) == 0 {
			j.wins.Delete(key)
		}
		j.timers.arm(key, next)
	}
	j.timers.count(len(due))
}

// Finish implements Operator: fire all remaining windows.
func (j *WindowJoinOp) Finish(out Collector) {
	j.OnWatermark(math.MaxInt64, out)
}
