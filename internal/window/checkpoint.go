package window

import (
	"encoding/binary"
	"slices"

	"repro/internal/state"
)

// Checkpointable is implemented by assigners whose mutable state can be
// saved and restored across failures. The recovery path first reconstructs
// the assigner from its Spec factory (which carries the immutable
// parameters and any closures) and then calls ReadState, so only mutable
// fields are encoded. AppendState appends the typed encoding of those
// fields to b; ReadState reads exactly that encoding from the front of b
// and returns the bytes after it, or an error for bytes it cannot take.
// Clone returns an independent assigner with the same parameters and state
// — the copy-on-write copy of a window engine whose captured state is still
// being serialized — without going through the encoding.
type Checkpointable interface {
	AppendState(b []byte) []byte
	ReadState(b []byte) ([]byte, error)
	Clone() Assigner
}

// appendStarts and readStarts encode a list of window starts.
func appendStarts(b []byte, starts []int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(starts)))
	for _, s := range starts {
		b = binary.AppendVarint(b, s)
	}
	return b
}

func readStarts(c *state.Cursor) []int64 {
	starts := make([]int64, c.Count(1))
	for i := range starts {
		starts[i] = c.Varint()
	}
	return starts
}

// Clone implements Checkpointable.
func (a *slidingAssigner) Clone() Assigner {
	c := *a
	c.open = slices.Clone(a.open)
	return &c
}

// AppendState implements Checkpointable.
func (a *slidingAssigner) AppendState(b []byte) []byte {
	b = appendStarts(b, a.open)
	return state.AppendBool(binary.AppendVarint(b, a.nextStart), a.initialized)
}

// ReadState implements Checkpointable.
func (a *slidingAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.open, a.nextStart, a.initialized = readStarts(&c), c.Varint(), c.Bool()
	return c.B, c.Err
}

// Clone implements Checkpointable.
func (a *sessionAssigner) Clone() Assigner { c := *a; return &c }

// AppendState implements Checkpointable.
func (a *sessionAssigner) AppendState(b []byte) []byte {
	b = binary.AppendVarint(state.AppendBool(b, a.active), a.start)
	return binary.AppendVarint(b, a.lastTs)
}

// ReadState implements Checkpointable.
func (a *sessionAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.active, a.start, a.lastTs = c.Bool(), c.Varint(), c.Varint()
	return c.B, c.Err
}

// Clone implements Checkpointable.
func (a *countAssigner) Clone() Assigner {
	c := *a
	c.open = slices.Clone(a.open)
	return &c
}

// AppendState implements Checkpointable.
func (a *countAssigner) AppendState(b []byte) []byte { return appendStarts(b, a.open) }

// ReadState implements Checkpointable.
func (a *countAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.open = readStarts(&c)
	return c.B, c.Err
}

// Clone implements Checkpointable.
func (a *punctuationAssigner) Clone() Assigner { c := *a; return &c }

// AppendState implements Checkpointable.
func (a *punctuationAssigner) AppendState(b []byte) []byte {
	return binary.AppendVarint(state.AppendBool(b, a.active), a.start)
}

// ReadState implements Checkpointable.
func (a *punctuationAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.active, a.start = c.Bool(), c.Varint()
	return c.B, c.Err
}

// Clone implements Checkpointable.
func (a *deltaAssigner) Clone() Assigner { c := *a; return &c }

// AppendState implements Checkpointable.
func (a *deltaAssigner) AppendState(b []byte) []byte {
	b = binary.AppendVarint(state.AppendBool(b, a.active), a.start)
	return state.AppendFloat64(b, a.ref)
}

// ReadState implements Checkpointable.
func (a *deltaAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.active, a.start, a.ref = c.Bool(), c.Varint(), c.Float64()
	return c.B, c.Err
}

// Clone implements Checkpointable.
func (a *sessionMaxAssigner) Clone() Assigner { c := *a; return &c }

// AppendState implements Checkpointable.
func (a *sessionMaxAssigner) AppendState(b []byte) []byte {
	b = binary.AppendVarint(state.AppendBool(b, a.active), a.start)
	return binary.AppendVarint(b, a.lastTs)
}

// ReadState implements Checkpointable.
func (a *sessionMaxAssigner) ReadState(b []byte) ([]byte, error) {
	c := state.Cursor{B: b}
	a.active, a.start, a.lastTs = c.Bool(), c.Varint(), c.Varint()
	return c.B, c.Err
}
