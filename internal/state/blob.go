package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// A key group's blob holds the KeyedState's cells in registration order,
// each as
//
//	name     uvarint length, then the bytes
//	section  uvarint length, then the bytes
//
// and nothing after the last cell. A MapCell section is its key count, the
// keys in ascending order as uvarint deltas (the first from zero), then one
// value per key in key order; a GroupCell section is its one value. A value
// is its codec's typed encoding, which must read back exactly its own bytes.
// Every count and length a decoder reads is checked against the bytes left
// before anything is allocated by it.

// Codec serializes one cell value: Append writes its typed encoding, Read
// takes it back. Clone deep-copies a value so a copy-on-write capture can
// keep the original immutable while processing continues; a nil Clone
// declares the value immutable or value-like (numbers, strings): captures
// then share it without copying, and in-place mutation through GetMut is
// not needed.
type Codec[V any] struct {
	// Append appends v's encoding to b.
	Append func(b []byte, v V) []byte
	// Read decodes one value from the front of b and returns the bytes after
	// it. It checks every count and length it reads against len(b) before
	// allocating by it.
	Read func(b []byte) (V, []byte, error)

	Clone func(v V) V
}

func (c *Codec[V]) valid() bool { return c.Append != nil && c.Read != nil }

// ValueCodec returns the codec of float64 or int64 cell values, which need
// no Clone. Any other value type has none: the zero Codec is returned, and
// registering a cell with it panics — such a type brings its own Append and
// Read.
func ValueCodec[V any]() Codec[V] {
	var zero V
	switch any(zero).(type) {
	case float64:
		return any(Codec[float64]{Append: AppendFloat64, Read: ReadFloat64}).(Codec[V])
	case int64:
		return any(Codec[int64]{Append: binary.AppendVarint, Read: ReadVarint}).(Codec[V])
	}
	return Codec[V]{}
}

// GobCodec is ValueCodec under its name from before the typed encodings.
//
// Deprecated: use ValueCodec.
func GobCodec[V any]() Codec[V] { return ValueCodec[V]() }

// AppendFloat64 appends v's IEEE bits with their bytes reversed, as a
// uvarint, so integral values and zero take one to three bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

// ReadFloat64 decodes an AppendFloat64 value from the front of b.
func ReadFloat64(b []byte) (float64, []byte, error) {
	u, rest, err := ReadUvarint(b)
	return math.Float64frombits(bits.ReverseBytes64(u)), rest, err
}

var errBadVarint = errors.New("truncated or overlong varint")

// ReadUvarint decodes a uvarint from the front of b.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, errBadVarint
	}
	return v, b[n:], nil
}

// ReadVarint decodes a zigzag varint from the front of b.
func ReadVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, errBadVarint
	}
	return v, b[n:], nil
}

// ReadCount decodes an element count from the front of b and checks that
// the bytes after it can hold that many elements of at least min bytes each
// — the check to make before allocating by a count read from a blob.
func ReadCount(b []byte, min int) (int, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return 0, b, err
	}
	if n > uint64(len(rest)/min) {
		return 0, b, fmt.Errorf("count %d does not fit in the %d bytes left", n, len(rest))
	}
	return int(n), rest, nil
}

// ReadBytes decodes a uvarint length and the bytes it covers from the front
// of b. The bytes alias b, capped at their length so an append to them
// reallocates instead of writing over what follows.
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadCount(b, 1)
	if err != nil {
		return nil, b, err
	}
	return rest[:n:n], rest[n:], nil
}

// AppendBytes appends p with its uvarint length.
func AppendBytes[S ~string | ~[]byte](b []byte, p S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Cursor reads a typed encoding field by field from the front of B, with
// the bounded readers above. The first error sticks: every later read
// returns a zero value, so a decoder reads all its fields and checks Err —
// or Done — once at its end.
type Cursor struct {
	B   []byte
	Err error
}

func (c *Cursor) take(v uint64, rest []byte, err error) uint64 {
	if c.Err != nil {
		return 0
	}
	if c.Err = err; err != nil {
		return 0
	}
	c.B = rest
	return v
}

// Uvarint reads a uvarint.
func (c *Cursor) Uvarint() uint64 { return c.take(ReadUvarint(c.B)) }

// Varint reads a zigzag varint.
func (c *Cursor) Varint() int64 {
	v, rest, err := ReadVarint(c.B)
	return int64(c.take(uint64(v), rest, err))
}

// Float64 reads an AppendFloat64 value.
func (c *Cursor) Float64() float64 { return math.Float64frombits(bits.ReverseBytes64(c.Uvarint())) }

// Bool reads an AppendBool value; any byte but 0 or 1 is an error.
func (c *Cursor) Bool() bool {
	v := c.Uvarint()
	if v > 1 && c.Err == nil {
		c.Err = fmt.Errorf("bool encoded as %d", v)
	}
	return v == 1
}

// Count reads an element count as ReadCount does, checked against elements
// of at least min bytes each.
func (c *Cursor) Count(min int) int {
	n, rest, err := ReadCount(c.B, min)
	return int(c.take(uint64(n), rest, err))
}

// Bytes reads an AppendBytes value; the bytes alias B, as ReadBytes's do,
// and an empty value reads as nil.
func (c *Cursor) Bytes() []byte {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	p := c.B[:n:n]
	c.B = c.B[n:]
	return p
}

// Done returns the first error, or one naming the bytes left over after the
// last field.
func (c *Cursor) Done() error {
	if c.Err == nil && len(c.B) != 0 {
		c.Err = fmt.Errorf("%d trailing bytes", len(c.B))
	}
	return c.Err
}
