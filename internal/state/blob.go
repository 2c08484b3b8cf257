package state

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
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
// is its codec's typed encoding, or — for a value type with none — a gob
// stream that carries every value of the section, so the type is described
// once per section, not once per value. Every count and length a decoder
// reads is checked against the bytes left before anything is allocated by
// it.

// Codec serializes one cell value. A value type with a typed encoding sets
// Append and Read; one without sets EncodeGob and DecodeGob instead, which
// write to and read from the section's one gob stream. Clone deep-copies a
// value so a copy-on-write capture can keep the original immutable while
// processing continues; a nil Clone declares the value immutable or
// value-like (numbers, strings): captures then share it without copying, and
// in-place mutation through GetMut is not needed.
type Codec[V any] struct {
	// Append appends v's encoding to b.
	Append func(b []byte, v V) []byte
	// Read decodes one value from the front of b and returns the bytes after
	// it. It checks every count and length it reads against len(b) before
	// allocating by it.
	Read func(b []byte) (V, []byte, error)

	EncodeGob func(enc *gob.Encoder, v V) error
	DecodeGob func(dec *gob.Decoder) (V, error)

	Clone func(v V) V
}

func (c *Codec[V]) valid() bool {
	return (c.Append != nil && c.Read != nil) || (c.EncodeGob != nil && c.DecodeGob != nil)
}

// ValueCodec returns the codec of a value type with no in-place mutation
// (Clone is nil), chosen by the type: the typed encodings of float64 and
// int64, gob for any other type.
func ValueCodec[V any]() Codec[V] {
	var zero V
	switch any(zero).(type) {
	case float64:
		return any(Codec[float64]{Append: AppendFloat64, Read: ReadFloat64}).(Codec[V])
	case int64:
		return any(Codec[int64]{Append: binary.AppendVarint, Read: ReadVarint}).(Codec[V])
	}
	return Codec[V]{
		EncodeGob: func(enc *gob.Encoder, v V) error { return enc.Encode(v) },
		DecodeGob: func(dec *gob.Decoder) (V, error) {
			var v V
			err := dec.Decode(&v)
			return v, err
		},
	}
}

// GobCodec is ValueCodec under its name from before the typed encodings.
//
// Deprecated: use ValueCodec.
func GobCodec[V any]() Codec[V] { return ValueCodec[V]() }

// AppendFloat64 appends v the way gob writes a float: the IEEE bits with
// their bytes reversed, as a uvarint, so integral values and zero take one
// to three bytes.
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

// appendBytes appends p with its uvarint length.
func appendBytes[S ~string | ~[]byte](b []byte, p S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// sectionWriter appends a cell section's values to buf. A codec without a
// typed encoding writes through the section's one gob stream, opened by its
// first value.
type sectionWriter struct {
	buf []byte
	gob *gob.Encoder
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func appendValue[V any](w *sectionWriter, c *Codec[V], v V) error {
	if c.Append != nil {
		w.buf = c.Append(w.buf, v)
		return nil
	}
	if w.gob == nil {
		w.gob = gob.NewEncoder(w)
	}
	return c.EncodeGob(w.gob, v)
}

// sectionReader reads a cell section's values from buf. It is an
// io.ByteReader, so a gob stream opened on it reads exactly its own
// messages and no further.
type sectionReader struct {
	buf []byte
	gob *gob.Decoder
}

func (r *sectionReader) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *sectionReader) ReadByte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, io.EOF
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c, nil
}

func readValue[V any](r *sectionReader, c *Codec[V]) (V, error) {
	if c.Read != nil {
		v, rest, err := c.Read(r.buf)
		r.buf = rest
		return v, err
	}
	if r.gob == nil {
		// The rest of the section is the gob stream: check that every
		// message's length prefix fits before gob allocates by it.
		if err := checkGobFrames(r.buf); err != nil {
			var zero V
			return zero, err
		}
		r.gob = gob.NewDecoder(r)
	}
	return c.DecodeGob(r.gob)
}

// checkGobFrames walks a gob stream's message lengths — gob's unsigned
// integer encoding: one byte below 0x80, else the negated byte count and
// that many big-endian bytes — and checks that each message fits in what is
// left of b.
func checkGobFrames(b []byte) error {
	for len(b) > 0 {
		n, w := uint64(b[0]), 1
		if n >= 0x80 {
			w = 1 - int(int8(b[0]))
			if w > 9 || w > len(b) {
				return errors.New("gob stream: bad message length")
			}
			n = 0
			for _, c := range b[1:w] {
				n = n<<8 | uint64(c)
			}
		}
		if n > uint64(len(b)-w) {
			return fmt.Errorf("gob stream: message of %d bytes, %d left", n, len(b)-w)
		}
		b = b[w+int(n):]
	}
	return nil
}
