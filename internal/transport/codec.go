package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/state"
)

// A wire batch is one []Record packed into bytes by hand. Letting gob
// encode records would write each Value as a full interface value — the
// concrete type's name plus a nested single-value encoding, per record —
// which dominates the data plane's CPU cost at scale. Instead a batch is a
// uvarint record count, then per record its kind, varint timestamp, uvarint
// key and a one-byte payload tag with fixed fast paths for every payload
// type the engine itself produces. Custom payload types still work through a
// per-value gob fallback (paying gob's interface cost, so hot pipelines
// should stick to engine types or flat numerics). A data-plane connection
// opens with the ChannelRef it carries; after that each batch travels as one
// frame, its byte length as a uvarint followed by the batch.

// appendRef appends the header a data-plane connection opens with: the
// ChannelRef every frame on it belongs to, as four uvarints.
func appendRef(buf []byte, ref dataflow.ChannelRef) []byte {
	for _, v := range [...]int{ref.Node, ref.Edge, ref.To, ref.From} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

// readRef reads the header appendRef wrote.
func readRef(r io.ByteReader) (dataflow.ChannelRef, error) {
	var f [4]int
	for i := range f {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return dataflow.ChannelRef{}, err
		}
		f[i] = int(v)
	}
	return dataflow.ChannelRef{Node: f[0], Edge: f[1], To: f[2], From: f[3]}, nil
}

// writeFrame writes one frame: the wire batch's byte length as a uvarint,
// then the batch.
func writeFrame(w io.Writer, batch []byte) error {
	if len(batch) > maxFrameSize {
		return fmt.Errorf("a %d-byte batch exceeds the %d-byte frame limit", len(batch), maxFrameSize)
	}
	var hdr [binary.MaxVarintLen64]byte
	if _, err := w.Write(binary.AppendUvarint(hdr[:0], uint64(len(batch)))); err != nil {
		return err
	}
	_, err := w.Write(batch)
	return err
}

// readFrame reads one frame into buf's storage and returns its batch bytes.
// It grows the buffer only as the bytes arrive, so a corrupt length prefix
// costs at most about twice what the peer actually sent. A connection that
// ends between frames reads as io.EOF; one that ends inside a frame as
// io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf, err
	}
	if n > maxFrameSize {
		return buf, fmt.Errorf("frame of %d bytes exceeds the %d-byte limit", n, maxFrameSize)
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(int(n)-len(buf), max(cap(buf), 4096)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(int(n), cap(buf))])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// maxFrameSize bounds a data-plane frame's length prefix (gob's own message
// limit, which the framing replaced). A batch of the default 64 records is
// about a kilobyte.
const maxFrameSize = 1 << 30

// minRecordSize is the fewest bytes one encoded record takes: kind, a
// one-byte timestamp, a one-byte key and the payload tag. It bounds the
// record count a frame of a given length can claim.
const minRecordSize = 4

// Payload tags. The tag space is part of the wire protocol: both ends are
// the same binary in SPMD execution, but keep additions append-only anyway.
const (
	pNil byte = iota
	pFloat64
	pInt64
	pInt
	pUint64
	pString
	pBool
	pWindowResult
	pJoinedPair
	pGob
)

// appendBatch appends the wire encoding of recs to buf.
func appendBatch(buf []byte, recs []dataflow.Record) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		buf = append(buf, byte(r.Kind))
		buf = binary.AppendVarint(buf, r.Ts)
		buf = binary.AppendUvarint(buf, r.Key)
		switch v := r.Value.(type) {
		case nil:
			buf = append(buf, pNil)
		case float64:
			buf = append(buf, pFloat64)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		case int64:
			buf = append(buf, pInt64)
			buf = binary.AppendVarint(buf, v)
		case int:
			buf = append(buf, pInt)
			buf = binary.AppendVarint(buf, int64(v))
		case uint64:
			buf = append(buf, pUint64)
			buf = binary.AppendUvarint(buf, v)
		case string:
			buf = append(buf, pString)
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		case bool:
			buf = append(buf, pBool)
			if v {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case dataflow.WindowResult:
			buf = append(buf, pWindowResult)
			buf = binary.AppendVarint(buf, int64(v.QueryID))
			buf = binary.AppendVarint(buf, v.Start)
			buf = binary.AppendVarint(buf, v.End)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Value))
			buf = binary.AppendVarint(buf, v.Count)
		case dataflow.JoinedPair:
			buf = append(buf, pJoinedPair)
			buf = binary.AppendVarint(buf, v.WindowStart)
			buf = binary.AppendVarint(buf, v.WindowEnd)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Left))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Right))
		default:
			var gb bytes.Buffer
			if err := gob.NewEncoder(&gb).Encode(&r.Value); err != nil {
				return buf, fmt.Errorf("wire batch: encode %T payload: %w", r.Value, err)
			}
			buf = append(buf, pGob)
			buf = binary.AppendUvarint(buf, uint64(gb.Len()))
			buf = append(buf, gb.Bytes()...)
		}
	}
	return buf, nil
}

// decodeBatch decodes one wire batch, appending its records to out. It
// allocates in proportion to len(data), whatever record count the batch
// claims. A batch that is not zero or more data records and then at most one
// control record is an error: no sender ships another shape, and a receiving
// subtask reads only the last record of a batch as a control record.
func decodeBatch(data []byte, out []dataflow.Record) ([]dataflow.Record, error) {
	n, b, err := state.ReadCount(data, minRecordSize)
	if err != nil {
		return out, fmt.Errorf("wire batch: %w", err)
	}
	out = slices.Grow(out, n)
	for i := 0; i < n; i++ {
		var r dataflow.Record
		if len(b) == 0 {
			return out, fmt.Errorf("wire batch: truncated at record %d", i)
		}
		if r.Kind = dataflow.Kind(b[0]); r.Kind > dataflow.KindFlush {
			return out, fmt.Errorf("wire batch: unknown record kind %d at record %d", r.Kind, i)
		}
		if r.Kind != dataflow.KindData && i != n-1 {
			return out, fmt.Errorf("wire batch: %v record %d of %d: a control record can only be last", r.Kind, i, n)
		}
		if r.Ts, b, err = state.ReadVarint(b[1:]); err != nil {
			return out, fmt.Errorf("wire batch: timestamp of record %d: %w", i, err)
		}
		if r.Key, b, err = state.ReadUvarint(b); err != nil {
			return out, fmt.Errorf("wire batch: key of record %d: %w", i, err)
		}
		if len(b) == 0 {
			return out, fmt.Errorf("wire batch: truncated payload tag at record %d", i)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case pNil:
		case pFloat64:
			var v float64
			if v, b, err = readFloat(b); err != nil {
				return out, err
			}
			r.Value = v
		case pInt64:
			var v int64
			if v, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			r.Value = v
		case pInt:
			var v int64
			if v, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			r.Value = int(v)
		case pUint64:
			var v uint64
			if v, b, err = state.ReadUvarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			r.Value = v
		case pString:
			var p []byte
			if p, b, err = state.ReadBytes(b); err != nil {
				return out, fmt.Errorf("wire batch: string at record %d: %w", i, err)
			}
			r.Value = string(p)
		case pBool:
			if len(b) == 0 {
				return out, fmt.Errorf("wire batch: truncated bool at record %d", i)
			}
			r.Value = b[0] != 0
			b = b[1:]
		case pWindowResult:
			var w dataflow.WindowResult
			var v int64
			if v, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			w.QueryID = int(v)
			if w.Start, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			if w.End, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			if w.Value, b, err = readFloat(b); err != nil {
				return out, err
			}
			if w.Count, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			r.Value = w
		case pJoinedPair:
			var j dataflow.JoinedPair
			if j.WindowStart, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			if j.WindowEnd, b, err = state.ReadVarint(b); err != nil {
				return out, fmt.Errorf("wire batch: record %d: %w", i, err)
			}
			if j.Left, b, err = readFloat(b); err != nil {
				return out, err
			}
			if j.Right, b, err = readFloat(b); err != nil {
				return out, err
			}
			r.Value = j
		case pGob:
			var p []byte
			if p, b, err = state.ReadBytes(b); err != nil {
				return out, fmt.Errorf("wire batch: gob payload at record %d: %w", i, err)
			}
			var v any
			if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
				return out, fmt.Errorf("wire batch: decode gob payload: %w", err)
			}
			r.Value = v
		default:
			return out, fmt.Errorf("wire batch: unknown payload tag %d at record %d", tag, i)
		}
		out = append(out, r)
	}
	if len(b) != 0 {
		return out, fmt.Errorf("wire batch: %d trailing bytes", len(b))
	}
	return out, nil
}

// readFloat decodes a little-endian float64 from the front of b.
func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, b, errors.New("wire batch: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}
