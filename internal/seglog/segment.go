package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout. A segment file is a sequence of record frames:
//
//	u32  payload length
//	u32  CRC32-C over the remaining 16 header bytes and the payload
//	i64  event timestamp
//	u64  partitioning key
//	...  payload
//
// all little-endian. The file name is the 20-digit base offset (the logical
// offset of its first record) plus ".seg"; the sibling ".idx" file holds
// sparse index entries of [i64 offset][i64 position], one per IndexEvery
// bytes of frames. The index is advisory — every consumer validates frames
// by CRC and falls back to scanning from the segment start — so a stale or
// torn index degrades positioned reads to a scan instead of corrupting them.

const (
	frameHeader = 24
	// MaxRecordBytes bounds one record's payload; a larger length prefix
	// marks the frame as torn.
	MaxRecordBytes = 16 << 20

	segSuffix     = ".seg"
	idxSuffix     = ".idx"
	idxEntryBytes = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one stored record: its logical offset within the topic, the
// event timestamp and partitioning key it was appended with, and the
// payload. Payload slices returned by readers are reused between calls —
// copy before retaining.
type Record struct {
	Offset  int64
	Ts      int64
	Key     uint64
	Payload []byte
}

// appendFrame encodes one record frame onto buf. The header is built in
// place: a local array would escape through the checksum call and cost a
// heap allocation per append.
func appendFrame(buf []byte, ts int64, key uint64, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, payload...)
	hdr := buf[start : start+frameHeader]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(ts))
	binary.LittleEndian.PutUint64(hdr[16:24], key)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(buf[start+8:], castagnoli))
	return buf
}

// frameLen is the on-disk size of a frame with the given payload length.
func frameLen(payload int) int64 { return int64(frameHeader + payload) }

// errTorn marks bytes that do not form a complete valid frame — the
// signature of a crash mid-append. Recovery truncates at the torn position;
// readers below the visible watermark treat it as corruption and fail.
var errTorn = errors.New("torn record")

// frameScanner sequentially parses frames from a reader, tracking the
// absolute byte position. It reports clean EOF (ok=false) only exactly at a
// frame boundary; anything else wraps errTorn with the frame's start
// position.
type frameScanner struct {
	rd  *bufio.Reader
	pos int64 // absolute position of the next unread byte
	hdr [frameHeader]byte
	buf []byte
}

func newFrameScanner(r io.Reader, pos int64) *frameScanner {
	return &frameScanner{rd: bufio.NewReaderSize(r, 64<<10), pos: pos}
}

// next parses the frame at the current position. The returned payload slice
// is valid until the following call.
func (s *frameScanner) next() (ts int64, key uint64, payload []byte, ok bool, err error) {
	start := s.pos
	if _, rerr := io.ReadFull(s.rd, s.hdr[:]); rerr != nil {
		if rerr == io.EOF {
			return 0, 0, nil, false, nil
		}
		if rerr == io.ErrUnexpectedEOF {
			return 0, 0, nil, false, fmt.Errorf("%w at byte %d (short header)", errTorn, start)
		}
		return 0, 0, nil, false, rerr
	}
	n := binary.LittleEndian.Uint32(s.hdr[0:4])
	if int64(n) > MaxRecordBytes {
		return 0, 0, nil, false, fmt.Errorf("%w at byte %d (length %d exceeds %d)", errTorn, start, n, MaxRecordBytes)
	}
	if cap(s.buf) < int(n) {
		s.buf = make([]byte, n)
	}
	s.buf = s.buf[:n]
	if _, rerr := io.ReadFull(s.rd, s.buf); rerr != nil {
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return 0, 0, nil, false, fmt.Errorf("%w at byte %d (short payload)", errTorn, start)
		}
		return 0, 0, nil, false, rerr
	}
	crc := crc32.Checksum(s.hdr[8:24], castagnoli)
	crc = crc32.Update(crc, castagnoli, s.buf)
	if crc != binary.LittleEndian.Uint32(s.hdr[4:8]) {
		return 0, 0, nil, false, fmt.Errorf("%w at byte %d (checksum mismatch)", errTorn, start)
	}
	s.pos = start + frameLen(int(n))
	ts = int64(binary.LittleEndian.Uint64(s.hdr[8:16]))
	key = binary.LittleEndian.Uint64(s.hdr[16:24])
	return ts, key, s.buf, true, nil
}

// indexEntry maps a logical offset to the byte position its frame starts at.
type indexEntry struct {
	Off int64
	Pos int64
}

// segment is one segment file of a topic. base, path and (for sealed
// segments) size and records are immutable; the active segment's size lives
// in the topic's visible watermark and idx grows under the topic lock.
type segment struct {
	base    int64
	path    string
	size    int64 // valid bytes (sealed: final; active: mirrors Topic.flushed on roll)
	records int64 // sealed segments only
	idx     []indexEntry
}

func (g *segment) idxPath() string { return strings.TrimSuffix(g.path, segSuffix) + idxSuffix }

// segName renders a segment file name from its base offset.
func segName(base int64) string { return fmt.Sprintf("%020d%s", base, segSuffix) }

// parseSegName extracts the base offset from a segment file name.
func parseSegName(name string) (int64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(name, segSuffix)
	if len(digits) != 20 {
		return 0, false
	}
	base, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || base < 0 {
		return 0, false
	}
	return base, true
}

// listSegments returns the segment base offsets present in dir, sorted.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, e := range ents {
		if base, ok := parseSegName(e.Name()); ok && e.Type().IsRegular() {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// loadIndex reads and validates a segment's index file: entries must be
// strictly ascending in offset and position, start at or after the base,
// and point inside the segment's valid bytes. The first invalid entry drops
// it and everything after — the index is advisory, a truncated one only
// means longer alignment scans.
func loadIndex(g *segment) []indexEntry {
	data, err := os.ReadFile(g.idxPath())
	if err != nil {
		return nil
	}
	data = data[:len(data)-len(data)%idxEntryBytes]
	var idx []indexEntry
	for i := 0; i+idxEntryBytes <= len(data); i += idxEntryBytes {
		e := indexEntry{
			Off: int64(binary.LittleEndian.Uint64(data[i : i+8])),
			Pos: int64(binary.LittleEndian.Uint64(data[i+8 : i+16])),
		}
		if e.Off < g.base || e.Pos < 0 || e.Pos >= g.size {
			break
		}
		if n := len(idx); n > 0 && (e.Off <= idx[n-1].Off || e.Pos <= idx[n-1].Pos) {
			break
		}
		idx = append(idx, e)
	}
	return idx
}

// writeIndex rewrites a segment's index file from its in-memory entries.
func writeIndex(g *segment) error {
	buf := make([]byte, 0, len(g.idx)*idxEntryBytes)
	var e8 [idxEntryBytes]byte
	for _, e := range g.idx {
		binary.LittleEndian.PutUint64(e8[0:8], uint64(e.Off))
		binary.LittleEndian.PutUint64(e8[8:16], uint64(e.Pos))
		buf = append(buf, e8[:]...)
	}
	return os.WriteFile(g.idxPath(), buf, 0o644)
}

// seekEntry returns the greatest index entry at or below the byte position,
// or (base, 0) when the index has none.
func (g *segment) seekEntry(pos int64) indexEntry {
	lo, hi := 0, len(g.idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.idx[mid].Pos <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return indexEntry{Off: g.base, Pos: 0}
	}
	return g.idx[lo-1]
}

// seekEntryOff is seekEntry keyed by logical offset.
func (g *segment) seekEntryOff(off int64) indexEntry {
	lo, hi := 0, len(g.idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.idx[mid].Off <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return indexEntry{Off: g.base, Pos: 0}
	}
	return g.idx[lo-1]
}

// recoverSegment scans the segment file at path from the start, validating
// every frame, and returns the valid byte size, the record count, and a
// rebuilt sparse index. A torn tail (short header or payload, oversized
// length, CRC mismatch) ends the scan at the last valid frame; any other
// I/O error is returned.
func recoverSegment(path string, base, indexEvery int64) (valid, records int64, idx []indexEntry, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	sc := newFrameScanner(f, 0)
	var lastIdx int64 = -1
	for {
		start := sc.pos
		_, _, _, ok, err := sc.next()
		if err != nil {
			if errors.Is(err, errTorn) {
				return start, records, idx, nil
			}
			return 0, 0, nil, err
		}
		if !ok {
			return start, records, idx, nil
		}
		if lastIdx < 0 || start-lastIdx >= indexEvery {
			idx = append(idx, indexEntry{Off: base + records, Pos: start})
			lastIdx = start
		}
		records++
	}
}

// removeSegment deletes a segment's files.
func removeSegment(g *segment) error {
	err := os.Remove(g.path)
	if rerr := os.Remove(g.idxPath()); err == nil {
		err = rerr
	}
	if err != nil && os.IsNotExist(err) {
		err = nil
	}
	return err
}

// segPath renders a segment file path.
func segPath(dir string, base int64) string { return filepath.Join(dir, segName(base)) }
