package dataflow

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
)

// File sources bring data at rest into the engine as plain streams that end —
// the same code path as data in motion. The unit of work is the byte-range
// Split (see split.go), and the scan is a SplitScanSource (segscan.go) over
// a LineReader or a CSVReader: each subtask pulls splits from the stage's
// shared ScanPlan, its reader scans the split with a reused buffer, and the
// snapshot holds (split id, byte offset), so restore Seeks straight to the
// position instead of re-reading the file from the start.

// maxLineBytes bounds a single line (4 MiB).
const maxLineBytes = 4 << 20

// LineDecode turns one line (without its newline) into a record; off is the
// byte offset of the line's first byte in its file. The line buffer is only
// valid during the call. keep=false skips the line (blanks, comments).
type LineDecode func(line []byte, off int64) (r Record, keep bool, err error)

// RowDecode turns one CSV row into a record; off is the byte offset of the
// row's first byte in its file. The row slice is only valid during the call.
type RowDecode func(row []string, off int64) (r Record, err error)

// LineReader is the SplitReader of a scan over line files: every line is
// one Decode call.
type LineReader struct {
	Decode LineDecode
	fileCursor
}

// CSVReader is the SplitReader of a scan over CSV files: every row is one
// Decode call, rows may vary in width, and Header skips the first row of
// every file. Its ScanPlan sets CSV, so that a file with quoted fields,
// whose rows may span lines, scans as one split.
type CSVReader struct {
	Decode RowDecode
	Header bool
	fileCursor
	cr   *csv.Reader
	base int64 // absolute offset of cr's InputOffset 0

	hdrPath string // the file hdrOff belongs to
	hdrOff  int64  // offset of that file's first row
}

// fileCursor is the byte cursor both file readers share: one open file, a
// reused 64 KiB read buffer, the absolute offset of the next unread byte and
// the open split's bytes_scanned credit.
type fileCursor struct {
	f       *os.File
	path    string // path f is open on
	rd      *bufio.Reader
	off     int64
	lineBuf []byte

	end      int64 // the open split's End
	startOff int64 // where consumption of the open split began
	credit   int64 // bytes to report at the next Bytes call
}

// openAt positions the reader at the absolute offset in path, reusing the
// open file handle when the path matches.
func (c *fileCursor) openAt(path string, off int64) error {
	if c.f == nil || c.path != path {
		c.Close()
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		c.f, c.path = f, path
	}
	if _, err := c.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	if c.rd == nil {
		c.rd = bufio.NewReaderSize(c.f, 64*1024)
	} else {
		c.rd.Reset(c.f)
	}
	c.off = off
	return nil
}

// open positions the cursor at the split's first record. A fresh split
// (resumeAt < 0) aligns: reading starts at Start-1 and the partial line is
// discarded (it belongs to the split it starts in), the standard byte-range
// alignment trick; a resumed split Seeks straight to the recorded record
// boundary — the O(remaining split) restore path.
func (c *fileCursor) open(sp Split, resumeAt int64) error {
	c.end, c.credit = sp.End, 0
	// startOff anchors the bytes_scanned accounting: fresh splits count from
	// their range start (splits tile the input, so the per-node sum equals
	// the total input size), resumed splits from the resume position.
	switch {
	case resumeAt >= 0:
		c.startOff = resumeAt
		return c.openAt(sp.Path, resumeAt)
	case sp.Start == 0:
		c.startOff = 0
		return c.openAt(sp.Path, 0)
	}
	c.startOff = sp.Start
	if err := c.openAt(sp.Path, sp.Start-1); err != nil {
		return err
	}
	_, _, _, err := c.readLine()
	return err
}

// readLine reads one line at c.off, returning its start offset and the line
// without its newline (a trailing \r is stripped, like bufio.Scanner).
// ok=false means clean end of file.
func (c *fileCursor) readLine() (line []byte, start int64, ok bool, err error) {
	start = c.off
	c.lineBuf = c.lineBuf[:0]
	for {
		chunk, rerr := c.rd.ReadSlice('\n')
		c.off += int64(len(chunk))
		if rerr == bufio.ErrBufferFull {
			if len(c.lineBuf)+len(chunk) > maxLineBytes {
				return nil, start, false, fmt.Errorf("line at offset %d exceeds %d bytes", start, maxLineBytes)
			}
			c.lineBuf = append(c.lineBuf, chunk...)
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return nil, start, false, rerr
		}
		if len(c.lineBuf) > 0 {
			c.lineBuf = append(c.lineBuf, chunk...)
			line = c.lineBuf
		} else {
			line = chunk
		}
		if len(line) == 0 && rerr == io.EOF {
			return nil, start, false, nil
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, start, true, nil
	}
}

// exhausted ends the open split: its whole range, from where consumption
// began, is credited to bytes_scanned.
func (c *fileCursor) exhausted() (Record, bool, error) {
	c.credit = c.end - c.startOff
	return Record{}, false, nil
}

// Bytes implements SplitReader: a split's bytes are credited once, when it
// is exhausted.
func (c *fileCursor) Bytes() int64 {
	n := c.credit
	c.credit = 0
	return n
}

// Close implements SplitReader.
func (c *fileCursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f, c.path = nil, ""
	return err
}

// OpenSplit implements SplitReader.
func (r *LineReader) OpenSplit(sp Split, resumeAt int64) error { return r.open(sp, resumeAt) }

// Pos implements SplitReader: the absolute offset of the next unread line.
func (r *LineReader) Pos() int64 { return r.off }

// NextInSplit implements SplitReader: a line starting before End is consumed
// entirely, even when it extends past it.
func (r *LineReader) NextInSplit() (Record, bool, error) {
	for r.off < r.end {
		line, start, ok, err := r.readLine()
		if err != nil {
			return Record{}, false, err
		}
		if !ok {
			break
		}
		rec, keep, err := r.Decode(line, start)
		if err != nil {
			return Record{}, false, fmt.Errorf("offset %d: %w", start, err)
		}
		if keep {
			return rec, true, nil
		}
	}
	return r.exhausted()
}

// OpenSplit implements SplitReader. The CSV parser reads through the
// cursor's buffer, so it starts exactly where alignment left off.
func (r *CSVReader) OpenSplit(sp Split, resumeAt int64) error {
	if err := r.open(sp, resumeAt); err != nil {
		return err
	}
	if r.Header && r.hdrPath != sp.Path {
		// The header is the file's first row, wherever the empty lines
		// before it put it: the split it starts in skips it.
		r.hdrPath = sp.Path
		r.hdrOff = skipEmptyLines(bufio.NewReaderSize(io.NewSectionReader(r.f, 0, math.MaxInt64), 512))
	}
	r.base = r.off
	r.cr = csv.NewReader(r.rd)
	r.cr.FieldsPerRecord = -1
	return nil
}

// Pos implements SplitReader: the absolute offset just past the last row
// read.
func (r *CSVReader) Pos() int64 { return r.base + r.cr.InputOffset() }

// NextInSplit implements SplitReader: a row starting before End is consumed
// entirely, even when it extends past it.
func (r *CSVReader) NextInSplit() (Record, bool, error) {
	for {
		r.base += skipEmptyLines(r.rd)
		start := r.Pos()
		if start >= r.end {
			return r.exhausted()
		}
		row, err := r.cr.Read()
		if err == io.EOF {
			return r.exhausted()
		}
		if err != nil {
			return Record{}, false, fmt.Errorf("offset %d: %w", start, err)
		}
		if r.Header && start == r.hdrOff {
			continue
		}
		rec, err := r.Decode(row, start)
		if err != nil {
			return Record{}, false, fmt.Errorf("offset %d: %w", start, err)
		}
		return rec, true, nil
	}
}

// skipEmptyLines consumes the empty lines at rd's position that the CSV
// parser skips ("\n", "\r\n", and "\r" at the end of the input) and returns
// their length. What it leaves is the next row's first byte: the offset that
// decides which split the row belongs to.
func skipEmptyLines(rd *bufio.Reader) int64 {
	var n int64
	for {
		// Peek is short only at the end of the input, or on a read error,
		// which the parser's Read then reports.
		b, _ := rd.Peek(2)
		k := 0
		switch {
		case len(b) > 0 && b[0] == '\n':
			k = 1
		case len(b) == 2 && b[0] == '\r' && b[1] == '\n':
			k = 2
		case len(b) == 1 && b[0] == '\r':
			k = 1
		}
		if k == 0 {
			return n
		}
		rd.Discard(k)
		n += int64(k)
	}
}
