package dataflow

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// scanOracleRec is one record of a sequential read: its byte offset in the
// file and its rendered value.
type scanOracleRec struct {
	off int64
	val string
}

// oracleLines reads content as one sequential pass over its lines: a line
// ends at '\n' (or the end of the content), loses one trailing '\r', and
// starts where the previous one ended.
func oracleLines(content []byte) []scanOracleRec {
	var out []scanOracleRec
	for off := 0; off < len(content); {
		end := bytes.IndexByte(content[off:], '\n')
		next := off + end + 1
		if end < 0 {
			end, next = len(content)-off, len(content)
		}
		out = append(out, scanOracleRec{int64(off), string(bytes.TrimSuffix(content[off:off+end], []byte("\r")))})
		off = next
	}
	return out
}

// oracleCSV reads content as one encoding/csv pass (rows of any width),
// dropping the first row when header is set. A row's offset is the first
// byte of the line its first field starts on.
func oracleCSV(content []byte, header bool) ([]scanOracleRec, error) {
	lineStart := []int64{0}
	for i, b := range content {
		if b == '\n' {
			lineStart = append(lineStart, int64(i+1))
		}
	}
	cr := csv.NewReader(bytes.NewReader(content))
	cr.FieldsPerRecord = -1
	var out []scanOracleRec
	for first := true; ; first = false {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if first && header {
			continue
		}
		line, _ := cr.FieldPos(0)
		out = append(out, scanOracleRec{lineStart[line-1], fmt.Sprintf("%q", row)})
	}
}

// FuzzFileScan checks the line and CSV scans against one sequential read of
// the same file: for any content, split size, parallelism 1–3, snapshot
// point and parallelism to restore at, the records emitted before the
// snapshot and those emitted after restoring it are the sequential read's
// records, each exactly once and at its byte offset. A CSV the sequential
// read refuses must fail the scan.
func FuzzFileScan(f *testing.F) {
	f.Add([]byte("a\nbb\r\n\nccc\n"), false, false, uint8(3), uint8(1), uint8(2), uint8(2))
	f.Add([]byte("h1,h2\n1,a\n2,b\n3,c\n4,d\n"), true, true, uint8(5), uint8(2), uint8(3), uint8(1))
	f.Add([]byte("id,text\n1,\"two\nlines\"\n2,\"q\"\"q\"\r\n3,x"), true, true, uint8(4), uint8(3), uint8(1), uint8(2))
	f.Add([]byte("x\r\ny\rz\n\n\nw"), false, false, uint8(0), uint8(3), uint8(4), uint8(3))
	f.Add([]byte("1,a\n2,\"b\n"), true, false, uint8(2), uint8(1), uint8(0), uint8(1))
	// Empty lines across a split boundary: the row after them belongs to
	// the split its first byte is in, once, at that byte's offset.
	f.Add([]byte("1,a\n\n\n2,b\n"), true, false, uint8(4), uint8(1), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, content []byte, isCSV, header bool, split, par, snapAt, rpar uint8) {
		if len(content) > 4<<10 {
			return
		}
		var want []scanOracleRec
		var oracleErr error
		if isCSV {
			want, oracleErr = oracleCSV(content, header)
		} else {
			want = oracleLines(content)
		}
		path := filepath.Join(t.TempDir(), "in")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func(p int) []SourceFunc {
			plan := &ScanPlan{Inputs: []string{path}, SplitSize: 1 + int64(split%64), CSV: isCSV}
			srcs := make([]SourceFunc, p)
			for sub := range srcs {
				if isCSV {
					srcs[sub] = csvScan(plan, sub, p, header, func(row []string, off int64) (Record, error) {
						return Data(off, 0, fmt.Sprintf("%q", row)), nil
					})
				} else {
					srcs[sub] = lineScan(plan, sub, p, func(line []byte, off int64) (Record, bool, error) {
						return Data(off, 0, string(line)), true, nil
					})
				}
			}
			return srcs
		}
		var got []scanOracleRec
		// pull reads srcs round-robin for at most limit records (<0: to
		// the end) and reports whether a subtask failed.
		pull := func(srcs []SourceFunc, limit int) bool {
			ended := make([]bool, len(srcs))
			n := 0
			for live := len(srcs); live > 0 && n != limit; {
				for sub, s := range srcs {
					if ended[sub] || n == limit {
						continue
					}
					r, ok := s.Next()
					if !ok {
						if err := s.(Failable).Err(); err != nil {
							if oracleErr == nil {
								t.Fatalf("scan failed where the sequential read did not: %v", err)
							}
							return true
						}
						ended[sub] = true
						live--
						continue
					}
					n++
					got = append(got, scanOracleRec{r.Ts, r.Value.(string)})
				}
			}
			return false
		}

		p := 1 + int(par%3)
		srcs := open(p)
		if pull(srcs, int(snapAt)) {
			return
		}
		blobs := map[int][]byte{}
		for sub, s := range srcs {
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blobs[sub] = blob
		}
		rp := 1 + int(rpar%3)
		rsrcs := open(rp)
		for sub, s := range rsrcs {
			if err := s.(MultiRestorable).RestoreAll(sub, rp, blobs); err != nil {
				t.Fatal(err)
			}
		}
		if pull(rsrcs, -1) {
			return
		}
		if oracleErr != nil {
			t.Fatalf("the sequential read failed (%v) but the scan did not", oracleErr)
		}

		byOff := map[int64]string{}
		for _, r := range got {
			if prev, dup := byOff[r.off]; dup {
				t.Fatalf("offset %d emitted twice (%s, then %s)", r.off, prev, r.val)
			}
			byOff[r.off] = r.val
		}
		for _, w := range want {
			v, ok := byOff[w.off]
			if !ok {
				t.Fatalf("record at offset %d (%s) not emitted; got %v, want %v", w.off, w.val, got, want)
			}
			if v != w.val {
				t.Fatalf("record at offset %d = %s, want %s", w.off, v, w.val)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("scan emitted %d records, the sequential read %d: got %v, want %v", len(got), len(want), got, want)
		}
	})
}
