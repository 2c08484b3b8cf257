package dataflow

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var writeScanGolden = flag.Bool("write-scan-golden", false, "rewrite testdata/scan.golden")

// scanGoldenCase is one input of TestScanGolden: the files it writes (paths
// relative to the test's working directory, so snapshot blobs, which carry
// paths, hash the same on every machine), the scan's input pattern, its
// split size, and whether it reads CSV (with or without a header row).
type scanGoldenCase struct {
	name      string
	files     map[string]string
	input     string
	splitSize int64
	csv       bool
	header    bool
}

func scanGoldenCases() []scanGoldenCase {
	var crlf strings.Builder
	for i := 0; i < 24; i++ {
		switch {
		case i%5 == 3:
			crlf.WriteString("\n") // blank line: skipped
		case i%3 == 1:
			fmt.Fprintf(&crlf, "crlf-%02d-%s\r\n", i, strings.Repeat("c", i%4))
		default:
			fmt.Fprintf(&crlf, "lf-%02d-%s\n", i, strings.Repeat("l", i%6))
		}
	}
	crlf.WriteString("  \r\nlast-without-newline")

	long := "first\nsecond\n" + strings.Repeat("L", 70_000) + "\nafter-long\n" +
		strings.Repeat("M", 40_000) + "\r\nend-1\nend-2\n"

	dir := map[string]string{}
	for i := 0; i < 3; i++ {
		var b strings.Builder
		for j := 0; j < 5+i; j++ {
			fmt.Fprintf(&b, "part%d-row%d%s\n", i, j, strings.Repeat("x", (i+j)%5))
		}
		dir[filepath.Join("dir3", fmt.Sprintf("part-%d.txt", i))] = b.String()
	}

	var header strings.Builder
	header.WriteString("ts,name,value\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&header, "%d,name-%d%s,%d.5\n", i*10, i, strings.Repeat("n", i%4), i)
	}

	quoted := "id,text\n" +
		"1,plain\n" +
		"2,\"with, comma\"\n" +
		"3,\"spans\ntwo lines\"\n" +
		"4,\"escaped \"\"quote\"\"\"\r\n" +
		"5,tail\n"

	return []scanGoldenCase{
		{name: "lines-blank-crlf", files: map[string]string{"lines.txt": crlf.String()}, input: "lines.txt", splitSize: 37},
		{name: "line-over-read-buffer", files: map[string]string{"long.txt": long}, input: "long.txt", splitSize: 16 << 10},
		{name: "directory-of-three", files: dir, input: "dir3", splitSize: 23},
		{name: "csv-header", files: map[string]string{"header.csv": header.String()}, input: "header.csv", splitSize: 41, csv: true, header: true},
		{name: "csv-quoted", files: map[string]string{"quoted.csv": quoted}, input: "quoted.csv", splitSize: 20, csv: true},
	}
}

// goldenValue renders a record value for the golden file: short strings as
// quoted text, long ones by length and digest.
func goldenValue(v string) string {
	if len(v) <= 48 {
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("len=%d sha256=%x", len(v), sha256.Sum256([]byte(v)))
}

// scanGoldenRun drives one scan case directly: phase 1 opens par subtasks
// over one plan and pulls them in round-robin order for 5 records,
// snapshotting every subtask after every second record; phase 2 restores
// the last snapshot set into 3-par fresh subtasks over a fresh plan and
// drains them the same way, snapshotting after every fourth record and at
// the end. Every record, every blob's SHA-256 and each phase's three scan
// counters are written to w.
func scanGoldenRun(t *testing.T, w *bytes.Buffer, c scanGoldenCase, par int) {
	t.Helper()
	mk := func(plan *ScanPlan, sub, p int) SourceFunc {
		if c.csv {
			return csvScan(plan, sub, p, c.header, func(row []string, off int64) (Record, error) {
				return Data(off, 0, strings.Join(row, "|")), nil
			})
		}
		return lineScan(plan, sub, p, func(line []byte, off int64) (Record, bool, error) {
			if len(bytes.TrimSpace(line)) == 0 {
				return Record{}, false, nil
			}
			return Data(off, 0, string(line)), true, nil
		})
	}
	open := func(p int) ([]SourceFunc, *metrics.Registry) {
		reg := metrics.NewRegistry()
		plan := &ScanPlan{Inputs: []string{c.input}, SplitSize: c.splitSize, CSV: c.csv}
		srcs := make([]SourceFunc, p)
		for sub := range srcs {
			srcs[sub] = mk(plan, sub, p)
			srcs[sub].(SourceOpener).OpenSource(&OpContext{NodeName: "scan", Subtask: sub, Parallelism: p, Metrics: reg})
		}
		return srcs, reg
	}
	snapshot := func(srcs []SourceFunc) map[int][]byte {
		blobs := map[int][]byte{}
		for sub, s := range srcs {
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blobs[sub] = blob
			fmt.Fprintf(w, "snap %d sha256=%x\n", sub, sha256.Sum256(blob))
		}
		return blobs
	}
	// pull drains srcs round-robin for at most limit records (<0: to the
	// end), snapshotting after every every-th record; it returns the last
	// snapshot set.
	pull := func(srcs []SourceFunc, limit, every int) map[int][]byte {
		var blobs map[int][]byte
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
						t.Fatalf("%s par %d subtask %d: %v", c.name, par, sub, err)
					}
					ended[sub] = true
					live--
					continue
				}
				n++
				fmt.Fprintf(w, "rec %d ts=%d %s\n", sub, r.Ts, goldenValue(r.Value.(string)))
				if n%every == 0 {
					blobs = snapshot(srcs)
				}
			}
		}
		return blobs
	}
	counters := func(reg *metrics.Registry) {
		fmt.Fprintf(w, "counters records_out=%d bytes_scanned=%d splits_completed=%d\n",
			reg.Counter("node.scan.records_out").Value(),
			reg.Counter("node.scan.bytes_scanned").Value(),
			reg.Counter("node.scan.splits_completed").Value())
	}

	fmt.Fprintf(w, "== %s par=%d\n", c.name, par)
	srcs, reg := open(par)
	blobs := pull(srcs, 5, 2)
	counters(reg)

	rpar := 3 - par
	fmt.Fprintf(w, "-- restore at par=%d\n", rpar)
	rsrcs, rreg := open(rpar)
	for sub, s := range rsrcs {
		if err := s.(MultiRestorable).RestoreAll(sub, rpar, blobs); err != nil {
			t.Fatal(err)
		}
	}
	pull(rsrcs, -1, 4)
	snapshot(rsrcs)
	counters(rreg)
}

// TestScanGolden pins what the JSONL and CSV scans emit, the bytes of every
// snapshot they take and their three scan counters, for inputs that cut
// lines at split boundaries: a line file with blank lines and CRLF, a line
// longer than the 64 KiB read buffer, a directory of three files, a CSV with
// a header and a quoted CSV (one split), each at parallelism 1 and 2 and
// restored at the other. -write-scan-golden rewrites testdata/scan.golden;
// a rewrite changes what a scan emits or what its snapshots hold.
func TestScanGolden(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "scan.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	var w bytes.Buffer
	for _, c := range scanGoldenCases() {
		for name, content := range c.files {
			if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, par := range []int{1, 2} {
			scanGoldenRun(t, &w, c, par)
		}
	}
	if *writeScanGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -write-scan-golden to create it)", err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		got := strings.Split(w.String(), "\n")
		exp := strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("scan output differs from %s at line %d:\n got %s\nwant %s", golden, i+1, got[i], exp[i])
			}
		}
		t.Fatalf("scan output has %d lines, %s has %d", len(got), golden, len(exp))
	}
}
