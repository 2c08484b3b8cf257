package dataflow

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// drainData pulls from a source until end of stream, returning the data
// records and the watermark values seen, in order.
func drainData(t *testing.T, src SourceFunc, limit int) (data []Record, wms []int64) {
	t.Helper()
	for i := 0; i < limit; i++ {
		r, ok := src.Next()
		if !ok {
			return data, wms
		}
		switch r.Kind {
		case KindData:
			data = append(data, r)
		case KindWatermark:
			wms = append(wms, r.Ts)
		}
	}
	t.Fatalf("source did not end within %d records", limit)
	return nil, nil
}

// GenSource restore must drop a pending watermark: the snapshot records the
// read position, and the watermark belonging to the pre-snapshot record
// must not resurface after recovery ahead of replayed data.
func TestGenSourcePendingWatermarkDroppedOnRestore(t *testing.T) {
	mk := func() *GenSource {
		return &GenSource{N: 10, WatermarkEvery: 1, Gen: func(i int64) Record {
			return Data(i, 0, float64(i))
		}}
	}
	src := mk()
	if r, ok := src.Next(); !ok || r.Kind != KindData {
		t.Fatalf("first Next = %+v, want data", r)
	}
	// A watermark is now pending. Snapshot and restore into a fresh source.
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := mk()
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	r, ok := resumed.Next()
	if !ok || r.Kind != KindData || r.Ts != 1 {
		t.Fatalf("post-restore Next = %+v ok=%v, want data record 1 (pending watermark must be dropped)", r, ok)
	}
}

// PacedSource restore must re-anchor the pacing schedule: after recovery
// the source emits at PerSec from the resume point instead of waiting (or
// bursting) to catch up with the pre-crash schedule.
func TestPacedSourceRestoreResetsPacing(t *testing.T) {
	const perSec = 8
	clk := clock.NewManual(time.Unix(0, 0))
	inner := &GenSource{N: 1000, Gen: func(i int64) Record { return Data(i, 0, float64(i)) }}
	src := &PacedSource{Inner: inner, PerSec: perSec}
	src.OpenSource(&OpContext{Clock: clk})
	next := func() {
		t.Helper()
		if src.MayWait() {
			t.Fatalf("record %d is not due at %v", src.pacer.count, clk.Now().Sub(time.Unix(0, 0)))
		}
		if _, ok := src.Next(); !ok {
			t.Fatalf("source ended early")
		}
	}
	next() // anchors the schedule
	clk.Advance(99 * time.Second / perSec)
	for i := 1; i < 100; i++ {
		next()
	}
	if !src.MayWait() {
		t.Fatalf("record 100 is due before 100/%d s", perSec)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !src.pacer.start.IsZero() || src.pacer.count != 0 {
		t.Fatalf("restore did not reset pacing: start=%v count=%d", src.pacer.start, src.pacer.count)
	}
	// The restored schedule does not make the next record wait for the
	// pre-restore slots: fresh pacing emits it at once, the clock unmoved.
	next()
}

// TestPacerDueAtNOverPerSec: the n-th element after the anchor is due
// exactly n/perSec after it, and not 1ns before; Wait blocks until then.
func TestPacerDueAtNOverPerSec(t *testing.T) {
	const perSec = 8 // n/8 s is a whole number of nanoseconds
	start := time.Unix(0, 0)
	clk := clock.NewManual(start)
	p := Pacer{Clock: clk}
	p.Wait(perSec) // element 0 anchors the schedule
	step := time.Second / perSec
	for n := 1; n <= 20; n++ {
		clk.Advance(step - 1)
		if p.Due(perSec) {
			t.Fatalf("element %d due at %v, 1ns before %d/%d s", n, clk.Now().Sub(start), n, perSec)
		}
		clk.Advance(1)
		if !p.Due(perSec) {
			t.Fatalf("element %d not due at %d/%d s", n, n, perSec)
		}
		p.Wait(perSec) // due: returns at once
	}
	woke := make(chan time.Time)
	go func() {
		p.Wait(perSec)
		woke <- clk.Now()
	}()
	clk.BlockUntil(1)
	clk.Advance(step)
	if at := <-woke; !at.Equal(start.Add(21 * step)) {
		t.Fatalf("Wait for element 21 returned at %v, want %v", at.Sub(start), 21*step)
	}
}

func writeTempFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lineDecode decodes test lines into records carrying the line's byte
// offset as timestamp and its text as value.
func lineDecode(line []byte, off int64) (Record, bool, error) {
	return Data(off, 0, string(line)), true, nil
}

// lineScan builds one subtask of a scan over line files.
func lineScan(plan *ScanPlan, sub, par int, decode LineDecode) *SplitScanSource {
	return &SplitScanSource{Plan: plan, Subtask: sub, Parallelism: par, Reader: &LineReader{Decode: decode}}
}

// csvScan builds one subtask of a scan over CSV files; header skips the
// first row of every file.
func csvScan(plan *ScanPlan, sub, par int, header bool, decode RowDecode) *SplitScanSource {
	plan.CSV = true
	return &SplitScanSource{Plan: plan, Subtask: sub, Parallelism: par, Reader: &CSVReader{Decode: decode, Header: header}}
}

// mkLinePlan writes n "v<i>" lines and returns the file path and a fresh
// split plan over it at the given split size.
func mkLinePlan(t *testing.T, n int, splitSize int64) (string, func() *ScanPlan) {
	t.Helper()
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("v%d", i))
	}
	path := writeTempFile(t, "data.txt", strings.Join(lines, "\n")+"\n")
	return path, func() *ScanPlan {
		return &ScanPlan{Inputs: []string{path}, SplitSize: splitSize}
	}
}

// Two subtasks pulling from the shared split queue must partition the lines
// exactly: every line emitted once, and with splits small enough, both
// subtasks get work.
func TestFileScanSourcePartitionsLinesAcrossSubtasks(t *testing.T) {
	_, mkPlan := mkLinePlan(t, 40, 32)
	plan := mkPlan()
	if splits, err := plan.Splits(); err != nil || len(splits) < 3 {
		t.Fatalf("splits = %v (err %v), want several small splits", splits, err)
	}
	readers := []*SplitScanSource{
		lineScan(plan, 0, 2, lineDecode),
		lineScan(plan, 1, 2, lineDecode),
	}
	seen := map[string]int{}
	perSub := make([]int, 2)
	open := 2
	for open > 0 {
		open = 0
		for i, r := range readers {
			rec, ok := r.Next()
			if !ok {
				continue
			}
			open++
			if rec.Kind == KindData {
				seen[rec.Value.(string)]++
				perSub[i]++
			}
		}
	}
	for i := range readers {
		if err := readers[i].Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 40 {
		t.Fatalf("union covers %d lines, want 40", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("line %q emitted %d times", v, n)
		}
	}
	if perSub[0] == 0 || perSub[1] == 0 {
		t.Fatalf("dynamic assignment starved a subtask: %v", perSub)
	}
}

// Snapshot mid-read, restore into a fresh reader over a fresh plan:
// exactly-once union, and timestamps carry the line byte offsets.
func TestFileScanSourceSnapshotRestoreResumes(t *testing.T) {
	_, mkPlan := mkLinePlan(t, 20, 32)
	src := lineScan(mkPlan(), 0, 1, lineDecode)
	var first []Record
	for i := 0; i < 7; i++ {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("ended early")
		}
		first = append(first, r)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := lineScan(mkPlan(), 0, 1, lineDecode)
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainData(t, resumed, 100)
	union := map[string]int{}
	for _, r := range append(first, rest...) {
		union[r.Value.(string)]++
	}
	if len(union) != 20 {
		t.Fatalf("restore run union = %d lines, want 20", len(union))
	}
	for v, n := range union {
		if n != 1 {
			t.Fatalf("line %q emitted %d times across restore", v, n)
		}
	}
}

// A reader's split must own exactly the lines *starting* inside its byte
// range: a line straddling the boundary is consumed entirely by the split it
// starts in, never by both.
func TestFileScanSourceSplitAlignment(t *testing.T) {
	// Lines of varied width so the split boundary falls mid-line.
	var b strings.Builder
	var want []string
	for i := 0; i < 30; i++ {
		l := fmt.Sprintf("line-%02d-%s", i, strings.Repeat("x", i%7))
		want = append(want, l)
		b.WriteString(l + "\n")
	}
	path := writeTempFile(t, "ragged.txt", b.String())
	for _, splitSize := range []int64{1, 7, 16, 33, 1 << 20} {
		plan := &ScanPlan{Inputs: []string{path}, SplitSize: splitSize}
		src := lineScan(plan, 0, 1, lineDecode)
		data, _ := drainData(t, src, 1000)
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if len(data) != len(want) {
			t.Fatalf("splitSize %d: %d lines, want %d", splitSize, len(data), len(want))
		}
		got := map[string]bool{}
		for _, r := range data {
			got[r.Value.(string)] = true
		}
		for _, w := range want {
			if !got[w] {
				t.Fatalf("splitSize %d: missing line %q", splitSize, w)
			}
		}
	}
}

func TestLineFileSourceDecodeErrorFailsJob(t *testing.T) {
	path := writeTempFile(t, "bad.txt", "ok\nBOOM\nok\n")
	g := NewGraph("files")
	src := g.AddSource("lines", 1, func(sub, par int) SourceFunc {
		return lineScan(&ScanPlan{Inputs: []string{path}}, sub, par,
			func(line []byte, off int64) (Record, bool, error) {
				if string(line) == "BOOM" {
					return Record{}, false, fmt.Errorf("corrupt line")
				}
				return Data(off, 0, string(line)), true, nil
			})
	})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: src, Part: Rebalance})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := NewJob(g).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "corrupt line") {
		t.Fatalf("job error = %v, want the decode error surfaced", err)
	}
}

func TestCSVFileSourceReadsAndRestores(t *testing.T) {
	content := "ts,name,value\n" +
		"10,a,1.5\n" +
		"20,\"b,with comma\",2.5\n" +
		"30,c,3.5\n" +
		"40,d,4.5\n"
	path := writeTempFile(t, "data.csv", content)
	mk := func() *SplitScanSource {
		return csvScan(&ScanPlan{Inputs: []string{path}}, 0, 1, true,
			func(row []string, off int64) (Record, error) {
				return Data(off, 0, row[1]), nil
			})
	}
	data, _ := drainData(t, mk(), 100)
	if len(data) != 4 {
		t.Fatalf("got %d rows, want 4 (header skipped)", len(data))
	}
	if data[1].Value.(string) != "b,with comma" {
		t.Fatalf("quoted field = %q", data[1].Value)
	}

	src := mk()
	if _, ok := src.Next(); !ok {
		t.Fatalf("ended early")
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed := mk()
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainData(t, resumed, 100)
	if len(rest) != 3 {
		t.Fatalf("post-restore rows = %d, want 3", len(rest))
	}
	if rest[0].Value.(string) != "b,with comma" {
		t.Fatalf("restore resumed at %q, want the second row", rest[0].Value)
	}
}

// A quote-free CSV splits mid-file like a line file; a CSV with quoted
// fields falls back to one split per file (mid-file newline alignment would
// be ambiguous). Both decode identically.
func TestCSVScanQuoteAwareSplitting(t *testing.T) {
	var plain, quoted strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&plain, "%d,name%d,%d.5\n", i, i, i)
		fmt.Fprintf(&quoted, "%d,\"name%d\",%d.5\n", i, i, i)
	}
	plainPath := writeTempFile(t, "plain.csv", plain.String())
	quotedPath := writeTempFile(t, "quoted.csv", quoted.String())

	plainPlan := &ScanPlan{Inputs: []string{plainPath}, SplitSize: 64, CSV: true}
	if splits, err := plainPlan.Splits(); err != nil || len(splits) < 3 {
		t.Fatalf("quote-free csv splits = %v (err %v), want several", splits, err)
	}
	quotedPlan := &ScanPlan{Inputs: []string{quotedPath}, SplitSize: 64, CSV: true}
	if splits, err := quotedPlan.Splits(); err != nil || len(splits) != 1 {
		t.Fatalf("quoted csv splits = %v (err %v), want exactly one (whole file)", splits, err)
	}

	for name, plan := range map[string]*ScanPlan{"plain": plainPlan, "quoted": quotedPlan} {
		src := csvScan(plan, 0, 1, false, func(row []string, off int64) (Record, error) {
			return Data(off, 0, row[1]), nil
		})
		data, _ := drainData(t, src, 1000)
		if err := src.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) != 50 {
			t.Fatalf("%s: %d rows, want 50", name, len(data))
		}
		seen := map[string]bool{}
		for _, r := range data {
			seen[r.Value.(string)] = true
		}
		for i := 0; i < 50; i++ {
			if !seen[fmt.Sprintf("name%d", i)] {
				t.Fatalf("%s: missing row %d", name, i)
			}
		}
	}
}

// Directory and glob inputs expand to every matching file, in sorted order,
// and the scan covers all of them.
func TestScanPlanDirectoryAndGlobInputs(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%d.txt", i)),
			[]byte(fmt.Sprintf("a%d\nb%d\n", i, i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, input := range map[string]string{
		"dir":  dir,
		"glob": filepath.Join(dir, "part-*.txt"),
	} {
		t.Run(name, func(t *testing.T) {
			plan := &ScanPlan{Inputs: []string{input}}
			src := lineScan(plan, 0, 1, lineDecode)
			data, _ := drainData(t, src, 100)
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			if len(data) != 6 {
				t.Fatalf("scanned %d lines across the files, want 6", len(data))
			}
		})
	}
}

func TestCSVFileSourceMissingFileFailsJob(t *testing.T) {
	g := NewGraph("missing")
	path := filepath.Join(t.TempDir(), "nope.csv")
	src := g.AddSource("csv", 1, func(sub, par int) SourceFunc {
		return csvScan(&ScanPlan{Inputs: []string{path}}, sub, par, false,
			func(row []string, off int64) (Record, error) { return Data(off, 0, row), nil })
	})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: src, Part: Rebalance})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := NewJob(g).Run(ctx); err == nil {
		t.Fatalf("missing file must fail the job")
	}
}

// Snapshot of an exhausted file reader must record the end position: a
// composite connector snapshotting a finished inner reader would otherwise
// restore to the beginning and replay the whole file.
func TestFileSourceSnapshotAfterEndRecordsEndPosition(t *testing.T) {
	linePath := writeTempFile(t, "done.txt", "a\nb\nc\n")
	csvPath := writeTempFile(t, "done.csv", "1,a\n2,b\n")
	sources := map[string]func() SourceFunc{
		"line": func() SourceFunc {
			return lineScan(&ScanPlan{Inputs: []string{linePath}}, 0, 1, lineDecode)
		},
		"csv": func() SourceFunc {
			return csvScan(&ScanPlan{Inputs: []string{csvPath}}, 0, 1, false,
				func(row []string, off int64) (Record, error) {
					return Data(off, 0, row[1]), nil
				})
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			src := mk()
			if data, _ := drainData(t, src, 100); len(data) == 0 {
				t.Fatalf("source emitted nothing")
			}
			blob, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed := mk()
			if err := resumed.Restore(blob); err != nil {
				t.Fatal(err)
			}
			if rest, _ := drainData(t, resumed, 100); len(rest) != 0 {
				t.Fatalf("restored exhausted reader replayed %d records", len(rest))
			}
		})
	}
}
