package dataflow

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/window"
)

// gobScanState is the scan state as binaries before checkpoint file format
// 2 gob-encoded it: a version field (2; a blob without one was a pre-split
// row cursor), the in-flight split in three fields and, in the parent, a
// Legacy field.
type gobScanState struct {
	V         int
	Completed []int
	CurID     int
	CurPath   string
	CurOff    int64
	Pending   []pendingSplit
	Plan      *scanPlanSig
	Legacy    int64
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// consumedBlob consumes n records from src and returns its snapshot.
func consumedBlob(t *testing.T, src SourceFunc, n int) []byte {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("ended early")
		}
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// parentBlob re-encodes the snapshot consumedBlob takes as the parent's gob
// encoding wrote it.
func parentBlob(t *testing.T, src SourceFunc, n int) []byte {
	t.Helper()
	st, err := decodeScanState(consumedBlob(t, src, n))
	if err != nil {
		t.Fatal(err)
	}
	return gobBytes(t, gobScanState{V: 2, Completed: st.Completed, CurID: st.Cur.ID,
		CurPath: st.Cur.Path, CurOff: st.Cur.Off, Pending: st.Pending, Plan: st.Plan, Legacy: -1})
}

// Split scans restore one snapshot format, the typed state of checkpoint
// file format 2, and it carries no version of its own. Every blob of the gob
// encoding before it — a pre-split row cursor, a version-0 or future-version
// state, and a version-2 state as the parent wrote it — is refused with a
// scan-restore error instead of being read as a position; the current blob
// restores and resumes at its recorded offset, for the file scan and the
// fixed-split scan alike.
func TestScanSnapshotFormatRestore(t *testing.T) {
	_, mkLines := mkLinePlan(t, 20, 0)
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{{path: "seg-a", recs: 20}}}
	for _, src := range []struct {
		name   string
		mk     func() SourceFunc
		record string // the value of record 7
	}{
		{"file", func() SourceFunc {
			return lineScan(mkLines(), 0, 1, lineDecode)
		}, "v7"},
		{"fixed-split", func() SourceFunc {
			return &SplitScanSource{Plan: fakePlan(in, 0), Subtask: 0, Parallelism: 1, Reader: &fakeSplitReader{in: in}}
		}, "seg-a#7"},
	} {
		t.Run(src.name, func(t *testing.T) {
			for _, tc := range []struct {
				name string
				blob []byte
			}{
				{"pre-split row cursor", gobBytes(t, struct{ Next int64 }{Next: 7})},
				{"version 0", gobBytes(t, gobScanState{CurID: -1})},
				{"unknown version", gobBytes(t, gobScanState{V: 99, CurID: -1})},
				{"parent-written version 2", parentBlob(t, src.mk(), 7)},
				{"current", consumedBlob(t, src.mk(), 7)},
			} {
				t.Run(tc.name, func(t *testing.T) {
					restored := src.mk()
					err := restored.Restore(tc.blob)
					if tc.name != "current" {
						if err == nil || !strings.Contains(err.Error(), "scan restore") {
							t.Fatalf("restore = %v, want a scan-restore error", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					r, ok := restored.Next()
					if !ok || r.Value.(string) != src.record {
						t.Fatalf("first record after restore = %+v ok=%v, want %s", r, ok, src.record)
					}
				})
			}
		})
	}
}

// A multi-subtask pre-split snapshot does not restore each subtask's row
// stripe: RestoreAll refuses it at the checkpoint's parallelism and at a
// rescaled one alike, and one pre-split blob beside a current one is not
// skipped over.
func TestLegacySnapshotMultiSubtaskAndRescaleRejection(t *testing.T) {
	_, mkPlan := mkLinePlan(t, 20, 0)
	cursor := func(next int64) []byte { return gobBytes(t, struct{ Next int64 }{Next: next}) }
	current := consumedBlob(t, lineScan(mkPlan(), 0, 1, lineDecode), 6)
	for _, tc := range []struct {
		name  string
		blobs map[int][]byte
	}{
		{"pre-split", map[int][]byte{0: cursor(6), 1: cursor(7)}},
		{"mixed", map[int][]byte{0: current, 1: cursor(7)}},
	} {
		for _, par := range []int{2, 4} {
			for sub := 0; sub < par; sub++ {
				src := lineScan(mkPlan(), sub, par, lineDecode)
				if err := src.RestoreAll(sub, par, tc.blobs); err == nil || !strings.Contains(err.Error(), "scan restore") {
					t.Fatalf("%s blobs, subtask %d/%d: restore = %v, want a scan-restore error", tc.name, sub, par, err)
				}
			}
		}
	}
}

// Split-mode snapshots are parallelism-agnostic: two readers consume part of
// the scan, their blobs restore into a stage of four, and the union of all
// emissions is exactly-once.
func TestSplitSnapshotsRedistributeAcrossParallelism(t *testing.T) {
	_, mkPlan := mkLinePlan(t, 60, 48)
	plan := mkPlan()
	old := []*SplitScanSource{
		lineScan(plan, 0, 2, lineDecode),
		lineScan(plan, 1, 2, lineDecode),
	}
	seen := map[string]int{}
	for i := 0; i < 18; i++ { // partial, interleaved consumption
		r, ok := old[i%2].Next()
		if !ok {
			t.Fatalf("scan ended early")
		}
		seen[r.Value.(string)]++
	}
	blobs := map[int][]byte{}
	for sub, src := range old {
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[sub] = blob
	}

	newPlan := mkPlan()
	var readers []*SplitScanSource
	for sub := 0; sub < 4; sub++ {
		r := lineScan(newPlan, sub, 4, lineDecode)
		if err := r.RestoreAll(sub, 4, blobs); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, r)
	}
	for _, r := range readers {
		data, _ := drainData(t, r, 1000)
		for _, rec := range data {
			seen[rec.Value.(string)]++
		}
	}
	if len(seen) != 60 {
		t.Fatalf("union covers %d lines, want 60", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("line %q emitted %d times across the rescaled restore", v, n)
		}
	}
}

// A checkpoint taken after a restore but before every resumed in-flight
// cursor is re-acquired must keep those resume offsets (subtask 0 carries
// them as Pending): a second recovery would otherwise re-scan such splits
// from their start and duplicate records consumed before the first crash.
func TestPendingResumedSplitSurvivesSecondRestore(t *testing.T) {
	_, mkPlan := mkLinePlan(t, 60, 48)
	plan := mkPlan()
	old := []*SplitScanSource{
		lineScan(plan, 0, 2, lineDecode),
		lineScan(plan, 1, 2, lineDecode),
	}
	seen := map[string]int{}
	for i := 0; i < 20; i++ { // both subtasks end up mid-split
		r, ok := old[i%2].Next()
		if !ok {
			t.Fatalf("scan ended early")
		}
		seen[r.Value.(string)]++
	}
	blobs1 := map[int][]byte{}
	for sub, src := range old {
		blob, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs1[sub] = blob
	}

	// First recovery at parallelism 1: re-acquire one of the resumed
	// cursors (3 records), then checkpoint while the other still sits
	// unacquired in the queue.
	r1 := lineScan(mkPlan(), 0, 1, lineDecode)
	if err := r1.RestoreAll(0, 1, blobs1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r, ok := r1.Next()
		if !ok {
			t.Fatalf("restored scan ended early")
		}
		seen[r.Value.(string)]++
	}
	blob2, err := r1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Second recovery, from the post-restore checkpoint: the union of
	// everything consumed before each crash and everything emitted now must
	// cover the 60 lines exactly once.
	r2 := lineScan(mkPlan(), 0, 1, lineDecode)
	if err := r2.RestoreAll(0, 1, map[int][]byte{0: blob2}); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainData(t, r2, 1000)
	for _, r := range rest {
		seen[r.Value.(string)]++
	}
	if len(seen) != 60 {
		t.Fatalf("union covers %d lines, want 60", len(seen))
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("line %q emitted %d times across two recoveries", v, n)
		}
	}
}

// Scan observability: records_out, bytes_scanned and splits_completed are
// per source node and must sum correctly across subtasks — records to the
// line count, bytes to the exact input size (splits tile the file), splits
// to the planned split count.
func TestScanMetricsSumAcrossSubtasks(t *testing.T) {
	var b strings.Builder
	const n = 300
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "line-%04d-%s\n", i, strings.Repeat("p", i%13))
	}
	content := b.String()
	path := writeTempFile(t, "metered.txt", content)

	wantSplits := (int64(len(content)) + 511) / 512

	reg := metrics.NewRegistry()
	g := NewGraph("scan-metrics")
	plan := &ScanPlan{Inputs: []string{path}, SplitSize: 512}
	src := g.AddSource("scan", 4, func(sub, par int) SourceFunc {
		return lineScan(plan, sub, par, lineDecode)
	})
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: src, Part: Rebalance})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := NewJob(g, WithMetrics(reg)).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("node.scan.records_out").Value(); got != n {
		t.Fatalf("records_out = %d, want %d", got, n)
	}
	if got := reg.Counter("node.scan.bytes_scanned").Value(); got != int64(len(content)) {
		t.Fatalf("bytes_scanned = %d, want %d", got, len(content))
	}
	if got := reg.Counter("node.scan.splits_completed").Value(); got != wantSplits {
		t.Fatalf("splits_completed = %d, want %d", got, wantSplits)
	}
	if got := len(sink.Records()); got != n {
		t.Fatalf("sink saw %d records, want %d", got, n)
	}
}

// buildScanRecoveryGraph builds the kill/recover job over a file scan: lines
// carry integers, the window op sums per key. The scan emits no in-flight
// watermarks, so windows fire on the end-of-stream close-out; the sink
// dedups by (key, query, start) making replays idempotent.
func buildScanRecoveryGraph(path string, srcPar int, perSec float64, sink *CollectSink) *Graph {
	g := NewGraph("scan-recovery")
	decode := func(line []byte, off int64) (Record, bool, error) {
		i, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil {
			return Record{}, false, err
		}
		return Data(i, uint64(i%4), 1.0), true, nil
	}
	var plan *ScanPlan // one per execution, shared by its subtasks
	src := g.AddSource("scan", srcPar, func(sub, par int) SourceFunc {
		if sub == 0 {
			plan = &ScanPlan{Inputs: []string{path}, SplitSize: 2048}
		}
		inner := lineScan(plan, sub, par, decode)
		if perSec > 0 {
			return &PacedSource{PerSec: perSec, Inner: inner}
		}
		return inner
	})
	win := g.AddOperator("win", 2, NewWindowOp(
		WindowQuery{Spec: window.Tumbling(50), Fn: agg.SumF64()},
	), Edge{From: src, Part: HashPartition})
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: win, Part: Rebalance})
	return g
}

// The tentpole recovery guarantee: kill a checkpointing file scan running at
// source parallelism 2 mid-scan, restore at source parallelism 1 and 4 —
// the pending splits redistribute, in-flight splits resume at their byte
// offsets, and the deduplicated window results equal a failure-free run (no
// record lost or duplicated across the split reassignment).
func TestFileScanKillRecoverRescaledSource(t *testing.T) {
	const n = 6000
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	path := writeTempFile(t, "recovery.txt", b.String())

	refSink := &CollectSink{}
	run(t, buildScanRecoveryGraph(path, 2, 0, refSink))
	want := collectWindows(t, refSink)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	for _, restorePar := range []int{1, 4} {
		restorePar := restorePar
		t.Run(fmt.Sprintf("to-parallelism-%d", restorePar), func(t *testing.T) {
			backend := state.NewMemoryBackend(0)
			crashSink := &CollectSink{}
			g1 := buildScanRecoveryGraph(path, 2, 12000, crashSink)
			job1 := NewJob(g1, WithCheckpointing(backend, 20*time.Millisecond))
			ctx1, cancel1 := context.WithTimeout(context.Background(), 120*time.Millisecond)
			err := job1.Run(ctx1)
			cancel1()
			if err == nil {
				got := collectWindows(t, crashSink)
				assertWindowsEqual(t, got, want)
				t.Skip("job completed before kill; recovery path not exercised on this machine")
			}
			snap, ok, _ := backend.Latest()
			if !ok {
				t.Skip("no checkpoint completed before kill")
			}

			g2 := buildScanRecoveryGraph(path, restorePar, 0, crashSink)
			job2 := NewJob(g2, WithRestore(snap), WithCheckpointing(backend, 25*time.Millisecond))
			ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel2()
			if err := job2.Run(ctx2); err != nil {
				t.Fatalf("recovery run at source parallelism %d failed: %v", restorePar, err)
			}
			assertWindowsEqual(t, collectWindows(t, crashSink), want)
		})
	}
}

// Split IDs are positional in the plan, so a restore whose inputs chop
// differently — a changed split size, or files added to the scanned
// directory — must be refused instead of silently remapping completed
// ranges onto different bytes.
func TestRestoreRejectsChangedPlanGeometry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.txt")
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "v%d\n", i)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	src := lineScan(&ScanPlan{Inputs: []string{dir}, SplitSize: 32}, 0, 1, lineDecode)
	for i := 0; i < 5; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("ended early")
		}
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Different split size: same bytes, different chopping.
	resized := lineScan(&ScanPlan{Inputs: []string{dir}, SplitSize: 64}, 0, 1, lineDecode)
	if err := resized.Restore(blob); err == nil || !strings.Contains(err.Error(), "split size changed") {
		t.Fatalf("restore with a different split size = %v, want a geometry error", err)
	}

	// A file added to the scanned directory shifts every later split ID.
	if err := os.WriteFile(filepath.Join(dir, "added.txt"), []byte("x\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	grown := lineScan(&ScanPlan{Inputs: []string{dir}, SplitSize: 32}, 0, 1, lineDecode)
	if err := grown.Restore(blob); err == nil || !strings.Contains(err.Error(), "changed since the checkpoint") {
		t.Fatalf("restore after the input set grew = %v, want a geometry error", err)
	}

	// Unchanged inputs restore fine.
	same := lineScan(&ScanPlan{Inputs: []string{dir}, SplitSize: 32}, 0, 1, lineDecode)
	if err := os.Remove(filepath.Join(dir, "added.txt")); err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(blob); err != nil {
		t.Fatalf("restore with unchanged inputs failed: %v", err)
	}
}
