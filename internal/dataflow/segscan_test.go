package dataflow

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// fakeSplitInput is an in-memory fixed-split input: a set of named
// "files", each a run of fixed-size records. Record i of a file occupies
// bytes [i*recBytes, (i+1)*recBytes), so alignment is exact arithmetic, and
// the reader's resume coordinate is the record index within the file.
type fakeSplitInput struct {
	recBytes int64
	files    []fakeFile
}

type fakeFile struct {
	path string
	recs int64
}

func (in *fakeSplitInput) fixedSplits(chunk int64) func() ([]Split, error) {
	return func() ([]Split, error) {
		var splits []Split
		for _, f := range in.files {
			splits = TileSplits(splits, f.path, f.recs*in.recBytes, chunk)
		}
		return splits, nil
	}
}

func (in *fakeSplitInput) lookup(path string) (fakeFile, error) {
	for _, f := range in.files {
		if f.path == path {
			return f, nil
		}
	}
	return fakeFile{}, fmt.Errorf("no such input %q", path)
}

// fakeSplitReader implements SplitReader over a fakeSplitInput. Records are
// emitted with Ts = their index within the file and the path in Value, so
// tests can assert exactly-once per (path, index).
type fakeSplitReader struct {
	in   *fakeSplitInput
	file fakeFile
	sp   Split
	idx  int64 // next record index
	read int64 // bytes consumed since last Bytes()
}

func (r *fakeSplitReader) OpenSplit(sp Split, resumeAt int64) error {
	f, err := r.in.lookup(sp.Path)
	if err != nil {
		return err
	}
	r.file, r.sp = f, sp
	if resumeAt >= 0 {
		r.idx = resumeAt
	} else {
		// First record *starting* at or after Start.
		r.idx = (sp.Start + r.in.recBytes - 1) / r.in.recBytes
	}
	return nil
}

func (r *fakeSplitReader) NextInSplit() (Record, bool, error) {
	start := r.idx * r.in.recBytes
	if start >= r.sp.End || r.idx >= r.file.recs {
		return Record{}, false, nil
	}
	rec := Data(r.idx, uint64(r.idx), fmt.Sprintf("%s#%d", r.file.path, r.idx))
	r.idx++
	r.read += r.in.recBytes
	return rec, true, nil
}

func (r *fakeSplitReader) Pos() int64 { return r.idx }

func (r *fakeSplitReader) Bytes() int64 {
	n := r.read
	r.read = 0
	return n
}

func (r *fakeSplitReader) Close() error { return nil }

func fakePlan(in *fakeSplitInput, chunk int64) *ScanPlan {
	return &ScanPlan{SplitSize: chunk, FixedSplits: in.fixedSplits(chunk)}
}

func drainSplitSource(t *testing.T, s *SplitScanSource) []string {
	t.Helper()
	var out []string
	for {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r.Value.(string))
	}
	if s.Err() != nil {
		t.Fatalf("scan failed: %v", s.Err())
	}
	return out
}

func wantRecords(in *fakeSplitInput) []string {
	var want []string
	for _, f := range in.files {
		for i := int64(0); i < f.recs; i++ {
			want = append(want, fmt.Sprintf("%s#%d", f.path, i))
		}
	}
	sort.Strings(want)
	return want
}

func assertExactlyOnce(t *testing.T, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	sort.Strings(g)
	if len(g) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (duplicate or skip)", i, g[i], want[i])
		}
	}
}

func TestSplitScanSourceFixedSplitsExactlyOnce(t *testing.T) {
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{
		{path: "seg-a", recs: 37},
		{path: "seg-b", recs: 5},
		{path: "seg-c", recs: 100},
	}}
	plan := fakePlan(in, 64) // chunks do not divide record size: alignment is exercised
	const par = 3
	var got []string
	for sub := 0; sub < par; sub++ {
		s := &SplitScanSource{Plan: plan, Subtask: sub, Parallelism: par, Reader: &fakeSplitReader{in: in}}
		got = append(got, drainSplitSource(t, s)...)
	}
	assertExactlyOnce(t, got, wantRecords(in))

	splits, err := plan.Splits()
	if err != nil {
		t.Fatalf("Splits: %v", err)
	}
	if len(splits) < 3 {
		t.Fatalf("expected multiple splits, got %d", len(splits))
	}
}

func TestSplitScanSourceRestoreAtDifferentParallelism(t *testing.T) {
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{
		{path: "seg-a", recs: 50},
		{path: "seg-b", recs: 50},
	}}
	plan := fakePlan(in, 80)
	const oldPar = 2
	srcs := make([]*SplitScanSource, oldPar)
	for sub := range srcs {
		srcs[sub] = &SplitScanSource{Plan: plan, Subtask: sub, Parallelism: oldPar, Reader: &fakeSplitReader{in: in}}
	}
	// Consume part of the input: subtask 0 reads 12 records, subtask 1
	// reads 30 (mid-split positions included).
	var before []string
	for i := 0; i < 12; i++ {
		r, ok := srcs[0].Next()
		if !ok {
			t.Fatalf("subtask 0 ended early")
		}
		before = append(before, r.Value.(string))
	}
	for i := 0; i < 30; i++ {
		r, ok := srcs[1].Next()
		if !ok {
			t.Fatalf("subtask 1 ended early")
		}
		before = append(before, r.Value.(string))
	}
	blobs := map[int][]byte{}
	for sub, s := range srcs {
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot(%d): %v", sub, err)
		}
		blobs[sub] = blob
	}

	// Restore into a fresh plan at a different parallelism.
	const newPar = 3
	plan2 := fakePlan(in, 80)
	var after []string
	rsrcs := make([]*SplitScanSource, newPar)
	for sub := range rsrcs {
		rsrcs[sub] = &SplitScanSource{Plan: plan2, Subtask: sub, Parallelism: newPar, Reader: &fakeSplitReader{in: in}}
		if err := rsrcs[sub].RestoreAll(sub, newPar, blobs); err != nil {
			t.Fatalf("RestoreAll(%d): %v", sub, err)
		}
	}
	for _, s := range rsrcs {
		after = append(after, drainSplitSource(t, s)...)
	}
	assertExactlyOnce(t, append(before, after...), wantRecords(in))
}

func TestSplitScanSourceRestoreIgnoresGrownInput(t *testing.T) {
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{{path: "seg-a", recs: 40}}}
	plan := fakePlan(in, 150)
	s := &SplitScanSource{Plan: plan, Subtask: 0, Parallelism: 1, Reader: &fakeSplitReader{in: in}}
	var before []string
	for i := 0; i < 25; i++ {
		r, ok := s.Next()
		if !ok {
			t.Fatalf("ended early")
		}
		before = append(before, r.Value.(string))
	}
	wanted := wantRecords(in) // the 40 records visible at snapshot time
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// The topic grew after the checkpoint: the restored plan must rebuild
	// the original geometry from the snapshot signature, not re-plan over
	// the larger input.
	in.files[0].recs = 90
	plan2 := fakePlan(in, 150)
	s2 := &SplitScanSource{Plan: plan2, Subtask: 0, Parallelism: 1, Reader: &fakeSplitReader{in: in}}
	if err := s2.RestoreAll(0, 1, map[int][]byte{0: blob}); err != nil {
		t.Fatalf("RestoreAll: %v", err)
	}
	after := drainSplitSource(t, s2)
	assertExactlyOnce(t, append(before, after...), wanted)
}

func TestSplitScanSourceLegacyBlobRejected(t *testing.T) {
	blob := gobBytes(t, gobScanState{V: 0, CurID: -1})
	in := &fakeSplitInput{recBytes: 10, files: []fakeFile{{path: "seg-a", recs: 4}}}
	plan := fakePlan(in, 0)
	s := &SplitScanSource{Plan: plan, Subtask: 0, Parallelism: 1, Reader: &fakeSplitReader{in: in}}
	if err := s.RestoreAll(0, 1, map[int][]byte{0: blob}); err == nil || !strings.Contains(err.Error(), "scan restore") {
		t.Fatalf("legacy blob restore = %v, want a scan-restore error", err)
	}
}

func TestTileSplits(t *testing.T) {
	splits := TileSplits(nil, "a", 100, 30)
	splits = TileSplits(splits, "b", 25, 30)
	want := []Split{
		{ID: 0, Path: "a", Start: 0, End: 30},
		{ID: 1, Path: "a", Start: 30, End: 60},
		{ID: 2, Path: "a", Start: 60, End: 90},
		{ID: 3, Path: "a", Start: 90, End: 100},
		{ID: 4, Path: "b", Start: 0, End: 25},
	}
	if len(splits) != len(want) {
		t.Fatalf("got %d splits, want %d", len(splits), len(want))
	}
	for i := range want {
		if splits[i] != want[i] {
			t.Fatalf("split %d = %+v, want %+v", i, splits[i], want[i])
		}
	}
	if got := TileSplits(nil, "empty", 0, 10); len(got) != 0 {
		t.Fatalf("empty input should tile to no splits, got %v", got)
	}
	if got := TileSplits(nil, "one", 50, 0); len(got) != 1 || got[0].End != 50 {
		t.Fatalf("chunk<=0 should yield one whole split, got %v", got)
	}
}
