package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
)

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// openStoreOn opens a store whose topics read clk.
func openStoreOn(t *testing.T, opts Options, clk clock.Clock) *Store {
	t.Helper()
	s := openStore(t, opts)
	s.clk = clk
	return s
}

func appendN(t *testing.T, tp *Topic, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		off, err := tp.Append(int64(i), uint64(i%7), []byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if off != tp.NextOffset()-1 {
			t.Fatalf("Append %d returned offset %d; NextOffset is %d", i, off, tp.NextOffset())
		}
	}
}

func readAll(t *testing.T, tp *Topic, from int64) []Record {
	t.Helper()
	r, err := tp.ReadFrom(from)
	if err != nil {
		t.Fatalf("ReadFrom(%d): %v", from, err)
	}
	defer r.Close()
	var out []Record
	for {
		rec, ok, err := r.Next()
		if err != nil {
			t.Fatalf("tail Next: %v", err)
		}
		if !ok {
			return out
		}
		rec.Payload = append([]byte(nil), rec.Payload...)
		out = append(out, rec)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	s := openStore(t, Options{})
	tp, err := s.Topic("events")
	if err != nil {
		t.Fatalf("Topic: %v", err)
	}
	appendN(t, tp, 100)
	recs := readAll(t, tp, 0)
	if len(recs) != 100 {
		t.Fatalf("read %d records, want 100", len(recs))
	}
	for i, rec := range recs {
		if rec.Offset != int64(i) || rec.Ts != int64(i) || rec.Key != uint64(i%7) {
			t.Fatalf("record %d = %+v", i, rec)
		}
		if want := fmt.Sprintf("record-%04d", i); string(rec.Payload) != want {
			t.Fatalf("record %d payload = %q, want %q", i, rec.Payload, want)
		}
	}
	if got := tp.NextOffset(); got != 100 {
		t.Fatalf("NextOffset = %d, want 100", got)
	}
	if got := tp.OldestOffset(); got != 0 {
		t.Fatalf("OldestOffset = %d, want 0", got)
	}
}

func TestReopenContinuesOffsets(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tp, _ := s.Topic("t")
	appendN(t, tp, 50)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	tp2, err := s2.Topic("t")
	if err != nil {
		t.Fatalf("reopen topic: %v", err)
	}
	if got := tp2.NextOffset(); got != 50 {
		t.Fatalf("NextOffset after reopen = %d, want 50", got)
	}
	appendN(t, tp2, 10)
	recs := readAll(t, tp2, 45)
	if len(recs) != 15 {
		t.Fatalf("read %d records from 45, want 15", len(recs))
	}
	if recs[0].Offset != 45 || recs[len(recs)-1].Offset != 59 {
		t.Fatalf("offsets [%d, %d], want [45, 59]", recs[0].Offset, recs[len(recs)-1].Offset)
	}
}

func TestSegmentRollBySize(t *testing.T) {
	s := openStore(t, Options{SegmentBytes: 256})
	tp, _ := s.Topic("t")
	appendN(t, tp, 40) // each frame is 24+11 = 35 bytes; rolls every ~8 records
	v, err := tp.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if len(v.Segments) < 3 {
		t.Fatalf("expected >= 3 segments after roll, got %d", len(v.Segments))
	}
	// Bases must chain: each base = previous base + previous records.
	for i := 1; i < len(v.Segments); i++ {
		prev := v.Segments[i-1]
		if v.Segments[i].Base != prev.Base+prev.Records {
			t.Fatalf("segment %d base %d does not chain from %+v", i, v.Segments[i].Base, prev)
		}
	}
	recs := readAll(t, tp, 0)
	if len(recs) != 40 {
		t.Fatalf("read %d records across segments, want 40", len(recs))
	}
	for i, rec := range recs {
		if rec.Offset != int64(i) {
			t.Fatalf("record %d has offset %d", i, rec.Offset)
		}
	}
}

// TestSegmentRollByAge: a non-empty segment rolls at the first append once
// it is SegmentAge old, and not 1ns before.
func TestSegmentRollByAge(t *testing.T) {
	const age = 10 * time.Millisecond
	clk := clock.NewManual(time.Unix(0, 0))
	s := openStoreOn(t, Options{SegmentAge: age}, clk)
	tp, _ := s.Topic("t")
	segments := func() int {
		t.Helper()
		v, err := tp.View()
		if err != nil {
			t.Fatal(err)
		}
		return len(v.Segments)
	}
	appendN(t, tp, 5)
	clk.Advance(age - 1)
	appendN(t, tp, 5)
	if n := segments(); n != 1 {
		t.Fatalf("%d segments 1ns before SegmentAge, want 1", n)
	}
	clk.Advance(1)
	appendN(t, tp, 5)
	if n := segments(); n != 2 {
		t.Fatalf("%d segments at SegmentAge, want 2", n)
	}
	// The fresh segment's age counts from its roll.
	clk.Advance(age - 1)
	appendN(t, tp, 5)
	if n := segments(); n != 2 {
		t.Fatalf("%d segments 1ns before the second segment's SegmentAge, want 2", n)
	}
	if got := len(readAll(t, tp, 0)); got != 20 {
		t.Fatalf("read %d records, want 20", got)
	}
}

func TestRetentionByBytes(t *testing.T) {
	s := openStore(t, Options{SegmentBytes: 256, RetainBytes: 600})
	tp, _ := s.Topic("t")
	appendN(t, tp, 100)
	if got := tp.OldestOffset(); got == 0 {
		t.Fatalf("retention did not advance the oldest offset")
	}
	oldest := tp.OldestOffset()
	recs := readAll(t, tp, oldest)
	if len(recs) == 0 || recs[0].Offset != oldest {
		t.Fatalf("tail from oldest %d returned %d records", oldest, len(recs))
	}
	if recs[len(recs)-1].Offset != 99 {
		t.Fatalf("last offset %d, want 99", recs[len(recs)-1].Offset)
	}
	// Reading below the oldest retained offset fails loudly.
	r, err := tp.ReadFrom(0)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	defer r.Close()
	if _, _, err := r.Next(); err == nil {
		t.Fatalf("tail below retention should error")
	}
}

func TestRetentionByAge(t *testing.T) {
	s := openStore(t, Options{SegmentBytes: 256, RetainAge: time.Hour})
	tp, _ := s.Topic("t")
	appendN(t, tp, 30)
	v, _ := tp.View()
	if len(v.Segments) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(v.Segments))
	}
	// Age the sealed segments beyond RetainAge.
	old := time.Now().Add(-2 * time.Hour)
	for _, g := range v.Segments[:len(v.Segments)-1] {
		if err := os.Chtimes(g.Path, old, old); err != nil {
			t.Fatalf("Chtimes: %v", err)
		}
	}
	appendN(t, tp, 30) // trigger a roll → retention pass
	for tp.NextOffset() < 200 {
		appendN(t, tp, 10)
	}
	if got := tp.OldestOffset(); got == 0 {
		t.Fatalf("age retention did not drop the aged segments")
	}
}

func TestTruncateTo(t *testing.T) {
	s := openStore(t, Options{SegmentBytes: 256})
	tp, _ := s.Topic("t")
	appendN(t, tp, 40)
	if err := tp.TruncateTo(17); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if got := tp.NextOffset(); got != 17 {
		t.Fatalf("NextOffset after truncate = %d, want 17", got)
	}
	recs := readAll(t, tp, 0)
	if len(recs) != 17 {
		t.Fatalf("read %d records after truncate, want 17", len(recs))
	}
	// Appends continue at the truncated offset.
	off, err := tp.Append(100, 1, []byte("resumed"))
	if err != nil {
		t.Fatalf("Append after truncate: %v", err)
	}
	if off != 17 {
		t.Fatalf("append after truncate got offset %d, want 17", off)
	}
	recs = readAll(t, tp, 16)
	if len(recs) != 2 || string(recs[1].Payload) != "resumed" {
		t.Fatalf("tail after re-append: %+v", recs)
	}
	// Truncating at/above next is a no-op.
	if err := tp.TruncateTo(1000); err != nil {
		t.Fatalf("TruncateTo beyond next: %v", err)
	}
	if got := tp.NextOffset(); got != 18 {
		t.Fatalf("NextOffset = %d, want 18", got)
	}
}

func TestTruncateBelowRetentionFails(t *testing.T) {
	s := openStore(t, Options{SegmentBytes: 256, RetainBytes: 600})
	tp, _ := s.Topic("t")
	appendN(t, tp, 100)
	if tp.OldestOffset() == 0 {
		t.Skip("retention did not kick in")
	}
	if err := tp.TruncateTo(0); err == nil {
		t.Fatalf("TruncateTo below oldest retained offset should fail")
	}
}

func TestRangeReaderAlignment(t *testing.T) {
	s := openStore(t, Options{IndexEvery: 64})
	tp, _ := s.Topic("t")
	appendN(t, tp, 50)
	v, _ := tp.View()
	if len(v.Segments) != 1 {
		t.Fatalf("want a single segment, got %d", len(v.Segments))
	}
	seg := v.Segments[0]

	// Reading the whole segment in two byte-range halves must partition the
	// records exactly: the frame straddling the midpoint belongs to the
	// half it starts in.
	mid := seg.Bytes / 2
	var got []Record
	for _, rng := range [][2]int64{{0, mid}, {mid, seg.Bytes}} {
		r, err := tp.OpenRange(seg.Path, rng[0], rng[1], -1)
		if err != nil {
			t.Fatalf("OpenRange%v: %v", rng, err)
		}
		for {
			rec, ok, err := r.Next()
			if err != nil {
				t.Fatalf("range Next: %v", err)
			}
			if !ok {
				break
			}
			rec.Payload = append([]byte(nil), rec.Payload...)
			got = append(got, rec)
		}
		r.Close()
	}
	if len(got) != 50 {
		t.Fatalf("two halves yielded %d records, want 50", len(got))
	}
	for i, rec := range got {
		if rec.Offset != int64(i) {
			t.Fatalf("record %d has offset %d — duplicated or skipped at the boundary", i, rec.Offset)
		}
	}
}

func TestRangeReaderResume(t *testing.T) {
	s := openStore(t, Options{IndexEvery: 64})
	tp, _ := s.Topic("t")
	appendN(t, tp, 50)
	v, _ := tp.View()
	seg := v.Segments[0]

	r, err := tp.OpenRange(seg.Path, 0, seg.Bytes, 23)
	if err != nil {
		t.Fatalf("OpenRange resume: %v", err)
	}
	defer r.Close()
	rec, ok, err := r.Next()
	if err != nil || !ok {
		t.Fatalf("Next after resume: ok=%v err=%v", ok, err)
	}
	if rec.Offset != 23 {
		t.Fatalf("resumed at offset %d, want 23", rec.Offset)
	}
	if r.Pos() != 24 {
		t.Fatalf("Pos after one read = %d, want 24", r.Pos())
	}
}

func TestViewIsFrozen(t *testing.T) {
	s := openStore(t, Options{})
	tp, _ := s.Topic("t")
	appendN(t, tp, 10)
	v, _ := tp.View()
	appendN(t, tp, 10)
	seg := v.Segments[0]
	r, err := tp.OpenRange(seg.Path, 0, seg.Bytes, -1)
	if err != nil {
		t.Fatalf("OpenRange: %v", err)
	}
	defer r.Close()
	n := 0
	for {
		_, ok, err := r.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("frozen view scan saw %d records, want the 10 visible at View time", n)
	}
}

func TestTopicNamesAndListing(t *testing.T) {
	s := openStore(t, Options{})
	for _, bad := range []string{"", "a/b", "..", "a b", "x\x00"} {
		if _, err := s.Topic(bad); err == nil {
			t.Fatalf("Topic(%q) should fail", bad)
		}
	}
	for _, good := range []string{"clicks", "a-b_c.d", "UPPER9"} {
		if _, err := s.Topic(good); err != nil {
			t.Fatalf("Topic(%q): %v", good, err)
		}
	}
	names, err := s.Topics()
	if err != nil {
		t.Fatalf("Topics: %v", err)
	}
	if len(names) != 3 || names[0] != "UPPER9" || names[1] != "a-b_c.d" || names[2] != "clicks" {
		t.Fatalf("Topics = %v", names)
	}
	// Same name returns the same cached writer.
	t1, _ := s.Topic("clicks")
	t2, _ := s.Topic("clicks")
	if t1 != t2 {
		t.Fatalf("Topic should return the cached instance")
	}
}

func TestMetricsCounters(t *testing.T) {
	s := openStore(t, Options{})
	tp, _ := s.Topic("m")
	appendN(t, tp, 20)
	readAll(t, tp, 0)
	reg := s.Metrics()
	if got := reg.Counter("topic.m.appended_records").Value(); got != 20 {
		t.Fatalf("appended_records = %d, want 20", got)
	}
	if reg.Counter("topic.m.appended_bytes").Value() == 0 {
		t.Fatalf("appended_bytes not tracked")
	}
	if got := reg.Counter("topic.m.scanned_records").Value(); got != 20 {
		t.Fatalf("scanned_records = %d, want 20", got)
	}
	if reg.Gauge("topic.m.segments").Value() != 1 {
		t.Fatalf("segments gauge = %d, want 1", reg.Gauge("topic.m.segments").Value())
	}
	if reg.Gauge("topic.m.retained_bytes").Value() == 0 {
		t.Fatalf("retained_bytes gauge not set")
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncAlways, FsyncInterval} {
		clk := clock.NewManual(time.Unix(0, 0))
		s := openStoreOn(t, Options{Fsync: policy, FsyncEvery: time.Millisecond}, clk)
		tp, _ := s.Topic("t")
		appendN(t, tp, 10)
		if policy == FsyncInterval {
			clk.Advance(2 * time.Millisecond)
			appendN(t, tp, 1)
		}
		if err := tp.Sync(); err != nil {
			t.Fatalf("Sync under policy %d: %v", policy, err)
		}
	}
}

// TestFsyncIntervalBoundary: under FsyncInterval an append syncs once
// FsyncEvery has passed since the last sync, and not 1ns before. A sync
// flushes, so the records it covers become visible (visibleState) without a
// reader's flush.
func TestFsyncIntervalBoundary(t *testing.T) {
	const every = time.Second
	clk := clock.NewManual(time.Unix(0, 0))
	s := openStoreOn(t, Options{Fsync: FsyncInterval, FsyncEvery: every}, clk)
	tp, _ := s.Topic("t")
	synced := func() int64 {
		_, next, _ := tp.visibleState()
		return next
	}
	appendN(t, tp, 3)
	clk.Advance(every - 1)
	appendN(t, tp, 1)
	if n := synced(); n != 0 {
		t.Fatalf("%d records synced 1ns before FsyncEvery, want 0", n)
	}
	clk.Advance(1)
	appendN(t, tp, 1)
	if n := synced(); n != 5 {
		t.Fatalf("%d records synced at FsyncEvery, want 5", n)
	}
	// The interval counts from that sync.
	clk.Advance(every - 1)
	appendN(t, tp, 1)
	if n := synced(); n != 5 {
		t.Fatalf("%d records synced 1ns before the next FsyncEvery, want 5", n)
	}
	clk.Advance(1)
	appendN(t, tp, 1)
	if n := synced(); n != 7 {
		t.Fatalf("%d records synced at the next FsyncEvery, want 7", n)
	}
}

func TestEmptyTopicView(t *testing.T) {
	s := openStore(t, Options{})
	tp, _ := s.Topic("empty")
	v, err := tp.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if v.Next != 0 || v.Oldest != 0 || len(v.Segments) != 1 || v.Segments[0].Bytes != 0 {
		t.Fatalf("empty view = %+v", v)
	}
	if recs := readAll(t, tp, 0); len(recs) != 0 {
		t.Fatalf("empty topic tail yielded %d records", len(recs))
	}
	// The empty segment file exists on disk so reopen finds the topic.
	if _, err := os.Stat(filepath.Join(s.Dir(), "empty", segName(0))); err != nil {
		t.Fatalf("segment file missing: %v", err)
	}
}
