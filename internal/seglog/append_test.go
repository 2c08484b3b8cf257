package seglog

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// A warmed topic appends without allocating: the frame is built in the
// topic's reusable scratch buffer, header included, and the sparse index
// entry every IndexEvery bytes is written through a handle kept open with
// the active segment. Append is a run of one; AppendRun costs the same for a
// run of any length.
func TestAppendDoesNotAllocate(t *testing.T) {
	s := openStore(t, Options{})
	tp, err := s.Topic("events")
	if err != nil {
		t.Fatalf("Topic: %v", err)
	}
	appendN(t, tp, 100)
	payload := []byte(`{"ts":1700000000000,"k":42,"v":3.25}`)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := tp.Append(1, 2, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v objects per record, want 0", allocs)
	}
	run := make([]Entry, 1000)
	for i := range run {
		run[i] = Entry{Ts: int64(i), Key: uint64(i), Payload: payload}
	}
	if _, err := tp.AppendRun(run); err != nil { // warm: the index opened
		t.Fatalf("AppendRun: %v", err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := tp.AppendRun(run); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendRun of %d records allocates %v objects, want 0", len(run), allocs)
	}
}

// AppendRun places frames, index entries and rolls exactly as one Append per
// record does, and each .idx file holds what a scan of its segment places —
// across rolls and a truncation that moves the writer back to an earlier
// segment, both of which must drop the kept-open index handle. The counters
// match, and a run that fails at record k leaves the k records before it.
func TestAppendRunMatchesAppends(t *testing.T) {
	opts := Options{SegmentBytes: 256, IndexEvery: 64}
	single, runs := openStore(t, opts), openStore(t, opts)
	one, _ := single.Topic("t")
	many, _ := runs.Topic("t")
	payload := func(i int) []byte { return []byte(fmt.Sprintf("record-%0*d", i%9+1, i)) }
	write := func(from, to int) {
		var run []Entry
		for i := from; i < to; i++ {
			if _, err := one.Append(int64(i), uint64(i%7), payload(i)); err != nil {
				t.Fatal(err)
			}
			run = append(run, Entry{Ts: int64(i), Key: uint64(i % 7), Payload: payload(i)})
			if len(run) == 7 || i == to-1 {
				first, err := many.AppendRun(run)
				if err != nil || first != int64(i+1-len(run)) {
					t.Fatalf("AppendRun = %d, %v; want %d", first, err, i+1-len(run))
				}
				run = run[:0]
			}
		}
	}
	write(0, 60)
	for _, tp := range []*Topic{one, many} {
		if err := tp.TruncateTo(45); err != nil {
			t.Fatal(err)
		}
	}
	write(45, 100)
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	if err := runs.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := dirBytes(t, single.topicDir("t")), dirBytes(t, runs.topicDir("t"))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("AppendRun wrote other files than Append:\n%v\n%v", keysOf(a), keysOf(b))
	}
	// Each index file holds the entries a scan of its segment places.
	for name := range b {
		base, ok := parseSegName(name)
		if !ok {
			continue
		}
		_, _, idx, err := recoverSegment(filepath.Join(runs.topicDir("t"), name), base, opts.IndexEvery)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, e := range idx {
			want = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(want, uint64(e.Off)), uint64(e.Pos))
		}
		if got := b[strings.TrimSuffix(name, segSuffix)+idxSuffix]; got != string(want) {
			t.Fatalf("%s: index file holds %d bytes, a scan places %d", name, len(got), len(want))
		}
	}
	for _, name := range []string{"topic.t.appended_records", "topic.t.appended_bytes"} {
		if x, y := single.Metrics().Counter(name).Value(), runs.Metrics().Counter(name).Value(); x != y {
			t.Fatalf("%s: Append %d, AppendRun %d", name, x, y)
		}
	}

	s := openStore(t, opts)
	tp, _ := s.Topic("fail")
	run := []Entry{{Payload: payload(0)}, {Payload: payload(1)}, {Payload: make([]byte, MaxRecordBytes+1)}, {Payload: payload(3)}}
	if _, err := tp.AppendRun(run); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("AppendRun with an oversized record = %v, want its error", err)
	}
	if got := readAll(t, tp, 0); len(got) != 2 || string(got[1].Payload) != string(payload(1)) {
		t.Fatalf("after a failure at record 2: %d records, want the 2 before it", len(got))
	}
}

func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		m[e.Name()] = string(data)
	}
	return m
}

func keysOf(m map[string]string) []string {
	var ks []string
	for k, v := range m {
		ks = append(ks, fmt.Sprintf("%s:%d", k, len(v)))
	}
	sort.Strings(ks)
	return ks
}
