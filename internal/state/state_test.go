package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
)

func sample(id int64) *Snapshot {
	s := NewSnapshot(id)
	s.Put(SubtaskKey{OperatorID: 1, Subtask: 0}, []byte("alpha"))
	s.Put(SubtaskKey{OperatorID: 2, Subtask: 3}, []byte{0x00, 0x01, 0x02})
	return s
}

func TestSubtaskKeyString(t *testing.T) {
	if got := (SubtaskKey{OperatorID: 4, Subtask: 2}).String(); got != "4/2" {
		t.Fatalf("String = %q", got)
	}
}

func TestMemoryBackendRoundTrip(t *testing.T) {
	b := NewMemoryBackend(0)
	if _, ok, _ := b.Latest(); ok {
		t.Fatalf("empty backend reported a snapshot")
	}
	if err := b.Persist(sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Persist(sample(2)); err != nil {
		t.Fatal(err)
	}
	latest, ok, _ := b.Latest()
	if !ok || latest.CheckpointID != 2 {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
	got, err := b.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Get(SubtaskKey{1, 0}), []byte("alpha")) {
		t.Fatalf("blob mismatch")
	}
	if got.Get(SubtaskKey{9, 9}) != nil {
		t.Fatalf("missing key should be nil")
	}
}

func TestMemoryBackendDuplicateRejected(t *testing.T) {
	b := NewMemoryBackend(0)
	if err := b.Persist(sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Persist(sample(1)); err == nil {
		t.Fatalf("duplicate checkpoint accepted")
	}
}

func TestMemoryBackendRetention(t *testing.T) {
	b := NewMemoryBackend(2)
	for id := int64(1); id <= 5; id++ {
		if err := b.Persist(sample(id)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Load(3); err == nil {
		t.Fatalf("retention did not evict old checkpoints")
	}
	latest, ok, _ := b.Latest()
	if !ok || latest.CheckpointID != 5 {
		t.Fatalf("latest = %+v", latest)
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Latest(); ok {
		t.Fatalf("empty dir reported a snapshot")
	}
	if err := b.Persist(sample(7)); err != nil {
		t.Fatal(err)
	}
	if err := b.Persist(sample(12)); err != nil {
		t.Fatal(err)
	}
	latest, ok, _ := b.Latest()
	if !ok || latest.CheckpointID != 12 {
		t.Fatalf("Latest = %+v, %v", latest, ok)
	}
	got, err := b.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Get(SubtaskKey{2, 3}), []byte{0x00, 0x01, 0x02}) {
		t.Fatalf("blob mismatch after disk round trip")
	}
	// A second backend over the same dir sees the snapshots (recovery path).
	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest2, ok, _ := b2.Latest()
	if !ok || latest2.CheckpointID != 12 {
		t.Fatalf("recovery backend Latest = %+v, %v", latest2, ok)
	}
}

func TestFileBackendLoadMissing(t *testing.T) {
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(99); err == nil {
		t.Fatalf("loading a missing checkpoint should error")
	}
}

// TestFileBackendLatestSkipsCorrupt: a corrupt newest snapshot file must
// not read as "no snapshot" — Latest falls back to the most recent readable
// checkpoint and surfaces the corruption through the error.
func TestFileBackendLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if err := b.Persist(sample(id)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest file (truncated write) and garbage the second.
	if err := os.WriteFile(b.path(3), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(b.path(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b.path(2), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	snap, ok, cerr := b.Latest()
	if !ok || snap.CheckpointID != 1 {
		t.Fatalf("Latest = %+v, %v — did not skip back to the readable snapshot", snap, ok)
	}
	if cerr == nil {
		t.Fatalf("corruption was swallowed: Latest returned nil error")
	}

	// All snapshots corrupt: no snapshot, and an error saying why.
	if err := os.WriteFile(b.path(1), []byte{0x00}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, cerr := b.Latest(); ok || cerr == nil {
		t.Fatalf("all-corrupt dir: ok=%v err=%v, want ok=false with error", ok, cerr)
	}
}

func TestFileBackendGroupRoundTrip(t *testing.T) {
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(5)
	s.NumKeyGroups = 16
	s.Put(SubtaskKey{OperatorID: 0, Subtask: 0}, []byte("src"))
	s.PutGroup(GroupKey{OperatorID: 1, KeyGroup: 3}, []byte("g3"))
	s.PutGroup(GroupKey{OperatorID: 1, KeyGroup: 9}, []byte("g9"))
	if err := b.Persist(s); err != nil {
		t.Fatal(err)
	}
	got, err := b.Load(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumKeyGroups != 16 {
		t.Fatalf("NumKeyGroups = %d", got.NumKeyGroups)
	}
	if !bytes.Equal(got.GetGroup(GroupKey{OperatorID: 1, KeyGroup: 9}), []byte("g9")) {
		t.Fatalf("group blob lost in the disk round trip")
	}
	groups := got.GroupsOf(1, 0, 16)
	if len(groups) != 2 || !bytes.Equal(groups[3], []byte("g3")) {
		t.Fatalf("GroupsOf = %v", groups)
	}
	// The blobs share the file's buffer; an append to one must not write
	// over the next.
	_ = append(groups[3], "XXXXXXXX"...)
	if !bytes.Equal(groups[9], []byte("g9")) {
		t.Fatalf("appending to group 3's blob overwrote group 9's: %q", groups[9])
	}
}

// TestMemoryBackendRetainConcurrent hammers Persist and Latest from
// concurrent goroutines while retention prunes: Latest must always see a
// fully formed snapshot (run with -race to catch unsynchronized pruning).
func TestMemoryBackendRetainConcurrent(t *testing.T) {
	b := NewMemoryBackend(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := int64(1); id <= 200; id++ {
			if err := b.Persist(sample(id)); err != nil {
				t.Errorf("persist %d: %v", id, err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for i := 0; i < 500; i++ {
				snap, ok, err := b.Latest()
				if err != nil {
					t.Errorf("Latest: %v", err)
					return
				}
				if !ok {
					continue
				}
				if snap.CheckpointID < last {
					t.Errorf("Latest went backwards: %d after %d", snap.CheckpointID, last)
					return
				}
				last = snap.CheckpointID
				if len(snap.Entries) != 2 {
					t.Errorf("Latest returned a partially formed snapshot: %d entries", len(snap.Entries))
					return
				}
			}
		}()
	}
	wg.Wait()
	if snap, ok, _ := b.Latest(); !ok || snap.CheckpointID != 200 {
		t.Fatalf("final Latest = %v, %v", snap, ok)
	}
	if _, err := b.Load(198); err == nil {
		t.Fatalf("retention kept more than 2 snapshots")
	}
}

// TestFileBackendLatestSkipsTornFile: a newest file cut short or with one bit
// flipped — what a crash or a bad disk leaves — fails its checksum, and Latest
// returns the checkpoint before it.
func TestFileBackendLatestSkipsTornFile(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"truncated":   func(b []byte) []byte { return b[:len(b)-7] },
		"bit flipped": func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b },
	} {
		b, err := NewFileBackend(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(1); id <= 2; id++ {
			s := sample(id)
			s.PutGroup(GroupKey{OperatorID: 4, KeyGroup: 1}, bytes.Repeat([]byte{byte(id)}, 100))
			if err := b.Persist(s); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(b.path(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(b.path(2), tear(data), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, ok, err := b.Latest()
		if !ok || snap.CheckpointID != 1 {
			t.Fatalf("%s: Latest = %+v, %v, want checkpoint 1", name, snap, ok)
		}
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s: Latest error = %v, want a checksum error", name, err)
		}
	}
}

// TestFileBackendRefusesOlderFormat: a gob-era checkpoint file and a file
// of format version 1 are refused with ErrOlderFormat, so a directory
// holding only such files restores nothing and says why. Neither shadows the
// current-format checkpoints beside it, though their ids are higher — a job
// started fresh after an upgrade numbers its checkpoints from 1 again: Latest
// returns the newest current one, and names a skipped version-1 file in its
// error.
func TestFileBackendRefusesOlderFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "chk-000000000009.gob"), []byte{0x0f, 0xff, 0x81}, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := b.Latest(); ok || snap != nil || !errors.Is(err, ErrOlderFormat) {
		t.Fatalf("gob-era dir: Latest = %v, %v, %v; want no snapshot and ErrOlderFormat", snap, ok, err)
	}
	for id := int64(3); id <= 4; id++ {
		if err := b.Persist(sample(id)); err != nil {
			t.Fatal(err)
		}
	}
	if snap, ok, err := b.Latest(); !ok || snap.CheckpointID != 4 || err != nil {
		t.Fatalf("gob-era file beside version 2: Latest = %v, %v, %v; want checkpoint 4 and no error", snap, ok, err)
	}

	// A version-1 file: a current file with its version byte set back and
	// its checksum recomputed.
	v1 := func(id int64) []byte {
		var file bytes.Buffer
		if err := writeSnapshot(&file, sample(id)); err != nil {
			t.Fatal(err)
		}
		data := file.Bytes()[:file.Len()-4]
		data[len(fileMagic)] = 1
		return binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	}
	if err := os.WriteFile(b.path(12), v1(12), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := b.Latest(); !ok || snap.CheckpointID != 4 || !errors.Is(err, ErrOlderFormat) {
		t.Fatalf("version 1 beside version 2: Latest = %v, %v, %v; want checkpoint 4 and ErrOlderFormat", snap, ok, err)
	}
	only, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(only.path(12), v1(12), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, ok, err := only.Latest(); ok || snap != nil || !errors.Is(err, ErrOlderFormat) {
		t.Fatalf("version-1 dir: Latest = %v, %v, %v; want no snapshot and ErrOlderFormat", snap, ok, err)
	}
}

// TestFileBackendEmptyBlobReadsNil: an empty blob reads back as nil, as it
// does from a MemoryBackend that was handed nil — a keyed operator takes any
// non-nil per-subtask blob for keyed state of the pre-key-group format.
func TestFileBackendEmptyBlobReadsNil(t *testing.T) {
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSnapshot(1)
	s.Put(SubtaskKey{OperatorID: 2, Subtask: 0}, nil)
	s.Put(SubtaskKey{OperatorID: 2, Subtask: 1}, []byte{})
	if err := b.Persist(s); err != nil {
		t.Fatal(err)
	}
	got, err := b.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Get(SubtaskKey{2, 0}) != nil || got.Get(SubtaskKey{2, 1}) != nil {
		t.Fatalf("entries = %#v, want two nil blobs", got.Entries)
	}
}

// FuzzCheckpointFile parses arbitrary file bytes, as they are and with a valid
// checksum appended so the parser behind the check is reached: an error or a
// snapshot, never a panic, and never an allocation beyond a bound
// proportional to the input. A snapshot that parses writes a file that parses
// to the same snapshot. Besides the files written here, testdata/fuzz holds
// a checkpoint with a generator's and a split scan's source entries and a
// session window's and a window join's key groups, which internal/dataflow's
// TestStateFuzzSeedsAreCurrent writes.
func FuzzCheckpointFile(f *testing.F) {
	b, err := NewFileBackend(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s := sample(4)
	s.NumKeyGroups = 128
	s.Put(SubtaskKey{OperatorID: 3, Subtask: 1}, nil)
	s.PutGroup(GroupKey{OperatorID: 5, KeyGroup: 17}, []byte("group"))
	for _, snap := range []*Snapshot{NewSnapshot(1), s} {
		if err := b.Persist(snap); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(b.path(snap.CheckpointID))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(data, castagnoli))
		for _, in := range [][]byte{data, append(bytes.Clone(data), sum...)} {
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			snap, err := decodeFile(in)
			goruntime.ReadMemStats(&after)
			if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(in)); got > bound {
				t.Fatalf("parsing %d bytes allocated %d, bound %d", len(in), got, bound)
			}
			if err != nil {
				continue
			}
			var file bytes.Buffer
			if err := writeSnapshot(&file, snap); err != nil {
				t.Fatal(err)
			}
			again, err := decodeFile(file.Bytes())
			if err != nil {
				t.Fatalf("a parsed snapshot does not read back: %v", err)
			}
			if !reflect.DeepEqual(again, snap) {
				t.Fatalf("read back %+v, want %+v", again, snap)
			}
		}
	})
}
