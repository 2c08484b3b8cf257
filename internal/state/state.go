// Package state implements STREAMLINE's keyed-state and snapshot layer.
//
// # Key groups
//
// The physical unit of keyed state is the key group: every key maps to
// Hash64(key) % NumKeyGroups (a constant of the logical plan, default
// DefaultNumKeyGroups), and key groups map onto operator subtasks by
// contiguous range (GroupRangeFor / SubtaskForGroup). Hash-partitioned
// edges route records with the same functions, so the subtask that receives
// a key is always the subtask that owns its state. Because snapshots store
// one blob per (operator, key group) — not per subtask — a checkpoint taken
// at one parallelism restores at any other: the new subtasks simply load
// the groups of their new ranges.
//
// # KeyedState and asynchronous snapshots
//
// Operators keep their per-key state in a KeyedState: named, typed cells
// (MapCell for per-key values, GroupCell for per-group scalars) registered
// in Open. A MapCell keeps each key group in a flat open-addressing table
// of (key, value) slots. At a checkpoint barrier the runtime takes a
// copy-on-write Capture — a copy of each group's table header, a frozen
// flag per group and scalar copies, no serialization — and encodes the view
// into group blobs on a separate goroutine while the operator keeps
// processing. The first mutation of a frozen group while the capture is in
// flight copies the group's slot slice (one allocation, every key at its
// old slot), and a value mutated in place is cloned first, once per capture
// (the cell API's GetMut discipline). This is the "asynchronous
// phase" of asynchronous barrier snapshotting: the barrier path blocks only
// for the capture, and the checkpoint completes when every subtask's
// serialization lands.
//
// # Backends
//
// A Backend persists completed snapshots — a consistent bundle of
// per-subtask blobs (sources, non-keyed operator state) and per-key-group
// blobs (keyed state) — either in memory (tests, benches) or on disk (one
// checksummed file per checkpoint, see FileBackend), and serves the most
// recent readable one for recovery.
package state

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// SubtaskKey identifies one operator subtask's state within a snapshot —
// used for state that is physically tied to a subtask (source positions,
// unkeyed operator scalars) and therefore cannot be redistributed.
type SubtaskKey struct {
	OperatorID int
	Subtask    int
}

// String renders the key as "op/subtask".
func (k SubtaskKey) String() string { return fmt.Sprintf("%d/%d", k.OperatorID, k.Subtask) }

// GroupKey identifies one operator's key group within a snapshot — the unit
// of rescalable keyed state.
type GroupKey struct {
	OperatorID int
	KeyGroup   int
}

// String renders the key as "op@group".
func (k GroupKey) String() string { return fmt.Sprintf("%d@%d", k.OperatorID, k.KeyGroup) }

// Snapshot is a completed checkpoint: every subtask's non-keyed state blob
// plus every keyed operator's per-key-group blobs.
type Snapshot struct {
	CheckpointID int64
	// NumKeyGroups records the plan constant the Groups entries were
	// written under; a restoring job must be built with the same value.
	NumKeyGroups int
	Entries      map[SubtaskKey][]byte
	Groups       map[GroupKey][]byte
}

// NewSnapshot returns an empty snapshot for the given checkpoint id.
func NewSnapshot(id int64) *Snapshot {
	return &Snapshot{
		CheckpointID: id,
		Entries:      make(map[SubtaskKey][]byte),
		Groups:       make(map[GroupKey][]byte),
	}
}

// Put stores one subtask's non-keyed state blob.
func (s *Snapshot) Put(k SubtaskKey, blob []byte) { s.Entries[k] = blob }

// Get returns one subtask's non-keyed state blob, or nil if absent.
func (s *Snapshot) Get(k SubtaskKey) []byte { return s.Entries[k] }

// EntriesOf collects one operator's per-subtask blobs keyed by subtask index
// — the restore path of sources whose state redistributes across a different
// parallelism (splittable scans) and therefore needs every subtask's blob.
func (s *Snapshot) EntriesOf(operatorID int) map[int][]byte {
	var out map[int][]byte
	for k, b := range s.Entries {
		if k.OperatorID != operatorID {
			continue
		}
		if out == nil {
			out = make(map[int][]byte)
		}
		out[k.Subtask] = b
	}
	return out
}

// PutGroup stores one key group's state blob.
func (s *Snapshot) PutGroup(k GroupKey, blob []byte) {
	if s.Groups == nil {
		s.Groups = make(map[GroupKey][]byte)
	}
	s.Groups[k] = blob
}

// GetGroup returns one key group's state blob, or nil if absent.
func (s *Snapshot) GetGroup(k GroupKey) []byte { return s.Groups[k] }

// GroupsOf collects an operator's blobs for the key-group range [start, end)
// — the restore path's redistribution: the ranges are the *new* job's, the
// blobs whatever subtasks wrote them. Returns nil when the range holds no
// state.
func (s *Snapshot) GroupsOf(operatorID, start, end int) map[int][]byte {
	var out map[int][]byte
	for g := start; g < end; g++ {
		if blob := s.Groups[GroupKey{OperatorID: operatorID, KeyGroup: g}]; blob != nil {
			if out == nil {
				out = make(map[int][]byte)
			}
			out[g] = blob
		}
	}
	return out
}

// Backend persists completed snapshots and serves the latest one for
// recovery.
type Backend interface {
	// Persist durably stores a completed snapshot. Later snapshots must
	// have larger checkpoint ids.
	Persist(snap *Snapshot) error
	// Latest returns the most recent *readable* persisted snapshot, or
	// ok=false if none exists. A durable backend that finds corrupt
	// snapshot data skips backward to the newest readable snapshot and
	// surfaces the corruption through err — possibly alongside ok=true, so
	// recovery can proceed from an older checkpoint while the operator
	// learns state was lost.
	Latest() (snap *Snapshot, ok bool, err error)
	// Load returns the snapshot with the given checkpoint id.
	Load(checkpointID int64) (*Snapshot, error)
}

// MemoryBackend keeps snapshots in memory; safe for concurrent use.
type MemoryBackend struct {
	mu    sync.Mutex
	snaps map[int64]*Snapshot
	ids   []int64
	// Retain limits how many snapshots are kept (0 = unlimited).
	Retain int
}

// NewMemoryBackend returns an empty in-memory backend retaining the last
// `retain` snapshots (0 = all).
func NewMemoryBackend(retain int) *MemoryBackend {
	return &MemoryBackend{snaps: make(map[int64]*Snapshot), Retain: retain}
}

// Persist implements Backend.
func (m *MemoryBackend) Persist(snap *Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.snaps[snap.CheckpointID]; dup {
		return fmt.Errorf("state: checkpoint %d already persisted", snap.CheckpointID)
	}
	m.snaps[snap.CheckpointID] = snap
	m.ids = append(m.ids, snap.CheckpointID)
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	if m.Retain > 0 {
		for len(m.ids) > m.Retain {
			delete(m.snaps, m.ids[0])
			m.ids = m.ids[1:]
		}
	}
	return nil
}

// Latest implements Backend.
func (m *MemoryBackend) Latest() (*Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ids) == 0 {
		return nil, false, nil
	}
	return m.snaps[m.ids[len(m.ids)-1]], true, nil
}

// Load implements Backend.
func (m *MemoryBackend) Load(id int64) (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[id]
	if !ok {
		return nil, fmt.Errorf("state: checkpoint %d not found", id)
	}
	return s, nil
}

// FileBackend persists each snapshot as one file in a directory, in
// checkpoint file format version 2:
//
//	magic      "STREAMLINE-CKPT\n"
//	version    uvarint, 2
//	id         varint checkpoint id, then uvarint NumKeyGroups
//	entries    uvarint count, then per entry in (operator, subtask) order:
//	           varint operator, varint subtask, uvarint length, the blob
//	groups     the same for the key-group blobs, in (operator, group) order
//	trailer    CRC-32C of every byte before it, 4 bytes little-endian
//
// A file is written to a temporary name, synced, renamed into place and its
// directory synced, so a checkpoint Persist returned from survives a
// machine crash; a torn or corrupted file fails its checksum and Latest
// falls back to an older one. The version is the one format version of
// every blob inside, source and operator state included: no section carries
// its own. Files of an older version — version 1, whose source, combiner,
// window-engine and join sections were gob, and the gob files before it
// (chk-*.gob) — are refused with ErrOlderFormat: there is no converter.
type FileBackend struct {
	dir string
	mu  sync.Mutex
}

// ErrOlderFormat is the error of a checkpoint file written in a format
// before the current version; it cannot be restored.
var ErrOlderFormat = errors.New("older checkpoint format")

const (
	fileMagic   = "STREAMLINE-CKPT\n"
	fileVersion = 2
	fileExt     = ".ckpt"
	gobFileExt  = ".gob" // the format before version 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewFileBackend returns a backend writing to dir, creating it if needed.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: create dir: %w", err)
	}
	return &FileBackend{dir: dir}, nil
}

func (f *FileBackend) path(id int64) string {
	return filepath.Join(f.dir, fmt.Sprintf("chk-%012d%s", id, fileExt))
}

// Persist implements Backend: the file is streamed to disk, and durable
// when Persist returns nil.
func (f *FileBackend) Persist(snap *Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	final := f.path(snap.CheckpointID)
	tmp := final + ".tmp"
	if err := writeFile(tmp, snap); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("state: write checkpoint %d: %w", snap.CheckpointID, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	dir, err := os.Open(f.dir)
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFile streams snap into a new file at path and syncs it.
func writeFile(path string, snap *Snapshot) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := writeSnapshot(file, snap); err != nil {
		return err
	}
	if err := file.Sync(); err != nil {
		return err
	}
	return file.Close()
}

// writeSnapshot streams snap's file bytes to w through one buffer; no
// whole-snapshot copy is built.
func writeSnapshot(w io.Writer, snap *Snapshot) error {
	crc := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	hdr := binary.AppendUvarint([]byte(fileMagic), fileVersion)
	hdr = binary.AppendVarint(hdr, snap.CheckpointID)
	bw.Write(binary.AppendUvarint(hdr, uint64(snap.NumKeyGroups)))
	writeBlobs(bw, snap.Entries, func(k SubtaskKey) (int, int) { return k.OperatorID, k.Subtask })
	writeBlobs(bw, snap.Groups, func(k GroupKey) (int, int) { return k.OperatorID, k.KeyGroup })
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// writeBlobs writes a count and the blobs of m in the order of their keys'
// (a, b) ids; w keeps the first write error for Flush to return.
func writeBlobs[K comparable](w *bufio.Writer, m map[K][]byte, ids func(K) (int, int)) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y K) int {
		xa, xb := ids(x)
		ya, yb := ids(y)
		return cmp.Or(cmp.Compare(xa, ya), cmp.Compare(xb, yb))
	})
	var hdr [3 * binary.MaxVarintLen64]byte
	w.Write(binary.AppendUvarint(hdr[:0], uint64(len(keys))))
	for _, k := range keys {
		a, b := ids(k)
		blob := m[k]
		w.Write(binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(hdr[:0], int64(a)), int64(b)), uint64(len(blob))))
		w.Write(blob)
	}
}

// Latest implements Backend: it walks the snapshot files newest-first and
// returns the first one that reads and decodes cleanly. Corrupt newer files
// are skipped — recovery falls back to the most recent *readable*
// checkpoint instead of silently restarting from scratch — and the
// corruption is surfaced through the error alongside the result. A file of
// an older format never shadows a current one: a version-1 .ckpt file is
// skipped like a corrupt one, its ErrOlderFormat joined into the error, and
// gob-era files are looked at only when no .ckpt file reads. A directory
// holding only older files restores nothing and says why, while one a job
// has checkpointed into since restores its own checkpoints whatever their
// ids.
func (f *FileBackend) Latest() (*Snapshot, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	matches, err := filepath.Glob(filepath.Join(f.dir, "chk-*"+fileExt))
	if err != nil {
		return nil, false, err
	}
	sort.Strings(matches)
	var corrupt []error
	for i := len(matches) - 1; i >= 0; i-- {
		snap, err := f.read(matches[i])
		if err != nil {
			corrupt = append(corrupt, err)
			continue
		}
		return snap, true, errors.Join(corrupt...)
	}
	older, err := filepath.Glob(filepath.Join(f.dir, "chk-*"+gobFileExt))
	if err != nil {
		return nil, false, err
	}
	if len(older) > 0 {
		sort.Strings(older)
		_, err := f.read(older[len(older)-1])
		corrupt = append(corrupt, err)
	}
	if len(corrupt) == 0 {
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("state: no readable snapshot in %s: %w", f.dir, errors.Join(corrupt...))
}

// Load implements Backend.
func (f *FileBackend) Load(id int64) (*Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.read(f.path(id))
}

func (f *FileBackend) read(path string) (*Snapshot, error) {
	if strings.HasSuffix(path, gobFileExt) {
		return nil, fmt.Errorf("state: %s: %w (gob, before format version 1); it cannot be restored, there is no converter", path, ErrOlderFormat)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("state: read %s: %w", path, err)
	}
	snap, err := decodeFile(data)
	if err != nil {
		return nil, fmt.Errorf("state: %s: %w", path, err)
	}
	return snap, nil
}

// decodeFile parses a checkpoint file after checking its checksum. The
// snapshot's blobs are slices of data; an empty blob reads back as nil.
func decodeFile(data []byte) (*Snapshot, error) {
	if len(data) < len(fileMagic)+4 {
		return nil, fmt.Errorf("truncated checkpoint file (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, errors.New("not a checkpoint file (no header)")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, errors.New("checksum mismatch: the file is torn or corrupt")
	}
	b := body[len(fileMagic):]
	version, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if version < fileVersion {
		return nil, fmt.Errorf("%w (version %d); this build reads version %d, there is no converter", ErrOlderFormat, version, fileVersion)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("checkpoint format version %d, this build reads version %d", version, fileVersion)
	}
	id, b, err := ReadVarint(b)
	if err != nil {
		return nil, err
	}
	numGroups, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{CheckpointID: id, NumKeyGroups: int(numGroups)}
	if snap.Entries, b, err = readBlobs(b, func(a, b int) SubtaskKey { return SubtaskKey{a, b} }); err != nil {
		return nil, fmt.Errorf("entries: %w", err)
	}
	if snap.Groups, b, err = readBlobs(b, func(a, b int) GroupKey { return GroupKey{a, b} }); err != nil {
		return nil, fmt.Errorf("groups: %w", err)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return snap, nil
}

// readBlobs reads what writeBlobs wrote.
func readBlobs[K comparable](b []byte, key func(a, b int) K) (map[K][]byte, []byte, error) {
	n, b, err := ReadCount(b, 3)
	if err != nil {
		return nil, b, err
	}
	m := make(map[K][]byte, n)
	for i := 0; i < n; i++ {
		var a, c int64
		var blob []byte
		if a, b, err = ReadVarint(b); err != nil {
			return nil, b, err
		}
		if c, b, err = ReadVarint(b); err != nil {
			return nil, b, err
		}
		if blob, b, err = ReadBytes(b); err != nil {
			return nil, b, err
		}
		if len(blob) == 0 {
			blob = nil
		}
		m[key(int(a), int(c))] = blob
	}
	return m, b, nil
}
