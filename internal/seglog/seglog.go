// Package seglog is STREAMLINE's embedded history store: durable,
// append-only segment-log topics in the storage architecture of a Kafka
// partition, scaled down to an embedded library. A topic is a directory of
// segment files; each segment holds length-prefixed, CRC32-protected record
// frames carrying an event timestamp, a partitioning key and an opaque
// payload, addressed by monotonically increasing logical offsets. A sparse
// offset→byte-position index rides next to every segment, so positioned
// reads (tailing from an offset, aligning a byte-range split to a record
// boundary) skip at most IndexEvery bytes of scanning.
//
// The store closes the paper's at-rest/in-motion loop: a pipeline's output
// persisted to a topic *is* data at rest, and the same records replay later
// as the history side of a hybrid source — the direction H-STREAM argues
// (query big streams and their data histories in one system).
//
// # Durability model
//
// Appends buffer in the writer and become visible to readers only at frame
// boundaries (Flush), so a reader below the visible size always sees whole,
// valid frames. The fsync policy (Options.Fsync) decides when visible bytes
// are forced to disk: never (OS decides; Sync and segment rolls still
// sync), on every append (once per AppendRun), or at a bounded interval. Checkpoint-integrated
// sinks call Sync at every snapshot regardless, so a checkpointed
// high-water offset is always durable.
//
// Crash recovery reopens a topic by scanning its last segment: the first
// torn frame — a short header, an oversized length, a CRC mismatch —
// truncates the segment to the last valid record instead of failing the
// topic, and the segment's index is rebuilt from the scan (a partially
// written index is discarded the same way). Sealed segments are never torn
// by a process crash: sealing syncs them.
//
// # Retention
//
// Segments roll by size (Options.SegmentBytes) and optionally by age
// (Options.SegmentAge); whole sealed segments are then deleted when the
// topic exceeds Options.RetainBytes or a segment's data outlives
// Options.RetainAge. Retention never touches the active segment, and the
// oldest retained offset moves forward in segment-sized steps — readers
// below it fail loudly rather than silently skipping.
package seglog

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// Defaults for Options fields left zero.
const (
	// DefaultSegmentBytes is the roll threshold of stores that do not
	// choose one: large enough that frame and index overhead is noise,
	// small enough that retention reclaims space in useful steps.
	DefaultSegmentBytes = 64 << 20
	// DefaultIndexEvery is the sparse-index granularity: one entry per this
	// many bytes of frames, bounding the alignment scan of positioned reads.
	DefaultIndexEvery = 32 << 10
	// DefaultFsyncEvery is the FsyncInterval period when none is given.
	DefaultFsyncEvery = 100 * time.Millisecond
)

// FsyncPolicy picks when appended bytes are forced to disk.
type FsyncPolicy uint8

const (
	// FsyncNever leaves durability to the OS; Sync, segment rolls and
	// store close still sync. The fastest policy: a crash may lose the
	// unsynced tail of the active segment (recovery truncates to the last
	// valid record), but checkpointed offsets stay durable because
	// checkpoint sinks call Sync explicitly.
	FsyncNever FsyncPolicy = iota
	// FsyncAlways syncs before each Append or AppendRun returns — slowest.
	FsyncAlways
	// FsyncInterval syncs when Options.FsyncEvery has elapsed since the
	// last sync, bounding the loss window by time.
	FsyncInterval
)

// Options configure a Store; the zero value is usable (size-based roll at
// DefaultSegmentBytes, unlimited retention, FsyncNever).
type Options struct {
	// SegmentBytes rolls the active segment when it reaches this size
	// (<= 0 uses DefaultSegmentBytes).
	SegmentBytes int64
	// SegmentAge additionally rolls a non-empty active segment older than
	// this (checked once per Append or AppendRun; 0 disables time-based roll).
	SegmentAge time.Duration
	// RetainBytes deletes the oldest sealed segments while the topic
	// exceeds this total size (0 retains everything).
	RetainBytes int64
	// RetainAge deletes sealed segments whose newest data is older than
	// this (by file modification time; 0 retains everything).
	RetainAge time.Duration
	// Fsync is the durability policy (default FsyncNever).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (<= 0 uses DefaultFsyncEvery).
	FsyncEvery time.Duration
	// IndexEvery is the sparse-index granularity in bytes (<= 0 uses
	// DefaultIndexEvery).
	IndexEvery int64
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) indexEvery() int64 {
	if o.IndexEvery <= 0 {
		return DefaultIndexEvery
	}
	return o.IndexEvery
}

func (o Options) fsyncEvery() time.Duration {
	if o.FsyncEvery <= 0 {
		return DefaultFsyncEvery
	}
	return o.FsyncEvery
}

// Store is a directory of topics. One Store value owns each topic's single
// writer; open it once per process and share it.
type Store struct {
	dir  string
	opts Options
	reg  *metrics.Registry
	clk  clock.Clock // segment age, fsync interval, retention age; tests set it

	mu     sync.Mutex
	topics map[string]*Topic
	closed bool
}

// Open opens (creating if needed) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	return &Store{
		dir:    dir,
		opts:   opts,
		reg:    metrics.NewRegistry(),
		clk:    clock.Real{},
		topics: make(map[string]*Topic),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Metrics exposes the store's observability registry. Per-topic series:
// topic.<name>.appended_bytes, .appended_records, .scanned_bytes,
// .scanned_records (counters), .segments and .retained_bytes (gauges).
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// validTopicName restricts topic names to path-safe tokens — a topic name
// becomes a directory name.
func validTopicName(name string) error {
	if name == "" {
		return fmt.Errorf("seglog: empty topic name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("seglog: topic name %q: only letters, digits, '-', '_', '.' allowed", name)
		}
	}
	if strings.Trim(name, ".") == "" {
		return fmt.Errorf("seglog: topic name %q is not allowed", name)
	}
	return nil
}

// Topic opens (creating if needed) the named topic, running crash recovery
// if its last segment has a torn tail. The returned Topic is cached: every
// call with the same name yields the same single-writer instance.
func (s *Store) Topic(name string) (*Topic, error) {
	if err := validTopicName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("seglog: store is closed")
	}
	if t, ok := s.topics[name]; ok {
		return t, nil
	}
	t, err := openTopic(s, name)
	if err != nil {
		return nil, err
	}
	s.topics[name] = t
	return t, nil
}

// Topics lists the store's topic names (existing directories, opened or
// not), sorted.
func (s *Store) Topics() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && validTopicName(e.Name()) == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Close syncs and closes every open topic. The store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, t := range s.topics {
		if err := t.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// topicDir returns the directory of a topic.
func (s *Store) topicDir(name string) string { return filepath.Join(s.dir, name) }
