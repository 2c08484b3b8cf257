package gen

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/streamline"
)

// checkEvery is how many records a reader hands over between looks at the
// clock and publications of its cursor: often enough that a run overshoots
// its deadline by microseconds, rarely enough that the source stays
// negligible next to the engine.
const checkEvery = 1024

// Box is the state the readers of one source stage share with the harness:
// where each reader stands and when all of them must stop. Distributed
// workers rebuild the pipeline in the same process, so a rebuilt source
// still reports into the Box it was built around.
type Box struct {
	// deadline, in Unix nanoseconds, ends a time-boxed run; 0 means none.
	// It is fixed when the engine first asks any reader for a record, so
	// that a slow job start shortens no run.
	deadline atomic.Int64
	duration time.Duration
	// limit ends a bounded run after that many records per subtask; < 0
	// means none.
	limit int64

	cursors   []atomic.Int64
	late      []atomic.Int64
	firstSnap atomic.Int64
	firstNext atomic.Int64
	lastEnd   atomic.Int64
}

// NewBox returns the shared state of a stage with par subtasks. Every reader
// returns ReadEnd after limit records (limit < 0: no limit) or once the job
// has run for d since its first record (d == 0: no deadline).
func NewBox(par int, limit int64, d time.Duration) *Box {
	return &Box{limit: limit, duration: d, cursors: make([]atomic.Int64, par), late: make([]atomic.Int64, par)}
}

// Taken is the number of records the engine has pulled from all readers, as
// of each reader's last publication (exact once the job has ended).
func (b *Box) Taken() int64 {
	var n int64
	for i := range b.cursors {
		n += b.cursors[i].Load()
	}
	return n
}

// Late is the number of records handed over so far that a reader's late
// predicate marked (see TimeBoxed).
func (b *Box) Late() int64 {
	var n int64
	for i := range b.late {
		n += b.late[i].Load()
	}
	return n
}

// FirstNext is the wall time of the first Next call on any reader since the
// Box was made, or the zero time. A restored job calls it only after the
// backend load, state decode and source Restore are done.
func (b *Box) FirstNext() time.Time { return unixOrZero(b.firstNext.Load()) }

// FirstSnapshot is the wall time of the first Snapshot call on any reader
// since the last ResetSnapshotMark: the instant a checkpoint barrier entered
// the job.
func (b *Box) FirstSnapshot() time.Time { return unixOrZero(b.firstSnap.Load()) }

// LastEnd is the wall time at which the last reader so far returned ReadEnd.
func (b *Box) LastEnd() time.Time { return unixOrZero(b.lastEnd.Load()) }

// ResetSnapshotMark clears FirstSnapshot, so that it reports the next
// checkpoint's barrier.
func (b *Box) ResetSnapshotMark() { b.firstSnap.Store(0) }

func unixOrZero(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// TimeBoxed is a benchmark-owned streamline.Source: reader sub hands over
// f(sub, par, 0), f(sub, par, 1), ... until the Box's limit or deadline.
// The job then ends the way any bounded job does, with a final flush, so
// the run length is the same however fast the engine is. conv turns the
// generated event into the stream's element; late, when not nil, marks the
// records counted by Box.Late.
func TimeBoxed[T any](box *Box, f Func, conv func(Event) T, late func(sub int, i int64) bool) streamline.Source[T] {
	return &boxSource[T]{box: box, f: f, conv: conv, late: late}
}

type boxSource[T any] struct {
	box  *Box
	f    Func
	conv func(Event) T
	late func(sub int, i int64) bool
}

func (s *boxSource[T]) Open(sub, par int) streamline.Reader[T] {
	if sub >= len(s.box.cursors) {
		panic(fmt.Sprintf("gen: source opened with subtask %d but its Box has %d", sub, len(s.box.cursors)))
	}
	return &boxReader[T]{src: s, sub: sub, par: par}
}

type boxReader[T any] struct {
	src      *boxSource[T]
	sub, par int
	idx      int64
	nLate    int64
	started  bool
}

func (r *boxReader[T]) Next() (streamline.Keyed[T], streamline.ReadStatus) {
	b := r.src.box
	if !r.started {
		r.started = true
		now := time.Now()
		if b.firstNext.CompareAndSwap(0, now.UnixNano()) && b.duration > 0 {
			b.deadline.Store(now.Add(b.duration).UnixNano())
		}
	}
	if r.idx%checkEvery == 0 || r.idx == b.limit {
		b.cursors[r.sub].Store(r.idx)
		b.late[r.sub].Store(r.nLate)
		now := time.Now().UnixNano()
		// The deadline is published a moment after firstNext; a reader that
		// looks in between sees 0 and checks again checkEvery records on.
		if d := b.deadline.Load(); r.idx == b.limit || d != 0 && now >= d {
			for {
				if old := b.lastEnd.Load(); old >= now || b.lastEnd.CompareAndSwap(old, now) {
					break
				}
			}
			return streamline.Keyed[T]{}, streamline.ReadEnd
		}
	}
	e := r.src.f(r.sub, r.par, r.idx)
	if r.src.late != nil && r.src.late(r.sub, r.idx) {
		r.nLate++
	}
	r.idx++
	return streamline.Keyed[T]{Ts: e.Ts, Key: e.Key, Value: r.src.conv(e)}, streamline.ReadData
}

// Snapshot stores the cursor and the late count: everything else about the
// reader is a function of them.
func (r *boxReader[T]) Snapshot() ([]byte, error) {
	r.src.box.firstSnap.CompareAndSwap(0, time.Now().UnixNano())
	blob := make([]byte, 16)
	binary.LittleEndian.PutUint64(blob, uint64(r.idx))
	binary.LittleEndian.PutUint64(blob[8:], uint64(r.nLate))
	return blob, nil
}

func (r *boxReader[T]) Restore(blob []byte) error {
	if len(blob) != 16 {
		return fmt.Errorf("gen: reader snapshot is %d bytes, want 16", len(blob))
	}
	r.idx = int64(binary.LittleEndian.Uint64(blob))
	r.nLate = int64(binary.LittleEndian.Uint64(blob[8:]))
	r.src.box.cursors[r.sub].Store(r.idx)
	r.src.box.late[r.sub].Store(r.nLate)
	return nil
}
