package seglog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Topic is one append-only log: a directory of segments with a single
// writer (this value) and any number of concurrent readers. All methods are
// safe for concurrent use; appends serialize on the topic lock, reads of
// sealed bytes proceed without it.
type Topic struct {
	store *Store
	name  string
	dir   string
	opts  Options

	mu     sync.Mutex
	closed bool
	segs   []*segment // ascending base; the last one is active
	next   int64      // offset the next append receives

	// active-segment writer state
	f           *os.File
	w           *bufio.Writer
	size        int64 // bytes appended to the active segment (buffered included)
	flushed     int64 // frame-boundary bytes visible to readers
	flushedNext int64 // logical offset bound of visible records (== next at last flush)
	lastIdxPos  int64 // position of the newest index entry (-1: none yet)
	openedAt    time.Time
	lastSync    time.Time
	frame       []byte              // append scratch
	idxF        *os.File            // the active segment's .idx, opened at its first entry
	idxEntry    [idxEntryBytes]byte // index write scratch

	// per-topic observability (the store's registry)
	mAppB, mAppR   *metrics.Counter
	mScanB, mScanR *metrics.Counter
	mSegs, mRetB   *metrics.Gauge
}

// openTopic opens the topic directory, recovering the last segment's torn
// tail if the previous writer crashed mid-append. Called under the store
// lock, once per (store, name).
func openTopic(s *Store, name string) (*Topic, error) {
	dir := s.topicDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: topic %q: %w", name, err)
	}
	t := &Topic{
		store:      s,
		name:       name,
		dir:        dir,
		opts:       s.opts,
		lastIdxPos: -1,
		mAppB:      s.reg.Counter("topic." + name + ".appended_bytes"),
		mAppR:      s.reg.Counter("topic." + name + ".appended_records"),
		mScanB:     s.reg.Counter("topic." + name + ".scanned_bytes"),
		mScanR:     s.reg.Counter("topic." + name + ".scanned_records"),
		mSegs:      s.reg.Gauge("topic." + name + ".segments"),
		mRetB:      s.reg.Gauge("topic." + name + ".retained_bytes"),
	}
	bases, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: topic %q: %w", name, err)
	}
	if len(bases) == 0 {
		bases = []int64{0}
		if err := os.WriteFile(segPath(dir, 0), nil, 0o644); err != nil {
			return nil, fmt.Errorf("seglog: topic %q: %w", name, err)
		}
	}
	for i, base := range bases {
		g := &segment{base: base, path: segPath(dir, base)}
		if i < len(bases)-1 {
			// Sealed segment: sizes from the filesystem, record count from
			// the next base (bases were assigned at roll time), index from
			// its validated .idx file.
			st, err := os.Stat(g.path)
			if err != nil {
				return nil, fmt.Errorf("seglog: topic %q: %w", name, err)
			}
			g.size = st.Size()
			g.records = bases[i+1] - base
			if g.records < 0 {
				return nil, fmt.Errorf("seglog: topic %q: segment bases %d and %d out of order", name, base, bases[i+1])
			}
			g.idx = loadIndex(g)
		} else {
			// Active (last) segment: crash recovery. Scan every frame from
			// the start; the first torn one truncates the file to the last
			// valid record, and the index is rebuilt from the scan — a
			// partially written index file is replaced wholesale.
			valid, records, idx, err := recoverSegment(g.path, base, t.opts.indexEvery())
			if err != nil {
				return nil, fmt.Errorf("seglog: topic %q: recover %s: %w", name, g.path, err)
			}
			if st, serr := os.Stat(g.path); serr == nil && st.Size() > valid {
				if err := os.Truncate(g.path, valid); err != nil {
					return nil, fmt.Errorf("seglog: topic %q: truncate torn tail: %w", name, err)
				}
			}
			g.size = valid
			g.idx = idx
			if err := writeIndex(g); err != nil {
				return nil, fmt.Errorf("seglog: topic %q: %w", name, err)
			}
			t.next = base + records
			t.size = valid
			t.flushed = valid
			if n := len(idx); n > 0 {
				t.lastIdxPos = idx[n-1].Pos
			}
		}
		t.segs = append(t.segs, g)
	}
	t.flushedNext = t.next
	if err := t.openWriter(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.retentionLocked()
	t.updateGaugesLocked()
	t.mu.Unlock()
	return t, nil
}

// openWriter (re)opens the write handle on the active segment, positioned
// at its valid end, and closes the index handle it kept for the previous one
// (the next index entry reopens the file).
func (t *Topic) openWriter() error {
	if err := t.closeIndexLocked(); err != nil {
		return fmt.Errorf("seglog: topic %q: index: %w", t.name, err)
	}
	g := t.active()
	f, err := os.OpenFile(g.path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	if _, err := f.Seek(t.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	t.f = f
	if t.w == nil {
		t.w = bufio.NewWriterSize(f, 256<<10)
	} else {
		t.w.Reset(f)
	}
	t.openedAt = time.Now()
	t.lastSync = time.Now()
	return nil
}

func (t *Topic) active() *segment { return t.segs[len(t.segs)-1] }

// Name returns the topic's name.
func (t *Topic) Name() string { return t.name }

// Entry is one record of a run handed to AppendRun.
type Entry struct {
	Ts      int64
	Key     uint64
	Payload []byte
}

// Append writes one record and returns its logical offset: AppendRun with a
// run of one.
func (t *Topic) Append(ts int64, key uint64, payload []byte) (int64, error) {
	run := [1]Entry{{Ts: ts, Key: key, Payload: payload}}
	return t.AppendRun(run[:])
}

// AppendRun writes a run of records in order under one lock and returns the
// offset of its first. Frames, index entries and size-based rolls are placed
// per record, as by one Append each. Durability and the time-based roll act
// per run: SegmentAge is checked before the first record, the fsync policy
// after the last (FsyncAlways syncs once, before AppendRun returns). Records
// become visible to readers at the next Flush/Sync (or when the writer's
// buffer fills a whole frame boundary behind a later append's flush). If
// record k fails, records before k are appended and none after.
func (t *Topic) AppendRun(run []Entry) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return 0, fmt.Errorf("seglog: topic %q is closed", t.name)
	}
	// Time-based roll first, so a long-idle topic starts a fresh segment
	// instead of extending a stale one.
	if t.opts.SegmentAge > 0 && t.size > 0 && time.Since(t.openedAt) >= t.opts.SegmentAge {
		if err := t.rollLocked(); err != nil {
			return 0, err
		}
	}
	first := t.next
	var bytes int64
	var err error
	for i := 0; i < len(run) && err == nil; i++ {
		var n int64
		n, err = t.appendLocked(&run[i])
		bytes += n
	}
	if t.next == first {
		return first, err
	}
	t.mAppR.Add(t.next - first)
	t.mAppB.Add(bytes)
	t.mRetB.Set(t.totalBytesLocked())
	var serr error
	switch t.opts.Fsync {
	case FsyncAlways:
		serr = t.syncLocked()
	case FsyncInterval:
		if time.Since(t.lastSync) >= t.opts.fsyncEvery() {
			serr = t.syncLocked()
		}
	}
	if err == nil {
		err = serr
	}
	return first, err
}

// appendLocked writes one record's index entry (when due) and frame, and
// rolls the segment when it is full. It returns the frame's size once the
// frame is written.
func (t *Topic) appendLocked(e *Entry) (int64, error) {
	if int64(len(e.Payload)) > MaxRecordBytes {
		return 0, fmt.Errorf("seglog: topic %q: payload of %d bytes exceeds %d", t.name, len(e.Payload), MaxRecordBytes)
	}
	g := t.active()
	if t.lastIdxPos < 0 || t.size-t.lastIdxPos >= t.opts.indexEvery() {
		g.idx = append(g.idx, indexEntry{Off: t.next, Pos: t.size})
		t.lastIdxPos = t.size
		if err := t.writeIndexEntryLocked(g); err != nil {
			return 0, fmt.Errorf("seglog: topic %q: index: %w", t.name, err)
		}
	}
	t.frame = appendFrame(t.frame[:0], e.Ts, e.Key, e.Payload)
	if _, err := t.w.Write(t.frame); err != nil {
		return 0, fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	n := int64(len(t.frame))
	t.next++
	t.size += n
	if t.size >= t.opts.segmentBytes() {
		return n, t.rollLocked()
	}
	return n, nil
}

// writeIndexEntryLocked appends the active segment's newest index entry to
// its .idx file, unbuffered: entries are tiny, rare (one per IndexEvery bytes
// of frames) and advisory. The handle stays open until openWriter (a roll or
// a truncation) or close.
func (t *Topic) writeIndexEntryLocked(g *segment) error {
	if t.idxF == nil {
		f, err := os.OpenFile(g.idxPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		t.idxF = f
	}
	e := g.idx[len(g.idx)-1]
	binary.LittleEndian.PutUint64(t.idxEntry[0:8], uint64(e.Off))
	binary.LittleEndian.PutUint64(t.idxEntry[8:16], uint64(e.Pos))
	_, err := t.idxF.Write(t.idxEntry[:])
	return err
}

func (t *Topic) closeIndexLocked() error {
	if t.idxF == nil {
		return nil
	}
	err := t.idxF.Close()
	t.idxF = nil
	return err
}

// flushLocked pushes buffered frames to the OS and advances the visible
// watermark. Called only between appends, so the watermark always lands on
// a frame boundary.
func (t *Topic) flushLocked() error {
	if err := t.w.Flush(); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	t.flushed = t.size
	t.flushedNext = t.next
	return nil
}

// syncLocked flushes and fsyncs the active segment.
func (t *Topic) syncLocked() error {
	if err := t.flushLocked(); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	t.lastSync = time.Now()
	return nil
}

// rollLocked seals the active segment (flush + fsync + close) and starts a
// fresh one at the current next offset, then applies retention.
func (t *Topic) rollLocked() error {
	if err := t.syncLocked(); err != nil {
		return err
	}
	g := t.active()
	if err := t.f.Close(); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	g.size = t.size
	g.records = t.next - g.base
	fresh := &segment{base: t.next, path: segPath(t.dir, t.next)}
	if err := os.WriteFile(fresh.path, nil, 0o644); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	t.segs = append(t.segs, fresh)
	t.size, t.flushed, t.lastIdxPos = 0, 0, -1
	if err := t.openWriter(); err != nil {
		return err
	}
	t.retentionLocked()
	t.updateGaugesLocked()
	return nil
}

// retentionLocked deletes the oldest sealed segments while the topic
// exceeds RetainBytes, or while they are older than RetainAge (by segment
// file modification time — the time their newest record was written). The
// active segment is never deleted. Deletion errors are swallowed: a
// lingering file retries at the next roll.
func (t *Topic) retentionLocked() {
	for len(t.segs) > 1 {
		oldest := t.segs[0]
		drop := false
		if t.opts.RetainBytes > 0 && t.totalBytesLocked() > t.opts.RetainBytes {
			drop = true
		}
		if !drop && t.opts.RetainAge > 0 {
			if st, err := os.Stat(oldest.path); err == nil && time.Since(st.ModTime()) > t.opts.RetainAge {
				drop = true
			}
		}
		if !drop {
			break
		}
		_ = removeSegment(oldest)
		t.segs = t.segs[1:]
	}
}

// totalBytesLocked sums the topic's retained bytes (active included).
func (t *Topic) totalBytesLocked() int64 {
	var n int64
	for i, g := range t.segs {
		if i == len(t.segs)-1 {
			n += t.size
		} else {
			n += g.size
		}
	}
	return n
}

func (t *Topic) updateGaugesLocked() {
	t.mSegs.Set(int64(len(t.segs)))
	t.mRetB.Set(t.totalBytesLocked())
}

// Flush makes every appended record visible to readers (buffered frames
// are pushed to the OS). Durability still follows the fsync policy.
func (t *Topic) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("seglog: topic %q is closed", t.name)
	}
	return t.flushLocked()
}

// Sync flushes and fsyncs the topic — after it returns, every appended
// record survives a crash. Checkpoint sinks call this before recording
// their high-water offset, which is what makes the no-double-append restore
// contract sound under FsyncNever.
func (t *Topic) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("seglog: topic %q is closed", t.name)
	}
	return t.syncLocked()
}

// NextOffset returns the offset the next append will receive (the
// exclusive high-water mark).
func (t *Topic) NextOffset() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// OldestOffset returns the first offset still retained.
func (t *Topic) OldestOffset() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segs[0].base
}

// SegmentInfo describes one retained segment at a frozen point in time.
type SegmentInfo struct {
	Path    string
	Base    int64 // logical offset of the first record
	Bytes   int64 // valid (visible) byte size
	Records int64 // record count (Next-Base for the active segment)
	Sealed  bool
}

// View is a frozen read view of a topic: the retained segments with their
// visible sizes, and the offset bounds. Scans planned over a View stay
// valid while the topic keeps appending — the active segment's growth past
// Bytes is simply not part of the view.
type View struct {
	Segments []SegmentInfo
	Oldest   int64 // first retained offset
	Next     int64 // offset after the last visible record
}

// View flushes buffered appends and returns a frozen read view.
func (t *Topic) View() (View, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return View{}, fmt.Errorf("seglog: topic %q is closed", t.name)
	}
	if err := t.flushLocked(); err != nil {
		return View{}, err
	}
	v := View{Oldest: t.segs[0].base, Next: t.next}
	for i, g := range t.segs {
		info := SegmentInfo{Path: g.path, Base: g.base, Bytes: g.size, Records: g.records, Sealed: true}
		if i == len(t.segs)-1 {
			info.Bytes = t.flushed
			info.Records = t.next - g.base
			info.Sealed = false
		}
		v.Segments = append(v.Segments, info)
	}
	return v, nil
}

// TruncateTo discards every record at or beyond off, making off the next
// offset to be assigned — the restore hook of checkpoint-integrated sinks:
// truncating to the checkpointed high-water offset before replay guarantees
// the restored job never double-appends. Truncating below the oldest
// retained offset fails (those records are gone; nothing sound can replay
// over them). Concurrent readers of the truncated tail will surface
// checksum errors — the topic has one writer, and restore runs before the
// job's readers start.
func (t *Topic) TruncateTo(off int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("seglog: topic %q is closed", t.name)
	}
	if off >= t.next {
		return nil
	}
	if off < t.segs[0].base {
		return fmt.Errorf("seglog: topic %q: cannot truncate to %d: oldest retained offset is %d (retention already dropped that range)", t.name, off, t.segs[0].base)
	}
	if err := t.flushLocked(); err != nil {
		return err
	}
	if err := t.f.Close(); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	// Drop whole segments past the target.
	keep := 0
	for i, g := range t.segs {
		if g.base <= off {
			keep = i
		}
	}
	// Valid size of the target segment: the byte watermark if it is the
	// (old) active one, its sealed size otherwise.
	validSize := t.segs[keep].size
	if keep == len(t.segs)-1 {
		validSize = t.flushed
	}
	for _, g := range t.segs[keep+1:] {
		_ = removeSegment(g)
	}
	t.segs = t.segs[:keep+1]
	g := t.active()
	// Locate the byte position of off inside the now-active segment and cut
	// there.
	pos, err := t.posOfLocked(g, off, validSize)
	if err != nil {
		return err
	}
	if err := os.Truncate(g.path, pos); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	n := 0
	for _, e := range g.idx {
		if e.Off < off && e.Pos < pos {
			n++
		} else {
			break
		}
	}
	g.idx = g.idx[:n]
	if err := writeIndex(g); err != nil {
		return fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	t.next = off
	t.flushedNext = off
	t.size, t.flushed = pos, pos
	g.size, g.records = pos, 0
	t.lastIdxPos = -1
	if n > 0 {
		t.lastIdxPos = g.idx[n-1].Pos
	}
	if err := t.openWriter(); err != nil {
		return err
	}
	if err := t.syncLocked(); err != nil {
		return err
	}
	t.updateGaugesLocked()
	return nil
}

// posOfLocked scans from the nearest index entry to the byte position of
// the frame holding logical offset off within segment g, whose valid byte
// size the caller supplies (off == the segment's end offset yields size).
func (t *Topic) posOfLocked(g *segment, off, size int64) (int64, error) {
	e := g.seekEntryOff(off)
	f, err := os.Open(g.path)
	if err != nil {
		return 0, fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	defer f.Close()
	if _, err := f.Seek(e.Pos, io.SeekStart); err != nil {
		return 0, fmt.Errorf("seglog: topic %q: %w", t.name, err)
	}
	sc := newFrameScanner(f, e.Pos)
	cur := e.Off
	for cur < off {
		if sc.pos >= size {
			return 0, fmt.Errorf("seglog: topic %q: offset %d not found in %s", t.name, off, g.path)
		}
		if _, _, _, ok, err := sc.next(); err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("unexpected end of segment")
			}
			return 0, fmt.Errorf("seglog: topic %q: locate offset %d: %w", t.name, off, err)
		}
		cur++
	}
	return sc.pos, nil
}

// close syncs and closes the topic's writer (store Close path).
func (t *Topic) close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	err := t.syncLocked()
	if cerr := t.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if cerr := t.closeIndexLocked(); err == nil && cerr != nil {
		err = cerr
	}
	t.closed = true
	return err
}

// segmentByPath resolves a segment by its file path plus the frozen valid
// size readers may consume, copying the index so readers iterate without
// the lock.
func (t *Topic) segmentByPath(path string) (seg segment, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, g := range t.segs {
		if g.path == path {
			seg = segment{base: g.base, path: g.path, size: g.size, records: g.records}
			if i == len(t.segs)-1 {
				seg.size = t.flushed
			}
			seg.idx = append([]indexEntry(nil), g.idx...)
			return seg, true
		}
	}
	return segment{}, false
}

// tailView reports the segment holding logical offset off (a copy with its
// index, so the reader iterates without the lock), for the tail reader.
// Only flushed records count as visible: ok=false when off is at or past
// the visible head; an error when off was already dropped by retention.
func (t *Topic) tailView(off int64) (seg segment, ok bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if off >= t.flushedNext {
		return segment{}, false, nil
	}
	if off < t.segs[0].base {
		return segment{}, false, fmt.Errorf("seglog: topic %q: offset %d already dropped by retention (oldest is %d)", t.name, off, t.segs[0].base)
	}
	idx := len(t.segs) - 1
	for i, g := range t.segs {
		last := t.flushedNext
		if i < len(t.segs)-1 {
			last = g.base + g.records
		}
		if off >= g.base && off < last {
			idx = i
			break
		}
	}
	g := t.segs[idx]
	seg = segment{base: g.base, path: g.path, size: g.size, records: g.records}
	seg.idx = append([]indexEntry(nil), g.idx...)
	if idx == len(t.segs)-1 {
		seg.size = t.flushed
	}
	return seg, true, nil
}

// visibleState reports the visibility watermarks and the active segment's
// base, cheaply (no index copy) — the tail reader's fast-path check.
func (t *Topic) visibleState() (flushed, flushedNext, activeBase int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushed, t.flushedNext, t.active().base
}

// scanned feeds the per-topic read counters (called by readers).
func (t *Topic) scanned(records, bytes int64) {
	if records != 0 {
		t.mScanR.Add(records)
	}
	if bytes != 0 {
		t.mScanB.Add(bytes)
	}
}
