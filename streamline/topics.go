package streamline

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/seglog"
	"repro/internal/state"
)

// Embedded history store: append-only segment-log topics. A TopicStore is a
// directory of topics; Persist writes a stream into one (exactly-once under
// checkpointing), Topic replays one as a bounded at-rest source — or, with
// WithFollow, as an unbounded source that replays the history and then tails
// new appends. Hybrid(Topic(store, "t"), Channel(live)) is the paper's
// bootstrap scenario with the history kept by the engine itself.

// ---- store -----------------------------------------------------------------

// TopicStore is a handle on a directory of segment-log topics. One store
// value owns each topic's single writer: open it once per process and share
// it between the Persist sinks and Topic sources that use it.
type TopicStore struct {
	s *seglog.Store
}

// TopicStoreOption configures an OpenTopicStore call.
type TopicStoreOption func(*seglog.Options)

// WithSegmentBytes rolls a topic's active segment when it reaches this size
// (default seglog.DefaultSegmentBytes). Smaller segments mean more splits
// for parallel replay and finer-grained retention.
func WithSegmentBytes(n int64) TopicStoreOption {
	return func(o *seglog.Options) { o.SegmentBytes = n }
}

// WithSegmentAge additionally rolls a non-empty active segment older than
// age (checked on append; 0 disables time-based roll).
func WithSegmentAge(age time.Duration) TopicStoreOption {
	return func(o *seglog.Options) { o.SegmentAge = age }
}

// WithRetention bounds each topic: the oldest sealed segments are deleted
// while the topic exceeds maxBytes total (0 = unlimited) or holds segments
// whose newest data is older than maxAge (0 = forever). The active segment
// is never deleted. Replaying offsets that retention has dropped fails
// loudly rather than silently skipping.
func WithRetention(maxBytes int64, maxAge time.Duration) TopicStoreOption {
	return func(o *seglog.Options) { o.RetainBytes, o.RetainAge = maxBytes, maxAge }
}

// FsyncPolicy picks when appended bytes are forced to disk; re-exported from
// the engine's segment log.
type FsyncPolicy = seglog.FsyncPolicy

const (
	// FsyncNever (the default) leaves durability to the OS; segment rolls,
	// store close and checkpoint syncs still fsync, so checkpointed offsets
	// are always durable. A crash may lose the unsynced tail — recovery
	// truncates the topic to its last valid record.
	FsyncNever = seglog.FsyncNever
	// FsyncAlways syncs after every append: no loss window, slowest.
	FsyncAlways = seglog.FsyncAlways
	// FsyncInterval syncs at most once per WithFsync interval, bounding the
	// loss window by time.
	FsyncInterval = seglog.FsyncInterval
)

// WithFsync sets the store's durability policy. every is the FsyncInterval
// period (ignored by the other policies; <= 0 uses the default).
func WithFsync(policy FsyncPolicy, every time.Duration) TopicStoreOption {
	return func(o *seglog.Options) { o.Fsync, o.FsyncEvery = policy, every }
}

// OpenTopicStore opens (creating if needed) a segment-log topic store rooted
// at dir. Existing topics recover on first use: a torn tail left by a crash
// is truncated to the last valid record and the sparse index is rebuilt.
func OpenTopicStore(dir string, opts ...TopicStoreOption) (*TopicStore, error) {
	var o seglog.Options
	for _, opt := range opts {
		opt(&o)
	}
	s, err := seglog.Open(dir, o)
	if err != nil {
		return nil, err
	}
	return &TopicStore{s: s}, nil
}

// Dir returns the store's root directory.
func (ts *TopicStore) Dir() string { return ts.s.Dir() }

// Topics lists the store's topic names, sorted.
func (ts *TopicStore) Topics() ([]string, error) { return ts.s.Topics() }

// Metrics returns the store's registry: per-topic append/scan counters and
// segment/size gauges under "topic.<name>.".
func (ts *TopicStore) Metrics() *metrics.Registry { return ts.s.Metrics() }

// Store exposes the underlying segment log (diagnostics and direct access).
func (ts *TopicStore) Store() *seglog.Store { return ts.s }

// Close flushes and closes every open topic.
func (ts *TopicStore) Close() error { return ts.s.Close() }

// ---- topic source ----------------------------------------------------------

// TopicOption configures a Topic source.
type TopicOption interface{ applyTopic(*topicConfig) }

type topicConfig struct {
	splitSize int64
	follow    bool
}

type topicOptionFunc func(*topicConfig)

func (f topicOptionFunc) applyTopic(c *topicConfig) { f(c) }

// WithFollow switches a Topic source from bounded replay to follow mode: it
// replays the history frozen at job start, emits the handoff watermark, then
// tails records appended after the freeze — an unbounded source. Follow mode
// runs at source parallelism 1 (the history replay still uses splits within
// that subtask's plan; the tail is a single ordered cursor).
func WithFollow() TopicOption {
	return topicOptionFunc(func(c *topicConfig) { c.follow = true })
}

// Topic returns a source replaying a segment-log topic's records, decoded
// from JSON into T with their stored event timestamps and keys. Each payload
// decodes as json.Unmarshal into a zero T would, errors included, however it
// was appended; a T made of scalar and string fields decodes through a plan
// compiled once per reader instead of reflection (see "Topics" in the
// package documentation for the types that qualify). The replay
// is bounded by the topic's visible end at planning time (a frozen view):
// segments are chopped into byte-range splits (WithSplitSize) assigned
// dynamically to the stage's subtasks, exactly like the file scans —
// snapshots record (split, offset), recovery seeks, and a restore may run at
// a different source parallelism. WithFollow makes the source unbounded:
// history first, then the growing tail.
func Topic[T any](store *TopicStore, topic string, opts ...TopicOption) Source[T] {
	var cfg topicConfig
	for _, o := range opts {
		o.applyTopic(&cfg)
	}
	return &topicSource[T]{store: store, topic: topic, cfg: cfg}
}

type topicSource[T any] struct {
	store *TopicStore
	topic string
	cfg   topicConfig
	state *topicScanState
}

// topicScanState is the per-stage shared state of one topic replay: the
// split assigner over the frozen view, and the view's end offset — where a
// follow-mode tail starts.
type topicScanState struct {
	plan *dataflow.ScanPlan
	end  atomic.Int64 // next-offset of the frozen view; -1 until planned
}

func (t *topicSource[T]) newState() *topicScanState {
	st := &topicScanState{}
	st.end.Store(-1)
	split := t.cfg.splitSize
	if split <= 0 {
		split = DefaultSplitSize
	}
	st.plan = &dataflow.ScanPlan{SplitSize: split, FixedSplits: func() ([]dataflow.Split, error) {
		tp, err := t.store.s.Topic(t.topic)
		if err != nil {
			return nil, err
		}
		v, err := tp.View()
		if err != nil {
			return nil, err
		}
		var splits []dataflow.Split
		for _, g := range v.Segments {
			splits = dataflow.TileSplits(splits, g.Path, g.Bytes, split)
		}
		st.end.Store(v.Next)
		return splits, nil
	}}
	return st
}

// openShared implements sharedOpener: the stage's slot holds the shared scan
// state, like the file connectors' plan.
func (t *topicSource[T]) openShared(slot *any, sub, par int) Reader[T] {
	if sub == 0 || *slot == nil {
		*slot = t.newState()
	}
	return t.open((*slot).(*topicScanState), sub, par)
}

func (t *topicSource[T]) Open(sub, par int) Reader[T] {
	// Direct-use fallback; see jsonlSource.Open.
	if sub == 0 || t.state == nil {
		t.state = t.newState()
	}
	return t.open(t.state, sub, par)
}

// PreferredParallelism implements ParallelismHinter: a follow-mode tail is a
// single cursor, so the stage defaults to one subtask; bounded replay leaves
// the choice to the environment (splits spread across any parallelism).
func (t *topicSource[T]) PreferredParallelism() int {
	if t.cfg.follow {
		return 1
	}
	return 0
}

func (t *topicSource[T]) open(st *topicScanState, sub, par int) Reader[T] {
	dec := newJSONDecoder[T]()
	scan := &dataflow.SplitScanSource{
		Plan: st.plan, Subtask: sub, Parallelism: par,
		Reader: &topicSplitReader[T]{store: t.store, topic: t.topic, dec: dec},
	}
	hist := &funcReader[T]{src: scan}
	if !t.cfg.follow {
		return hist
	}
	if par > 1 {
		return &errReader[T]{err: fmt.Errorf(
			"streamline: topic %q: follow mode runs at source parallelism 1, got %d (drop WithSourceParallelism or WithFollow)",
			t.topic, par)}
	}
	return &topicFollowReader[T]{
		store: t.store, topic: t.topic, st: st, hist: hist, dec: dec,
		end: -1, tailOff: -1,
	}
}

// followPoll is how long a followed topic's tail backs off once caught up.
const followPoll = 10 * time.Millisecond

// errReader fails a misconfigured source: Next ends the stream immediately
// and Err surfaces the reason when the runtime inspects it at end of stream.
type errReader[T any] struct {
	err error
}

func (r *errReader[T]) Next() (Keyed[T], ReadStatus) { return Keyed[T]{}, ReadEnd }
func (r *errReader[T]) Snapshot() ([]byte, error)    { return nil, r.err }
func (r *errReader[T]) Restore([]byte) error         { return r.err }
func (r *errReader[T]) Err() error                   { return r.err }

// topicSplitReader adapts a seglog topic to the engine's SplitReader: splits
// address (segment path, byte range), resume positions are logical offsets.
type topicSplitReader[T any] struct {
	store   *TopicStore
	topic   string
	dec     jsonDecoder[T]
	rr      *seglog.RangeReader
	lastPos int64
	box     dataflow.Boxer[T]
}

func (r *topicSplitReader[T]) OpenSplit(sp dataflow.Split, resumeAt int64) error {
	if r.rr != nil {
		r.rr.Close()
		r.rr = nil
	}
	tp, err := r.store.s.Topic(r.topic)
	if err != nil {
		return err
	}
	rr, err := tp.OpenRange(sp.Path, sp.Start, sp.End, resumeAt)
	if err != nil {
		return err
	}
	r.rr = rr
	r.lastPos = rr.BytePos()
	return nil
}

func (r *topicSplitReader[T]) NextInSplit() (dataflow.Record, bool, error) {
	rec, ok, err := r.rr.Next()
	if err != nil || !ok {
		return dataflow.Record{}, false, err
	}
	v, err := r.dec.decode(rec.Payload)
	if err != nil {
		return dataflow.Record{}, false, fmt.Errorf("topic %q offset %d: decode %s: %w", r.topic, rec.Offset, typeName[T](), err)
	}
	return dataflow.Data(rec.Ts, rec.Key, r.box.Box(v)), true, nil
}

func (r *topicSplitReader[T]) Pos() int64 {
	return r.rr.Pos()
}

func (r *topicSplitReader[T]) Bytes() int64 {
	if r.rr == nil {
		return 0
	}
	cur := r.rr.BytePos()
	n := cur - r.lastPos
	r.lastPos = cur
	return n
}

func (r *topicSplitReader[T]) Close() error {
	if r.rr == nil {
		return nil
	}
	err := r.rr.Close()
	r.rr = nil
	return err
}

// topicFollowReader is the follow-mode reader: a splittable history replay
// over the frozen view, a handoff watermark at the history's max event time,
// then an ordered tail from the view's end — the hybrid shape with both
// phases served by one topic.
type topicFollowReader[T any] struct {
	store *TopicStore
	topic string
	st    *topicScanState
	hist  Reader[T]
	dec   jsonDecoder[T]
	tr    *seglog.TailReader

	inTail   bool
	caughtUp bool  // the tail's last read found nothing: the next call backs off first
	end      int64 // tail start = frozen view's next-offset; -1 until known
	tailOff  int64 // next offset the tail reads; -1 until the handoff
	maxTs    int64
	haveTs   bool
	err      error
	clk      clock.Clock     // the job's, from OpenSource (nil: clock.Real)
	done     <-chan struct{} // the run's, from OpenSource: ends a back-off
	backoff  clock.Timer     // one per reader, reset for every back-off
}

func (r *topicFollowReader[T]) fail(err error) (Keyed[T], ReadStatus) {
	r.err = err
	return Keyed[T]{}, ReadEnd
}

func (r *topicFollowReader[T]) Next() (Keyed[T], ReadStatus) {
	if r.err != nil {
		return Keyed[T]{}, ReadEnd
	}
	if !r.inTail {
		k, st := r.hist.Next()
		switch st {
		case ReadData:
			if k.Ts > r.maxTs || !r.haveTs {
				r.maxTs, r.haveTs = k.Ts, true
			}
			return k, ReadData
		case ReadWatermark, ReadIdle, ReadHandoff:
			return k, st
		}
		// History replay finished — or failed; a failed history ends the
		// stream (the runtime inspects Err at end of stream) instead of
		// tailing forever past a truncated replay.
		if readerErr(r.hist) != nil {
			return Keyed[T]{}, ReadEnd
		}
		// Hand off to the tail in this same call, like hybridReader: a
		// checkpoint can never fall between the phase switch and the signal.
		r.inTail = true
		if r.end < 0 {
			r.end = r.st.end.Load()
		}
		if r.tailOff < 0 {
			r.tailOff = r.end
		}
		ts := int64(minInt64)
		if r.haveTs {
			ts = r.maxTs
		}
		return Keyed[T]{Ts: ts}, ReadHandoff
	}
	if r.tr == nil {
		tp, err := r.store.s.Topic(r.topic)
		if err != nil {
			return r.fail(err)
		}
		tr, err := tp.ReadFrom(r.tailOff)
		if err != nil {
			return r.fail(err)
		}
		r.tr = tr
	}
	if r.caughtUp {
		// The last read found the visible end: back off before reading
		// again. ReadIdle came first, so nothing staged waited behind this.
		select {
		case <-clock.Reset(r.clk, &r.backoff, followPoll):
		case <-r.done:
			r.backoff.Stop()
			return Keyed[T]{}, ReadIdle
		}
		r.caughtUp = false
	}
	rec, ok, err := r.tr.Next()
	if err != nil {
		return r.fail(err)
	}
	if !ok {
		r.caughtUp = true
		return Keyed[T]{}, ReadIdle
	}
	r.tailOff = r.tr.Pos()
	v, err := r.dec.decode(rec.Payload)
	if err != nil {
		return r.fail(fmt.Errorf("topic %q offset %d: decode %s: %w", r.topic, rec.Offset, typeName[T](), err))
	}
	return Keyed[T]{Ts: rec.Ts, Key: rec.Key, Value: v}, ReadData
}

// CanHandoff marks the reader as a ReadHandoff emitter (stage-wide handoff
// watermark tracking).
func (r *topicFollowReader[T]) CanHandoff() bool { return true }

// CrossedHandoff reports whether the reader is past the history phase.
func (r *topicFollowReader[T]) CrossedHandoff() bool { return r.inTail }

// MayWait reports whether the next Next backs off: the tail's last read found
// nothing.
func (r *topicFollowReader[T]) MayWait() bool { return r.caughtUp }

// Unordered reports the history scan's contract while replaying; the tail
// emits in append order.
func (r *topicFollowReader[T]) Unordered() bool {
	if !r.inTail {
		return readerUnordered(r.hist)
	}
	return false
}

func (r *topicFollowReader[T]) Snapshot() ([]byte, error) {
	// The history snapshot forces planning (the scan signature), so the
	// frozen view's end is always known by the time it is read below.
	hist, err := r.hist.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("topic %q history snapshot: %w", r.topic, err)
	}
	end := r.end
	if end < 0 {
		end = r.st.end.Load()
	}
	tailOff := r.tailOff
	if tailOff < 0 {
		tailOff = end
	}
	// The phase flag, the frozen view's end, the tail offset, the maximum
	// timestamp and its flag, then the history scan's blob.
	b := binary.AppendVarint(binary.AppendVarint(state.AppendBool(nil, r.inTail), end), tailOff)
	return state.AppendBytes(state.AppendBool(binary.AppendVarint(b, r.maxTs), r.haveTs), hist), nil
}

func (r *topicFollowReader[T]) Restore(blob []byte) error {
	return r.RestoreAll(0, 1, map[int][]byte{0: blob})
}

// RestoreAll implements MultiRestorer. Follow mode runs single-subtask, but
// the aggregation mirrors hybridReader's for robustness: the stage re-enters
// the history phase unless every snapshotted subtask had crossed the
// handoff, and the tail resumes at the furthest recorded offset.
func (r *topicFollowReader[T]) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	hist := make(map[int][]byte, len(blobs))
	allTail := true
	end, tailOff := int64(-1), int64(-1)
	var maxTs int64
	haveTs := false
	for sub, blob := range blobs {
		c := state.Cursor{B: blob} // as Snapshot wrote it
		tail, sEnd, sTailOff, sMaxTs, sHaveTs := c.Bool(), c.Varint(), c.Varint(), c.Varint(), c.Bool()
		if hist[sub] = c.Bytes(); c.Done() != nil {
			return fmt.Errorf("topic %q restore: %w", r.topic, c.Err)
		}
		allTail = allTail && tail
		end, tailOff = max(end, sEnd), max(tailOff, sTailOff)
		if sHaveTs && (!haveTs || sMaxTs > maxTs) {
			maxTs, haveTs = sMaxTs, true
		}
	}
	if err := restoreReaderAll(r.hist, subtask, parallelism, hist); err != nil {
		return fmt.Errorf("topic %q history restore: %w", r.topic, err)
	}
	r.inTail = allTail
	r.end, r.tailOff = end, tailOff
	r.maxTs, r.haveTs = maxTs, haveTs
	r.err, r.tr, r.caughtUp = nil, nil, false
	return nil
}

// OpenSource takes the job's clock and the run's end, and forwards ctx to
// the history scan.
func (r *topicFollowReader[T]) OpenSource(ctx *dataflow.OpContext) {
	r.clk, r.done = ctx.Clock, ctx.Done
	openReader(r.hist, ctx)
}

func (r *topicFollowReader[T]) Err() error {
	if r.err != nil {
		return r.err
	}
	return readerErr(r.hist)
}

// ---- persist sink ----------------------------------------------------------

// Persist terminates the stream into a segment-log topic: every record is
// appended as one JSON document, json.Marshal's bytes for the element (see
// the package doc for the types that skip reflection), with its event
// timestamp and key, replayable later with Topic or by anything that reads
// JSON. The sink runs at parallelism 1 (one writer per topic), appends each
// run under one topic lock, and participates in checkpointing: each
// snapshot syncs the topic and records its high-water offset, and a restore
// truncates the topic back to that offset before appending — records
// written after the checkpoint are not duplicated (the no-double-append
// contract). Exactly-once therefore holds within a checkpoint/restore
// lineage; a re-run from scratch appends after the topic's existing records.
func Persist[T any](s *Stream[T], store *TopicStore, topic string) {
	encode := newJSONEncoder[T]()
	s.terminal("persist("+topic+")", func() dataflow.Operator {
		return &persistOp{store: store.s, topic: topic, encode: encode}
	})
}

// persistOp is the stateful sink operator behind Persist.
type persistOp struct {
	dataflow.Base
	store  *seglog.Store
	topic  string
	encode func(b []byte, v any) ([]byte, error) // appends v's payload
	t      *seglog.Topic
	buf    []byte         // the run's payloads, reused
	run    []seglog.Entry // the run, reused; payloads alias buf
	err    error
}

func (p *persistOp) Open(ctx *dataflow.OpContext) error {
	t, err := p.store.Topic(p.topic)
	if err != nil {
		return err
	}
	p.t = t
	if len(ctx.Restore) > 0 {
		off, err := decodeCursor(ctx.Restore)
		if err != nil {
			return fmt.Errorf("persist %q: restore: %w", p.topic, err)
		}
		// Drop whatever was appended after the checkpoint: the replayed
		// records are about to be appended again.
		if err := t.TruncateTo(off); err != nil {
			return fmt.Errorf("persist %q: truncate to checkpointed offset %d: %w", p.topic, off, err)
		}
	}
	return nil
}

// OnBatch encodes the run, then appends it in order. When record k fails to
// encode, records before k are appended and nothing more is written: the
// topic must not hold records past a gap.
func (p *persistOp) OnBatch(b []dataflow.Record, _ dataflow.Collector) []dataflow.Record {
	if p.err != nil {
		return nil
	}
	p.buf, p.run = p.buf[:0], p.run[:0]
	var encErr error
	for _, r := range b {
		start := len(p.buf)
		if p.buf, encErr = p.encode(p.buf, r.Value); encErr != nil {
			encErr = fmt.Errorf("persist %q: encode: %w", p.topic, encErr)
			break
		}
		// A slice of an outgrown buffer keeps its bytes: append copies.
		p.run = append(p.run, seglog.Entry{Ts: r.Ts, Key: r.Key, Payload: p.buf[start:]})
	}
	if len(p.run) > 0 {
		if _, err := p.t.AppendRun(p.run); err != nil {
			p.err = fmt.Errorf("persist %q: %w", p.topic, err)
		}
	}
	if p.err == nil {
		p.err = encErr
	}
	return nil
}

// Err implements dataflow.Failable: a sink has no mid-stream error channel,
// so a failed encode, append or final sync fails the job here, at end of
// stream, and at the next checkpoint through Snapshot.
func (p *persistOp) Err() error { return p.err }

// Snapshot syncs the topic and records its high-water offset.
func (p *persistOp) Snapshot() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	if err := p.t.Sync(); err != nil {
		return nil, fmt.Errorf("persist %q: sync: %w", p.topic, err)
	}
	return encodeCursor(p.t.NextOffset())
}

func (p *persistOp) Finish(out dataflow.Collector) {
	if p.err != nil {
		return
	}
	if err := p.t.Sync(); err != nil {
		p.err = fmt.Errorf("persist %q: sync: %w", p.topic, err)
	}
}
