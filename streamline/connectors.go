package streamline

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/state"
)

// Built-in connectors. Each returns a Source[T] for From; they compose —
// Hybrid(JSONL[...](path), Channel(live)) is a pipeline bootstrapped from a
// file of history and continued on a live channel, and Paced(src, rate)
// throttles any connector into a live-stream simulation.

// ---- slices (data at rest) ------------------------------------------------

// Slice returns a bounded in-memory source (data at rest). Element i
// carries event timestamp i; keys are assigned by a later KeyBy (or a
// WithTimestamps option). Elements are split round-robin across subtasks.
func Slice[T any](items []T) Source[T] {
	return sliceSource[T]{make: func(i int64) Keyed[T] { return Keyed[T]{Ts: i, Value: items[i]} }, n: int64(len(items))}
}

// KeyedSlice returns a bounded in-memory source of records carrying
// explicit timestamps and keys, split round-robin across subtasks.
func KeyedSlice[T any](items []Keyed[T]) Source[T] {
	return sliceSource[T]{make: func(i int64) Keyed[T] { return items[i] }, n: int64(len(items))}
}

type sliceSource[T any] struct {
	make func(i int64) Keyed[T]
	n    int64
}

func (s sliceSource[T]) Open(sub, par int) Reader[T] {
	return &sliceReader[T]{src: s, idx: int64(sub), stride: int64(par)}
}

// sliceReader walks the global indices of one subtask's round-robin share.
type sliceReader[T any] struct {
	src    sliceSource[T]
	idx    int64 // next global index
	stride int64
}

func (r *sliceReader[T]) Next() (Keyed[T], ReadStatus) {
	if r.idx >= r.src.n {
		return Keyed[T]{}, ReadEnd
	}
	k := r.src.make(r.idx)
	r.idx += r.stride
	return k, ReadData
}

func (r *sliceReader[T]) Snapshot() ([]byte, error) { return encodeCursor(r.idx) }

func (r *sliceReader[T]) Restore(blob []byte) error {
	idx, err := decodeCursor(blob)
	if err != nil {
		return err
	}
	r.idx = idx
	return nil
}

// ---- generators (at rest or in motion, by count) --------------------------

// Generator returns a deterministic generator source. count < 0 makes it
// unbounded (data in motion); otherwise it is a bounded source that ends —
// the same plan either way. gen computes the i-th record of the given
// subtask; a bounded count is split across subtasks.
func Generator[T any](count int64, gen func(subtask, parallelism int, i int64) Keyed[T]) Source[T] {
	return generatorSource[T]{count: count, gen: gen}
}

type generatorSource[T any] struct {
	count int64
	gen   func(sub, par int, i int64) Keyed[T]
}

func (g generatorSource[T]) Open(sub, par int) Reader[T] {
	return &generatorReader[T]{
		n:   splitCount(g.count, sub, par),
		gen: func(i int64) Keyed[T] { return g.gen(sub, par, i) },
	}
}

// splitCount divides a bounded record count across parallelism subtasks,
// handing the remainder to the lowest subtask indices. Non-positive counts
// (unbounded or empty sources) pass through unchanged.
func splitCount(count int64, subtask, parallelism int) int64 {
	if count <= 0 {
		return count
	}
	c := count / int64(parallelism)
	if int64(subtask) < count%int64(parallelism) {
		c++
	}
	return c
}

type generatorReader[T any] struct {
	n   int64
	gen func(i int64) Keyed[T]
	idx int64
}

func (r *generatorReader[T]) Next() (Keyed[T], ReadStatus) {
	if r.n >= 0 && r.idx >= r.n {
		return Keyed[T]{}, ReadEnd
	}
	k := r.gen(r.idx)
	r.idx++
	return k, ReadData
}

func (r *generatorReader[T]) Snapshot() ([]byte, error) { return encodeCursor(r.idx) }

func (r *generatorReader[T]) Restore(blob []byte) error {
	idx, err := decodeCursor(blob)
	if err != nil {
		return err
	}
	r.idx = idx
	return nil
}

// ---- pacing decorator -----------------------------------------------------

// Paced throttles any source to approximately perSec records per second per
// subtask (wall clock) — the live-stream simulation used by the latency
// experiments, now composable over every connector.
func Paced[T any](src Source[T], perSec float64) Source[T] {
	return pacedSource[T]{inner: src, perSec: perSec}
}

type pacedSource[T any] struct {
	inner  Source[T]
	perSec float64
}

func (p pacedSource[T]) Open(sub, par int) Reader[T] {
	return newPacedReader(p.inner.Open(sub, par), p.perSec)
}

// openShared implements sharedOpener by delegation: pacing owns no shared
// state, the slot passes straight to the inner connector.
func (p pacedSource[T]) openShared(slot *any, sub, par int) Reader[T] {
	return newPacedReader(openSourceShared(p.inner, slot, sub, par), p.perSec)
}

// PreferredParallelism implements ParallelismHinter by delegation: pacing
// does not change the inner connector's parallelism needs.
func (p pacedSource[T]) PreferredParallelism() int { return preferredParallelism(p.inner) }

type pacedReader[T any] struct {
	inner     Reader[T]
	innerWait waitProbe
	perSec    float64
	pacer     dataflow.Pacer
}

func newPacedReader[T any](inner Reader[T], perSec float64) *pacedReader[T] {
	return &pacedReader[T]{inner: inner, innerWait: probeWait(inner), perSec: perSec}
}

func (r *pacedReader[T]) Next() (Keyed[T], ReadStatus) {
	r.pacer.Wait(r.perSec)
	k, st := r.inner.Next()
	r.innerWait.saw(st)
	return k, st
}

func (r *pacedReader[T]) Snapshot() ([]byte, error) { return r.inner.Snapshot() }

// Restore re-anchors the pacing schedule: a restored source emits at perSec
// from the resume point, it does not sleep (or burst) to catch up with the
// pre-crash schedule.
func (r *pacedReader[T]) Restore(blob []byte) error {
	r.pacer.Reset()
	return r.inner.Restore(blob)
}

// RestoreAll implements MultiRestorer by delegation, re-anchoring pacing
// like Restore.
func (r *pacedReader[T]) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	r.pacer.Reset()
	return restoreReaderAll(r.inner, subtask, parallelism, blobs)
}

// OpenSource paces on the job's clock, until the run's end, and forwards ctx
// to the inner reader.
func (r *pacedReader[T]) OpenSource(ctx *dataflow.OpContext) {
	r.pacer.Clock, r.pacer.Done = ctx.Clock, ctx.Done
	openReader(r.inner, ctx)
}

// Unordered delegates the order contract to the inner reader.
func (r *pacedReader[T]) Unordered() bool { return readerUnordered(r.inner) }

// CanHandoff delegates the handoff capability to the inner reader.
func (r *pacedReader[T]) CanHandoff() bool { return readerCanHandoff(r.inner) }

// CrossedHandoff delegates the handoff progress to the inner reader.
func (r *pacedReader[T]) CrossedHandoff() bool { return readerCrossedHandoff(r.inner) }

// MayWait reports whether the next Next sleeps, its element not yet due, or
// waits in the inner reader.
func (r *pacedReader[T]) MayWait() bool { return !r.pacer.Due(r.perSec) || r.innerWait.mayWait() }

func (r *pacedReader[T]) Err() error { return readerErr(r.inner) }

// SourceLocalOnly delegates the local-only property to the inner reader.
func (r *pacedReader[T]) SourceLocalOnly() bool { return readerLocalOnly(r.inner) }

// ---- channels (data in motion) --------------------------------------------

// Channel returns a live in-motion source fed by a Go channel; closing the
// channel ends the stream. Subtasks would share the channel (each record
// consumed by exactly one) and a subtask that never receives a record would
// pin downstream event time at -inf, so the connector hints parallelism 1
// (ParallelismHinter) and From runs it single-subtask unless
// WithSourceParallelism overrides.
//
// A channel cannot be replayed: records consumed before a crash are not
// re-emitted after recovery (operator state remains exactly-once).
// Bootstrapping from replayable history belongs to Hybrid.
func Channel[T any](c <-chan Keyed[T]) Source[T] {
	return channelSource[T]{c: c}
}

type channelSource[T any] struct {
	c <-chan Keyed[T]
}

func (s channelSource[T]) Open(sub, par int) Reader[T] {
	return &channelReader[T]{c: s.c}
}

// channelPoll is how long a Channel reader waits before it reports ReadIdle.
const channelPoll = 25 * time.Millisecond

// PreferredParallelism implements ParallelismHinter: a shared channel only
// keeps event time sound with a single subtask.
func (channelSource[T]) PreferredParallelism() int { return 1 }

type channelReader[T any] struct {
	c       <-chan Keyed[T]
	emitted int64
	clk     clock.Clock     // the job's, from OpenSource (nil: clock.Real)
	done    <-chan struct{} // the run's, from OpenSource: ends an idle wait
	idle    clock.Timer     // one per reader, reset for every idle wait
}

func (r *channelReader[T]) Next() (Keyed[T], ReadStatus) {
	// Fast path: a busy producer keeps the channel non-empty, so the idle
	// timer is only armed when it is actually needed.
	select {
	case k, ok := <-r.c:
		return r.received(k, ok)
	default:
	}
	idle := clock.Reset(r.clk, &r.idle, channelPoll)
	select {
	case k, ok := <-r.c:
		r.idle.Stop()
		return r.received(k, ok)
	case <-idle:
		return Keyed[T]{}, ReadIdle
	case <-r.done:
		r.idle.Stop()
		return Keyed[T]{}, ReadIdle
	}
}

// OpenSource takes the job's clock for the idle poll and the run's end.
func (r *channelReader[T]) OpenSource(ctx *dataflow.OpContext) { r.clk, r.done = ctx.Clock, ctx.Done }

func (r *channelReader[T]) received(k Keyed[T], ok bool) (Keyed[T], ReadStatus) {
	if !ok {
		return Keyed[T]{}, ReadEnd
	}
	r.emitted++
	return k, ReadData
}

// MayWait reports an empty channel, on which Next waits up to channelPoll.
func (r *channelReader[T]) MayWait() bool { return len(r.c) == 0 }

// SourceLocalOnly marks the reader as bound to this process: its feeding
// channel has no existence in a worker, so distributed placement pins the
// source node to the coordinator.
func (r *channelReader[T]) SourceLocalOnly() bool { return true }

func (r *channelReader[T]) Snapshot() ([]byte, error) { return encodeCursor(r.emitted) }

func (r *channelReader[T]) Restore(blob []byte) error {
	n, err := decodeCursor(blob)
	if err != nil {
		return err
	}
	r.emitted = n
	return nil
}

// ---- files (data at rest) -------------------------------------------------

// FileOption configures a file connector (JSONL, CSV).
type FileOption interface{ applyFile(*fileConfig) }

type fileConfig struct {
	splitSize int64
}

type fileOptionFunc func(*fileConfig)

func (f fileOptionFunc) applyFile(c *fileConfig) { f(c) }

// splitSizeOption configures the split length of both the file connectors
// and the Topic source — one option value satisfying both option interfaces.
type splitSizeOption int64

func (o splitSizeOption) applyFile(c *fileConfig)   { c.splitSize = int64(o) }
func (o splitSizeOption) applyTopic(c *topicConfig) { c.splitSize = int64(o) }

// WithSplitSize sets the target byte-range split length of a splittable
// connector — the file connectors (JSONL, CSV) and the Topic source alike
// (default streamline.DefaultSplitSize). Smaller splits spread a few inputs
// across more subtasks and tighten the re-read window after a recovery;
// larger splits amortize per-split open/seek overhead. Purely physical: the
// records produced are identical at every split size.
func WithSplitSize(bytes int64) interface {
	FileOption
	TopicOption
} {
	return splitSizeOption(bytes)
}

// DefaultSplitSize is the split length of file connectors that do not choose
// one, re-exported from the engine.
const DefaultSplitSize = dataflow.DefaultSplitSize

func resolveFileOpts(opts []FileOption) fileConfig {
	var cfg fileConfig
	for _, o := range opts {
		o.applyFile(&cfg)
	}
	return cfg
}

// JSONL returns a bounded source reading one JSON document per line from
// files at rest, decoded into T with encoding/json's semantics: every line
// yields what json.Unmarshal into a zero T yields, errors included, and a T
// made of scalar and string fields decodes through a plan compiled once per
// reader instead of reflection (see "Topics" in the package documentation).
// input is a single file, a directory (all regular files inside), or a glob
// pattern. Blank lines are skipped. Records default to their byte offset in
// their file as event timestamp — pair with WithTimestamps to extract real
// event time.
//
// The scan is splittable: files are chopped into newline-aligned byte-range
// splits (WithSplitSize) that a shared assigner hands to the stage's
// subtasks dynamically, so the scan speeds up near-linearly with source
// parallelism and skewed file sizes cannot idle workers. Snapshots record
// (split, byte offset); recovery Seeks to the position — O(remaining split),
// not O(file) — and may restore at a different source parallelism, with the
// pending splits redistributed.
func JSONL[T any](input string, opts ...FileOption) Source[T] {
	cfg := resolveFileOpts(opts)
	return &scanSource[T, *dataflow.ScanPlan]{
		fresh: func() *dataflow.ScanPlan {
			return &dataflow.ScanPlan{Inputs: []string{input}, SplitSize: cfg.splitSize}
		},
		reader: func(plan *dataflow.ScanPlan, sub, par int) Reader[T] {
			dec := newJSONDecoder[T]()
			var box dataflow.Boxer[T]
			return newScanReader[T](plan, sub, par, &dataflow.LineReader{
				Decode: func(line []byte, off int64) (dataflow.Record, bool, error) {
					if len(bytes.TrimSpace(line)) == 0 {
						return dataflow.Record{}, false, nil
					}
					v, err := dec.decode(line)
					if err != nil {
						return dataflow.Record{}, false, fmt.Errorf("decode %s: %w", typeName[T](), err)
					}
					return dataflow.Data(off, 0, box.Box(v)), true, nil
				},
			})
		},
	}
}

// CSV returns a bounded source reading rows from CSV files at rest, parsed
// into T with the given row parser (rows may vary in width). input is a
// single file, a directory, or a glob pattern; skipHeader drops the first
// row of every file. Records default to their byte offset in their file as
// event timestamp — pair with WithTimestamps to extract real event time.
//
// The scan is splittable like JSONL's, with one safety valve: a CSV file is
// only chopped mid-file when it contains no quote characters, because a
// quoted field may span lines and make byte-range alignment ambiguous.
// Files with quotes scan as one split each (parallelism then comes from the
// file count); seek-based restore works either way, since snapshots record
// row boundaries.
func CSV[T any](input string, skipHeader bool, parse func(row []string) (T, error), opts ...FileOption) Source[T] {
	cfg := resolveFileOpts(opts)
	return &scanSource[T, *dataflow.ScanPlan]{
		fresh: func() *dataflow.ScanPlan {
			return &dataflow.ScanPlan{Inputs: []string{input}, SplitSize: cfg.splitSize, CSV: true}
		},
		reader: func(plan *dataflow.ScanPlan, sub, par int) Reader[T] {
			var box dataflow.Boxer[T]
			return newScanReader[T](plan, sub, par, &dataflow.CSVReader{
				Header: skipHeader,
				Decode: func(row []string, off int64) (dataflow.Record, error) {
					v, err := parse(row)
					if err != nil {
						return dataflow.Record{}, err
					}
					return dataflow.Data(off, 0, box.Box(v)), nil
				},
			})
		},
	}
}

// scanSource is the Source of the splittable connectors — JSONL, CSV and
// Topic. The subtasks of a stage open their readers over one shared state,
// the scan plan with its split queue, which fresh makes anew for every
// execution.
type scanSource[T, S any] struct {
	fresh  func() S
	reader func(st S, sub, par int) Reader[T]
	hint   int // PreferredParallelism
	direct any // the shared state of direct use (Open)
}

// openShared implements sharedOpener: the stage's slot holds the shared
// state, so the connector value itself stays reusable across environments.
// Subtask 0 is opened first (the runtime builds subtasks in order), so every
// execution starts from a freshly planned scan.
func (s *scanSource[T, S]) openShared(slot *any, sub, par int) Reader[T] {
	if sub == 0 || *slot == nil {
		*slot = s.fresh()
	}
	return s.reader((*slot).(S), sub, par)
}

// Open is the direct-use fallback: the connector holds the shared state
// itself, so one connector value serves one execution at a time; From's
// slot path lifts that restriction.
func (s *scanSource[T, S]) Open(sub, par int) Reader[T] { return s.openShared(&s.direct, sub, par) }

// PreferredParallelism implements ParallelismHinter.
func (s *scanSource[T, S]) PreferredParallelism() int { return s.hint }

// scanReader is the typed Reader of one subtask of a split scan. Its data
// records carry T payloads, boxed by the scan's decoder; every capability
// (failure reporting, multi-blob restore, scan metrics, order contract) is
// the scan's own.
type scanReader[T any] struct {
	src *dataflow.SplitScanSource
}

// newScanReader opens one subtask of the split scan of plan that r reads.
func newScanReader[T any](plan *dataflow.ScanPlan, sub, par int, r dataflow.SplitReader) *scanReader[T] {
	return &scanReader[T]{src: &dataflow.SplitScanSource{Plan: plan, Subtask: sub, Parallelism: par, Reader: r}}
}

func (s *scanReader[T]) Next() (Keyed[T], ReadStatus) {
	r, st := s.nextBoxed()
	if st != ReadData {
		return Keyed[T]{Ts: r.Ts}, st
	}
	return unbox[T](r), ReadData
}

// nextBoxed implements boxedReader: the scan's record as it is. A split
// scan emits data records only.
func (s *scanReader[T]) nextBoxed() (dataflow.Record, ReadStatus) {
	r, ok := s.src.Next()
	if !ok {
		return dataflow.Record{}, ReadEnd
	}
	return r, ReadData
}

// boxedReader is the inner method of a reader whose elements already exist
// in the engine's boxed form (it sits on an engine source, or forwards one
// that does): the source stage takes the record as it is instead of
// unboxing it to Keyed[T] and boxing it again. Statuses are Next's; for the
// control statuses only the record's Ts is meaningful.
type boxedReader interface {
	nextBoxed() (dataflow.Record, ReadStatus)
}

// asBoxed returns r's boxedReader side, nil when it has none.
func asBoxed(r any) boxedReader {
	b, _ := r.(boxedReader)
	return b
}

// boxedNext reads r's next element in boxed form: through b, r's own
// boxedReader side, when it has one, boxing Next's element with box
// otherwise.
func boxedNext[T any](r Reader[T], b boxedReader, box *dataflow.Boxer[T]) (dataflow.Record, ReadStatus) {
	if b != nil {
		return b.nextBoxed()
	}
	k, st := r.Next()
	if st != ReadData {
		return dataflow.Record{Ts: k.Ts}, st
	}
	return dataflow.Data(k.Ts, k.Key, box.Box(k.Value)), ReadData
}

func (s *scanReader[T]) Snapshot() ([]byte, error) { return s.src.Snapshot() }

func (s *scanReader[T]) Restore(blob []byte) error { return s.src.Restore(blob) }

// RestoreAll implements MultiRestorer: the scan redistributes the splits of
// every old subtask's blob.
func (s *scanReader[T]) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	return s.src.RestoreAll(subtask, parallelism, blobs)
}

// OpenSource hands the runtime's per-subtask context (metrics registry) to
// the scan.
func (s *scanReader[T]) OpenSource(ctx *dataflow.OpContext) { s.src.OpenSource(ctx) }

// Unordered reports that a split scan emits out of timestamp order: the
// source stage defers event time to the end-of-stream close-out instead of
// cadence watermarks.
func (s *scanReader[T]) Unordered() bool { return s.src.Unordered() }

func (s *scanReader[T]) Err() error { return s.src.Err() }

// ---- hybrid (at rest → in motion) -----------------------------------------

// Hybrid is the at-rest→in-motion handoff — the paper's headline scenario:
// replay a bounded history source, emit a handoff watermark at the
// history's max event timestamp the moment it ends, then atomically switch
// to the live source. One pipeline bootstraps from stored data and
// continues on the live stream, with no Lambda-style second system.
//
// Snapshots record the phase and both inner positions, so a checkpoint
// taken during replay restores into the history phase and still crosses
// the handoff exactly once. Live records must carry timestamps after the
// history's max; older ones are late relative to the handoff watermark.
func Hybrid[T any](history, live Source[T]) Source[T] {
	return hybridSource[T]{history: history, live: live}
}

type hybridSource[T any] struct {
	history, live Source[T]
}

func (h hybridSource[T]) Open(sub, par int) Reader[T] {
	return newHybridReader(h.history.Open(sub, par), h.live.Open(sub, par))
}

// hybridSlots carries the per-stage shared state of both hybrid phases.
type hybridSlots struct {
	history, live any
}

// openShared implements sharedOpener: each phase gets its own sub-slot.
func (h hybridSource[T]) openShared(slot *any, sub, par int) Reader[T] {
	if sub == 0 || *slot == nil {
		*slot = &hybridSlots{}
	}
	s := (*slot).(*hybridSlots)
	return newHybridReader(
		openSourceShared(h.history, &s.history, sub, par),
		openSourceShared(h.live, &s.live, sub, par))
}

// PreferredParallelism implements ParallelismHinter by delegation to the
// history phase: the handoff is the part that must scale, and a splittable
// history (JSONL, CSV) replays near-linearly with subtasks. The live phase
// no longer drags the stage to parallelism 1 when it is a Channel — after
// the handoff every subtask's event time is floored at its handoff
// watermark, so sharing the channel across subtasks cannot pin event time at
// -inf the way a bare Channel source can. Use WithSourceParallelism to pin
// the stage explicitly.
func (h hybridSource[T]) PreferredParallelism() int {
	return preferredParallelism(h.history)
}

type hybridReader[T any] struct {
	history, live Reader[T]
	historyBoxed  boxedReader // history's boxedReader side, if any
	historyWait   waitProbe   // told no status: an undeclared history never waits
	liveWait      waitProbe   // latches on the live half's ReadIdle
	inLive        bool        // past the handoff
	maxTs         int64
	haveTs        bool
	box           dataflow.Boxer[T] // boxes what a typed half returns
}

func newHybridReader[T any](history, live Reader[T]) *hybridReader[T] {
	return &hybridReader[T]{history: history, live: live, historyBoxed: asBoxed(history),
		historyWait: probeWait(history), liveWait: probeWait(live)}
}

// hybridReaderState is the hybrid's snapshot: the phase flag, the history
// maximum as a varint and a bool, then the history's and the live half's
// blobs.
type hybridReaderState struct {
	live         bool
	maxTs        int64
	haveTs       bool
	history, pos []byte
}

func readHybridState(blob []byte) (hybridReaderState, error) {
	c := state.Cursor{B: blob}
	s := hybridReaderState{c.Bool(), c.Varint(), c.Bool(), c.Bytes(), c.Bytes()}
	if err := c.Done(); err != nil {
		return s, fmt.Errorf("hybrid restore: %w", err)
	}
	return s, nil
}

func (h *hybridReader[T]) Next() (Keyed[T], ReadStatus) {
	if h.inLive {
		k, st := h.live.Next()
		h.liveWait.saw(st)
		return k, st
	}
	k, st := h.history.Next()
	k.Ts, st = h.historyStep(k.Ts, st)
	return k, st
}

// nextBoxed implements boxedReader: Next, with a history half that sits on
// an engine source (Topic, JSONL, CSV) forwarded in its boxed form.
func (h *hybridReader[T]) nextBoxed() (dataflow.Record, ReadStatus) {
	if h.inLive {
		r, st := boxedNext(h.live, nil, &h.box)
		h.liveWait.saw(st)
		return r, st
	}
	r, st := boxedNext(h.history, h.historyBoxed, &h.box)
	r.Ts, st = h.historyStep(r.Ts, st)
	return r, st
}

// historyStep folds one history-phase element (its timestamp and status)
// into the handoff bookkeeping and returns what the hybrid reports for it.
func (h *hybridReader[T]) historyStep(ts int64, st ReadStatus) (int64, ReadStatus) {
	switch st {
	case ReadData:
		if ts > h.maxTs || !h.haveTs {
			h.maxTs, h.haveTs = ts, true
		}
		return ts, st
	case ReadWatermark, ReadIdle, ReadHandoff:
		return ts, st
	}
	// A history that failed mid-stream ends the whole stream here instead of
	// handing off: the runtime only inspects Err at end of stream, and an
	// unbounded live phase would bury a truncated history forever.
	if readerErr(h.history) != nil {
		return 0, ReadEnd
	}
	// History exhausted: hand off. The switch and the handoff signal happen
	// in this one call, so a checkpoint can never fall between them. Ts
	// carries this subtask's own history maximum (minInt64 when its share was
	// empty — with dynamic split assignment a subtask may well replay
	// nothing); the runtime turns the signal into a stage-wide watermark
	// promise.
	h.inLive = true
	if h.haveTs {
		return h.maxTs, ReadHandoff
	}
	return minInt64, ReadHandoff
}

// CanHandoff marks the reader as a ReadHandoff emitter, opting the source
// stage into shared event-time tracking for the stage-wide handoff promise.
func (h *hybridReader[T]) CanHandoff() bool { return true }

// CrossedHandoff reports whether this subtask is past the handoff; its
// idle/cadence watermarks then track the stage clock, which the straggling
// subtasks keep pushing toward the global history maximum.
func (h *hybridReader[T]) CrossedHandoff() bool { return h.inLive }

// MayWait forwards the answer of the phase's reader: the history's while it
// replays (a paced history waits), the live half's from the handoff on. A live
// half that declares nothing (a wrapper that does not forward MayWait) is
// taken to wait from its first ReadIdle on, as it would be on its own.
func (h *hybridReader[T]) MayWait() bool {
	if h.inLive {
		return h.liveWait.mayWait()
	}
	return h.historyWait.mayWait()
}

func (h *hybridReader[T]) Snapshot() ([]byte, error) {
	hist, err := h.history.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("hybrid history snapshot: %w", err)
	}
	live, err := h.live.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("hybrid live snapshot: %w", err)
	}
	b := state.AppendBool(binary.AppendVarint(state.AppendBool(nil, h.inLive), h.maxTs), h.haveTs)
	return state.AppendBytes(state.AppendBytes(b, hist), live), nil
}

func (h *hybridReader[T]) Restore(blob []byte) error {
	s, err := readHybridState(blob)
	if err != nil {
		return err
	}
	if err := h.history.Restore(s.history); err != nil {
		return fmt.Errorf("hybrid history restore: %w", err)
	}
	if err := h.live.Restore(s.pos); err != nil {
		return fmt.Errorf("hybrid live restore: %w", err)
	}
	h.inLive, h.maxTs, h.haveTs = s.live, s.maxTs, s.haveTs
	return nil
}

// RestoreAll implements MultiRestorer: every subtask blob decomposes into
// the phase flag and the two inner positions, and each inner reader restores
// from its own node-wide blob set — so a hybrid over a splittable history
// rescales while the replay is still in flight. The restored phase is
// aggregated: the stage re-enters the history phase unless every old subtask
// had already crossed the handoff (then no history work remains), and the
// handoff watermark is re-derived from the maximum event time any subtask
// had seen. A live phase no subtask had entered restores fresh; live state
// that was already accumulating redistributes only if the live reader itself
// is a MultiRestorer (or the parallelism is unchanged).
func (h *hybridReader[T]) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	hist := make(map[int][]byte, len(blobs))
	live := make(map[int][]byte, len(blobs))
	allLive, anyLive := true, false
	var maxTs int64
	haveTs := false
	for sub, blob := range blobs {
		s, err := readHybridState(blob)
		if err != nil {
			return err
		}
		hist[sub] = s.history
		live[sub] = s.pos
		if s.live {
			anyLive = true
		} else {
			allLive = false
		}
		if s.haveTs && (!haveTs || s.maxTs > maxTs) {
			maxTs, haveTs = s.maxTs, true
		}
	}
	if err := restoreReaderAll(h.history, subtask, parallelism, hist); err != nil {
		return fmt.Errorf("hybrid history restore: %w", err)
	}
	if err := h.restoreLive(subtask, parallelism, live, anyLive); err != nil {
		return fmt.Errorf("hybrid live restore: %w", err)
	}
	h.inLive = allLive
	h.maxTs, h.haveTs = maxTs, haveTs
	return nil
}

// restoreLive restores the live half of a multi-blob recovery. While no old
// subtask had entered the live phase, the blobs hold only pre-start
// bookkeeping and the live reader starts fresh at the new parallelism;
// started means *any* subtask had crossed — its live state may hold
// consumed positions and must genuinely restore or fail.
func (h *hybridReader[T]) restoreLive(subtask, parallelism int, blobs map[int][]byte, started bool) error {
	if m, ok := h.live.(MultiRestorer); ok {
		return m.RestoreAll(subtask, parallelism, blobs)
	}
	blob, err := dataflow.PositionalBlob(subtask, parallelism, blobs)
	switch {
	case err == nil:
		return h.live.Restore(blob)
	case !started:
		return nil
	}
	return err
}

// OpenSource forwards the runtime's per-subtask context to both phases.
func (h *hybridReader[T]) OpenSource(ctx *dataflow.OpContext) {
	openReader(h.history, ctx)
	openReader(h.live, ctx)
}

// Unordered reports the order contract of the phase currently replaying.
func (h *hybridReader[T]) Unordered() bool {
	if !h.inLive {
		return readerUnordered(h.history)
	}
	return readerUnordered(h.live)
}

// SourceLocalOnly reports local-only when either phase is (the live half
// usually is a channel).
func (h *hybridReader[T]) SourceLocalOnly() bool {
	return readerLocalOnly(h.history) || readerLocalOnly(h.live)
}

func (h *hybridReader[T]) Err() error {
	if err := readerErr(h.history); err != nil {
		return err
	}
	return readerErr(h.live)
}

// readerErr returns the terminal error of a reader, if it reports one.
func readerErr[T any](r Reader[T]) error {
	if f, ok := r.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// readerUnordered reports a reader's order contract (false when it does not
// declare one — index-addressed readers emit in order).
func readerUnordered[T any](r Reader[T]) bool {
	if u, ok := r.(interface{ Unordered() bool }); ok {
		return u.Unordered()
	}
	return false
}

// openReader forwards the per-subtask OpContext to readers that accept one.
func openReader(r any, ctx *dataflow.OpContext) {
	if o, ok := r.(interface{ OpenSource(*dataflow.OpContext) }); ok {
		o.OpenSource(ctx)
	}
}

// restoreReaderAll restores one reader from the node-wide blob set:
// MultiRestorer readers redistribute, everything else falls back to the
// positional per-subtask Restore (dataflow.PositionalBlob).
func restoreReaderAll[T any](r Reader[T], subtask, parallelism int, blobs map[int][]byte) error {
	if m, ok := r.(MultiRestorer); ok {
		return m.RestoreAll(subtask, parallelism, blobs)
	}
	blob, err := dataflow.PositionalBlob(subtask, parallelism, blobs)
	if err != nil {
		return err
	}
	return r.Restore(blob)
}

// ---- cursor encoding ------------------------------------------------------

// encodeCursor serializes a single position counter as a varint — the
// snapshot format shared by the index-addressed readers.
func encodeCursor(idx int64) ([]byte, error) { return binary.AppendVarint(nil, idx), nil }

// decodeCursor reads an encodeCursor blob; a negative position is refused.
func decodeCursor(blob []byte) (int64, error) {
	c := state.Cursor{B: blob}
	idx := c.Varint()
	if err := c.Done(); err != nil {
		return 0, fmt.Errorf("source cursor restore: %w", err)
	}
	if idx < 0 {
		return 0, fmt.Errorf("source cursor restore: negative position %d", idx)
	}
	return idx, nil
}
