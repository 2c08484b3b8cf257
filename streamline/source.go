package streamline

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"repro/internal/dataflow"
)

// ReadStatus is what a Reader's Next call reports about its input — the
// typed rendering of Flink's InputStatus. Data-at-rest readers only ever
// return ReadData and ReadEnd; live (in-motion) readers additionally use
// ReadIdle so the runtime stays responsive while the input is quiet, and
// composite readers use ReadWatermark to steer event time explicitly.
type ReadStatus uint8

const (
	// ReadData means the returned element is valid.
	ReadData ReadStatus = iota
	// ReadWatermark means the returned element's Ts carries an event-time
	// watermark: a promise that no later element of this subtask has a
	// smaller timestamp.
	ReadWatermark
	// ReadIdle means no element is available right now; the runtime emits
	// the current watermark and polls again. Readers should wait briefly,
	// before returning ReadIdle or in the call after it, rather than spin.
	// Such a reader's Next may wait (see Reader); if it did not declare
	// that, the runtime takes its first ReadIdle as the declaration.
	ReadIdle
	// ReadEnd means the input is exhausted (bounded sources).
	ReadEnd
	// ReadHandoff means this subtask's at-rest phase is complete and
	// everything it emits next follows the live contract (timestamps after
	// the at-rest maximum; older ones are late). The element's Ts carries
	// the reader's own at-rest maximum, but the runtime promises the
	// *stage-wide* maximum seen so far: with dynamically assigned splits a
	// subtask's own share says little about the history as a whole — it may
	// even be empty — and the stage-wide promise is what lets history
	// windows fire at the handoff instead of waiting for live data.
	ReadHandoff
)

// Reader produces the elements of one source subtask. Implementations
// should be replayable for exactly-once recovery: Snapshot captures the
// read position, Restore resumes from it, re-emitting everything after.
// Sources that cannot replay (live channels) snapshot their bookkeeping and
// document the weaker guarantee.
//
// A Reader whose input can fail mid-stream (files, networks) may
// additionally implement `Err() error`; the runtime checks it at end of
// stream and fails the job with the reported error.
//
// The may-wait contract: the runtime gathers the elements Next returns into
// runs of up to the batch size before handing them downstream, so Next should
// return without waiting. A reader in motion, whose Next may wait (for the
// wall clock, a channel, a tail that has not grown), declares it with the
// optional method `MayWait() bool`, a probe asked before each call: true
// means this call may wait, and the runtime then hands downstream the run it
// has gathered and ships everything staged before making it. Answer for the
// next call only (Channel: the channel is empty; Paced: the element is not
// yet due), since every true ships the staged batches: a reader that always
// answers true ships each element in a batch of its own. A reader that
// declares nothing is taken to wait from its first ReadIdle on, also as the
// live half of a Hybrid or the reader a Paced source wraps.
type Reader[T any] interface {
	// Next returns the next element and its status. The element is only
	// meaningful for ReadData (a record) and ReadWatermark (Ts is the
	// watermark).
	Next() (Keyed[T], ReadStatus)
	// Snapshot serializes the read position.
	Snapshot() ([]byte, error)
	// Restore resumes from a snapshot taken by Snapshot.
	Restore([]byte) error
}

// Source is a typed, pluggable connector: a factory of per-subtask Readers.
// Built-in connectors cover slices (Slice, KeyedSlice), deterministic
// generators (Generator, Paced), live channels (Channel), files at rest
// (JSONL, CSV), and the at-rest→in-motion handoff (Hybrid); custom
// connectors implement this interface directly and plug into the same From
// entry point, options and checkpointing machinery.
type Source[T any] interface {
	// Open builds the reader feeding one subtask of the source stage.
	Open(subtask, parallelism int) Reader[T]
}

// MultiRestorer is an optional Reader extension for readers whose snapshot
// state is not positional per subtask. RestoreAll receives the blobs of
// *every* subtask of the checkpointing job, keyed by old subtask index, so
// the restoring stage may run at a different source parallelism — the file
// connectors implement it by redistributing their remaining byte-range
// splits, and composite readers (Hybrid, Paced) by decomposing and
// delegating. Readers without it restore positionally and require the
// original parallelism.
type MultiRestorer interface {
	RestoreAll(subtask, parallelism int, blobs map[int][]byte) error
}

// ParallelismHinter is an optional Source extension for connectors that
// only behave correctly at a particular parallelism. From honors the hint
// whenever no WithSourceParallelism option is given; the option always
// wins. Channel hints 1 (subtasks would split the shared channel, and an
// idle subtask would pin downstream event time at -inf); decorating
// connectors (Paced, Hybrid) delegate to their inner sources.
type ParallelismHinter interface {
	// PreferredParallelism returns the parallelism the source stage should
	// default to; <= 0 means no preference.
	PreferredParallelism() int
}

// sourceConfig is the resolved set of source options.
type sourceConfig struct {
	parallelism int
	parSet      bool // WithSourceParallelism was given (even as zero)
	lag         int64
	wmEvery     int64
	ts          any // func(T) int64, asserted by From against the stream type
}

// SourceOption configures a source stage built by From.
type SourceOption interface{ applySource(*sourceConfig) }

type sourceOptionFunc func(*sourceConfig)

func (f sourceOptionFunc) applySource(c *sourceConfig) { f(c) }

// WithSourceParallelism sets the number of subtasks of the source stage.
// Zero or negative uses the environment default. Giving the option in any
// form overrides the connector's ParallelismHinter hint.
func WithSourceParallelism(p int) SourceOption {
	return sourceOptionFunc(func(c *sourceConfig) { c.parallelism, c.parSet = p, true })
}

// WithWatermarkLag sets the bounded-disorder allowance: watermarks trail the
// max seen event timestamp by lag ticks (default 0).
func WithWatermarkLag(lag int64) SourceOption {
	return sourceOptionFunc(func(c *sourceConfig) { c.lag = lag })
}

// WithWatermarkEvery sets the watermark cadence: one watermark per `every`
// records per subtask (default 64).
func WithWatermarkEvery(every int64) SourceOption {
	return sourceOptionFunc(func(c *sourceConfig) { c.wmEvery = every })
}

// WithTimestamps installs an event-timestamp extractor: every element the
// source produces is re-stamped with f(value) before entering the pipeline.
// The extractor's input type must equal the stream's element type.
func WithTimestamps[T any](f func(T) int64) SourceOption {
	return sourceOptionFunc(func(c *sourceConfig) { c.ts = f })
}

// From creates a stream reading from a source connector — the single entry
// point of the connector API. Whether src is data at rest (Slice, JSONL,
// CSV), data in motion (Channel, Paced), or a Hybrid of both, the identical
// plan runs on the identical engine. Options control the stage's
// parallelism, watermark cadence and lag, and timestamp extraction.
func From[T any](env *Env, name string, src Source[T], opts ...SourceOption) *Stream[T] {
	cfg := sourceConfig{wmEvery: 64}
	for _, o := range opts {
		o.applySource(&cfg)
	}
	if !cfg.parSet {
		cfg.parallelism = preferredParallelism(src)
	}
	if cfg.wmEvery <= 0 {
		cfg.wmEvery = 64
	}
	var ts func(T) int64
	if cfg.ts != nil {
		f, ok := cfg.ts.(func(T) int64)
		if !ok {
			env.core.Fail(fmt.Errorf("streamline: From %q: WithTimestamps extractor is %T, want func(%s) int64",
				name, cfg.ts, typeName[T]()))
			return &Stream[T]{env: env, inner: env.core.FromSource(name, cfg.parallelism, emptySourceFactory)}
		}
		ts = f
	}
	// The stage clock is shared by every subtask of this source stage: it
	// tracks the maximum event time any subtask has emitted, and backs the
	// stage-wide promise of ReadHandoff. Only handoff-capable readers pay
	// for the tracking. Like the scan plan, it resets when subtask 0 is
	// built (the runtime builds subtasks in order), so re-executing the
	// same pipeline does not promise the previous run's event times.
	clock := newStageClock()
	var slot any // per-stage shared reader state (scan plans); see sharedOpener
	factory := func(sub, par int) dataflow.SourceFunc {
		if sub == 0 {
			clock.reset()
		}
		r := openSourceShared(src, &slot, sub, par)
		l := &loweredReader[T]{
			r:       r,
			boxed:   asBoxed(r),
			ts:      ts,
			every:   cfg.wmEvery,
			lag:     cfg.lag,
			wmFloor: minInt64,
		}
		if readerCanHandoff(l.r) {
			l.clock = clock
		}
		l.wait = probeWait(r)
		l.readTraits()
		return l
	}
	return &Stream[T]{env: env, inner: env.core.FromSource(name, cfg.parallelism, factory)}
}

// preferredParallelism reads a source's parallelism hint, if it carries one.
func preferredParallelism[T any](src Source[T]) int {
	if h, ok := src.(ParallelismHinter); ok {
		return h.PreferredParallelism()
	}
	return 0
}

// sharedOpener is the internal Source extension for connectors whose readers
// share per-execution state — the file connectors' scan plan (split queue).
// From allocates one slot per source stage and threads it through every Open
// of that stage, so a connector value stays stateless and can be reused
// across environments or concurrent executions without the stages bleeding
// into each other. Plain Open remains the fallback for direct use, with the
// connector holding the shared state itself (one execution at a time).
type sharedOpener[T any] interface {
	openShared(slot *any, subtask, parallelism int) Reader[T]
}

// openSourceShared opens one subtask's reader, preferring the slot-based
// path when the connector supports it.
func openSourceShared[T any](src Source[T], slot *any, sub, par int) Reader[T] {
	if s, ok := src.(sharedOpener[T]); ok {
		return s.openShared(slot, sub, par)
	}
	return src.Open(sub, par)
}

// typeName renders T for error messages.
func typeName[T any]() string {
	var zero T
	return fmt.Sprintf("%T", zero)
}

// emptySourceFactory keeps a failed From structurally valid; the build
// error recorded on the environment wins before anything runs.
func emptySourceFactory(sub, par int) dataflow.SourceFunc {
	return &dataflow.GenSource{N: 0, Gen: func(int64) dataflow.Record { return dataflow.Record{} }}
}

// stageClock is the shared event-time high-water mark of one source stage:
// every subtask folds its emitted timestamps in, and ReadHandoff promises
// its value. Advance is a CAS-max, so the hot-path cost is one atomic load
// plus a CAS only while the maximum actually moves.
type stageClock struct {
	v atomic.Int64
}

func newStageClock() *stageClock {
	c := &stageClock{}
	c.v.Store(minInt64)
	return c
}

// reset rewinds the clock for a fresh execution of the stage.
func (c *stageClock) reset() { c.v.Store(minInt64) }

func (c *stageClock) advance(ts int64) {
	for {
		cur := c.v.Load()
		if ts <= cur || c.v.CompareAndSwap(cur, ts) {
			return
		}
	}
}

func (c *stageClock) max() int64 { return c.v.Load() }

// readerCanHandoff reports whether a reader may emit ReadHandoff (Hybrid
// does; decorators delegate).
func readerCanHandoff(r any) bool {
	if h, ok := r.(interface{ CanHandoff() bool }); ok {
		return h.CanHandoff()
	}
	return false
}

// loweredReader is the one place a typed Reader meets the engine: it adapts
// the reader to dataflow.SourceFunc, boxing elements, applying the timestamp
// extractor, and generating cadence watermarks (one per `every` records,
// trailing the max seen timestamp by `lag`, like dataflow.GenSource). It
// turns the reader's ReadIdle, ReadWatermark and ReadHandoff statuses into
// watermarks that never regress on the wire.
type loweredReader[T any] struct {
	r     Reader[T]
	boxed boxedReader // r's boxedReader side, if any: its records are taken as they are
	ts    func(T) int64
	every int64
	lag   int64
	clock *stageClock // non-nil only for handoff-capable readers

	// The reader's traits, cached so the per-record path asks it nothing.
	unordered bool      // Unordered: no cadence watermarks
	crossed   bool      // past the handoff of a handoff-capable reader
	wait      waitProbe // answers MayWait for the reader

	maxTs     int64
	haveTs    bool
	sinceWM   int64
	havePend  bool
	pendingWM int64
	wmFloor   int64 // max watermark emitted on the wire; never regress
	// atRestMax tracks the maximum event time emitted *before* crossing the
	// handoff — the only timestamps that may seed the stage clock. maxTs
	// keeps advancing with live records, so reseeding the clock from it
	// after a restore would promise the live maximum with no lag allowance.
	atRestMax  int64
	atRestHave bool
}

type loweredReaderState struct {
	MaxTs      int64
	HaveTs     bool
	SinceWM    int64
	WMFloor    int64
	AtRestMax  int64
	AtRestHave bool
	Inner      []byte
}

const minInt64 = -1 << 63

// watermark returns the adapter's current watermark value. Once the reader
// has crossed an at-rest→in-motion handoff, the stage clock is a floor: the
// stragglers still replaying history keep pushing it toward the global
// history maximum, and this subtask's idle/cadence watermarks follow it up —
// without this, a subtask that crossed early (or scanned no splits at all)
// would hold event time at its own stale maximum until live data happened to
// arrive on it.
func (l *loweredReader[T]) watermark() int64 {
	wm := int64(minInt64)
	if l.haveTs {
		wm = l.maxTs - l.lag
	}
	if l.crossed {
		if m := l.clock.max(); m > wm {
			wm = m
		}
	}
	return wm
}

// readerCrossedHandoff reports whether a handoff-capable reader is past its
// at-rest phase (everything it emits next follows the live contract).
func readerCrossedHandoff(r any) bool {
	if h, ok := r.(interface{ CrossedHandoff() bool }); ok {
		return h.CrossedHandoff()
	}
	return false
}

// waitProbe answers MayWait for a reader, resolved once when the reader is
// opened: the reader's own probe if it declares one, otherwise the idle
// latch, which saw sets at the first ReadIdle the reader returns.
type waitProbe struct {
	declared dataflow.MayWaiter
	idled    bool // only for a reader that declares nothing
}

func probeWait(r any) waitProbe {
	w, _ := r.(dataflow.MayWaiter)
	return waitProbe{declared: w}
}

func (p *waitProbe) saw(st ReadStatus) { p.idled = p.idled || st == ReadIdle && p.declared == nil }

func (p *waitProbe) mayWait() bool { return p.idled || p.declared != nil && p.declared.MayWait() }

// readTraits re-reads the reader's order contract and handoff progress.
// Both change only where the reader returns ReadHandoff or is restored, so
// they are read when the reader is opened and at those two points.
func (l *loweredReader[T]) readTraits() {
	l.unordered = readerUnordered(l.r)
	l.crossed = l.clock != nil && readerCrossedHandoff(l.r)
}

// MayWait implements dataflow.MayWaiter with the reader's own answer, or for
// a reader that declares nothing, whether it has returned ReadIdle yet.
func (l *loweredReader[T]) MayWait() bool { return l.wait.mayWait() }

// emitWM stamps a watermark on the wire, clamped so the source's event
// time never regresses.
func (l *loweredReader[T]) emitWM(v int64) (dataflow.Record, bool) {
	if v > l.wmFloor {
		l.wmFloor = v
	}
	return dataflow.Watermark(l.wmFloor), true
}

// Next implements dataflow.SourceFunc.
func (l *loweredReader[T]) Next() (dataflow.Record, bool) {
	if l.havePend {
		l.havePend = false
		return l.emitWM(l.pendingWM)
	}
	// One element: typed, or — from a reader that sits on an engine source —
	// its timestamp and key with the value left in the box it arrived in.
	var (
		k     Keyed[T]
		boxed any
		st    ReadStatus
	)
	if l.boxed != nil {
		var r dataflow.Record
		r, st = l.boxed.nextBoxed()
		k.Ts, k.Key, boxed = r.Ts, r.Key, r.Value
	} else {
		k, st = l.r.Next()
	}
	switch st {
	case ReadEnd:
		return dataflow.Record{}, false
	case ReadIdle:
		// Keep the runtime loop moving and event time visible while the
		// input is quiet. An unordered reader's running max is not a sound
		// promise mid-scan, so idling then just re-emits the current floor.
		l.wait.saw(st)
		if l.unordered {
			return l.emitWM(minInt64)
		}
		return l.emitWM(l.watermark())
	case ReadWatermark:
		// Reader-steered watermark (custom connectors): an explicit promise,
		// in event time, that the reader's input is complete up to here —
		// it may advance event time past the data already seen (heartbeats
		// during a lull). The at-rest→in-motion handoff does not come through
		// here; it has its own status below, because its natural clock (file
		// byte offsets) is not event time.
		wm := k.Ts
		if l.haveTs && l.maxTs > wm {
			wm = l.maxTs
		}
		if k.Ts > l.maxTs || !l.haveTs {
			l.maxTs, l.haveTs = k.Ts, true
		}
		return l.emitWM(wm)
	case ReadHandoff:
		// The at-rest phase is complete for this subtask; everything it
		// emits next follows the live contract, so the promise is the
		// *stage-wide* maximum event time — with dynamically assigned
		// splits, a subtask's own share (possibly empty) says nothing about
		// the history as a whole, and a per-subtask promise would leave
		// history windows hanging until live data happened to arrive here.
		l.readTraits()
		wm := int64(minInt64)
		if l.clock != nil {
			wm = l.clock.max()
		}
		if l.ts != nil {
			if l.haveTs && l.maxTs > wm {
				wm = l.maxTs
			}
		} else if k.Ts > wm {
			wm = k.Ts
		}
		if wm == minInt64 {
			return l.emitWM(minInt64) // empty at-rest phase: nothing to promise
		}
		// Fold the promise into this subtask's clock so live-phase idle and
		// cadence watermarks hold the line instead of regressing.
		if wm > l.maxTs || !l.haveTs {
			l.maxTs, l.haveTs = wm, true
		}
		return l.emitWM(wm)
	}
	if l.ts != nil {
		if l.boxed != nil {
			k.Value = boxed.(T)
		}
		k.Ts = l.ts(k.Value)
	}
	if k.Ts > l.maxTs || !l.haveTs {
		l.maxTs, l.haveTs = k.Ts, true
	}
	// The stage clock tracks the *at-rest* maximum only: once this subtask
	// crosses the handoff its records are live and stop contributing, so the
	// clock freezes at the history max. Folding live timestamps in would
	// lift every crossed subtask's floor to the newest live record — no lag
	// allowance, and promised cross-subtask before the records are seen.
	if l.clock != nil && !l.crossed {
		l.clock.advance(k.Ts)
		if k.Ts > l.atRestMax || !l.atRestHave {
			l.atRestMax, l.atRestHave = k.Ts, true
		}
	}
	// Cadence watermarks assume the reader emits in (roughly) timestamp
	// order. An unordered reader — a splittable file scan, whose dynamically
	// assigned splits make one subtask's stream jump around the file — gets
	// none: maxTs-lag over an unordered prefix is not a sound promise, and a
	// single early high-timestamp record would mark everything after it late.
	// Event time over such a scan closes out at end of stream (the runtime's
	// +inf watermark) or at a composite's explicit handoff watermark.
	if !l.unordered {
		l.sinceWM++
		if l.sinceWM >= l.every {
			l.sinceWM = 0
			l.havePend = true
			l.pendingWM = l.watermark()
		}
	}
	if l.boxed != nil {
		return dataflow.Data(k.Ts, k.Key, boxed), true
	}
	return box(k), true
}

// Snapshot implements dataflow.SourceFunc.
func (l *loweredReader[T]) Snapshot() ([]byte, error) {
	inner, err := l.r.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = gob.NewEncoder(&buf).Encode(loweredReaderState{
		MaxTs: l.maxTs, HaveTs: l.haveTs, SinceWM: l.sinceWM, WMFloor: l.wmFloor,
		AtRestMax: l.atRestMax, AtRestHave: l.atRestHave, Inner: inner,
	})
	return buf.Bytes(), err
}

// Restore implements dataflow.SourceFunc. A pending cadence watermark is
// dropped, like GenSource's.
func (l *loweredReader[T]) Restore(blob []byte) error {
	var s loweredReaderState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
		return fmt.Errorf("source restore: %w", err)
	}
	if err := l.r.Restore(s.Inner); err != nil {
		return err
	}
	l.maxTs, l.haveTs, l.sinceWM, l.wmFloor, l.havePend = s.MaxTs, s.HaveTs, s.SinceWM, s.WMFloor, false
	l.atRestMax, l.atRestHave = s.AtRestMax, s.AtRestHave
	if l.clock != nil && s.AtRestHave {
		l.clock.advance(s.AtRestMax)
	}
	l.readTraits()
	return nil
}

// RestoreAll implements dataflow.MultiRestorable: the adapter state of every
// old subtask is unwrapped, the inner blobs go to the reader's own
// RestoreAll (or its positional fallback), and this subtask's watermark
// bookkeeping comes from its own old blob when one exists — a subtask that
// only exists after a rescale starts with fresh bookkeeping, which is sound
// because it has made no watermark promises yet.
func (l *loweredReader[T]) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	inner := make(map[int][]byte, len(blobs))
	states := make(map[int]loweredReaderState, len(blobs))
	for sub, blob := range blobs {
		var s loweredReaderState
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
			return fmt.Errorf("source restore: %w", err)
		}
		inner[sub] = s.Inner
		states[sub] = s
	}
	if err := restoreReaderAll(l.r, subtask, parallelism, inner); err != nil {
		return err
	}
	l.readTraits()
	l.maxTs, l.haveTs, l.sinceWM, l.havePend = 0, false, 0, false
	l.wmFloor = minInt64
	l.atRestMax, l.atRestHave = 0, false
	if s, ok := states[subtask]; ok && parallelism == len(blobs) {
		l.maxTs, l.haveTs, l.sinceWM, l.wmFloor = s.MaxTs, s.HaveTs, s.SinceWM, s.WMFloor
		l.atRestMax, l.atRestHave = s.AtRestMax, s.AtRestHave
	}
	// Reseed the stage clock with every old subtask's *at-rest* high-water
	// mark: records consumed before the crash are not replayed, so without
	// this the post-restore handoff would promise less than the history
	// already covered and its windows would hang until live data lifted the
	// watermark. MaxTs would be wrong here — it keeps advancing with live
	// records, and a live-contaminated clock promises the live maximum with
	// no lag allowance. advance() is a CAS-max, so each subtask folding the
	// same set in is idempotent.
	if l.clock != nil {
		for _, s := range states {
			if s.AtRestHave {
				l.clock.advance(s.AtRestMax)
			}
		}
	}
	return nil
}

// OpenSource implements dataflow.SourceOpener by forwarding the runtime's
// per-subtask context (metrics registry) to the reader.
func (l *loweredReader[T]) OpenSource(ctx *dataflow.OpContext) { openReader(l.r, ctx) }

// Err implements dataflow.Failable by delegating to the reader, if it
// reports errors.
func (l *loweredReader[T]) Err() error {
	if f, ok := l.r.(interface{ Err() error }); ok {
		return f.Err()
	}
	return nil
}

// SourceLocalOnly implements dataflow.LocalOnlySource by delegating to the
// reader: live-channel readers exist only in the submitting process, so
// distributed placement pins their node to the coordinator.
func (l *loweredReader[T]) SourceLocalOnly() bool { return readerLocalOnly(l.r) }

// readerLocalOnly probes a reader (or source) for the local-only property;
// decorators delegate to their inner reader.
func readerLocalOnly(r any) bool {
	if lo, ok := r.(interface{ SourceLocalOnly() bool }); ok {
		return lo.SourceLocalOnly()
	}
	return false
}
