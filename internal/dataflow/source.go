package dataflow

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"
)

// SourceFunc produces the records of a source subtask. Implementations must
// be replayable for exactly-once recovery: Snapshot captures the read
// position and Restore resumes from it, re-emitting everything after.
// Sources backed by inputs that cannot replay (live channels) document the
// weaker guarantee instead.
//
// A SourceFunc may emit Watermark records interleaved with data; the runtime
// emits the final +inf watermark and end-of-stream marker itself.
//
// The runtime gathers consecutive data records into runs of up to the batch
// size before handing them downstream, so Next should return without waiting;
// a source whose Next may wait must say so through MayWaiter.
type SourceFunc interface {
	// Next returns the next record, or ok=false at end of stream.
	Next() (r Record, ok bool)
	// Snapshot serializes the read position.
	Snapshot() ([]byte, error)
	// Restore resumes from a snapshot taken by Snapshot.
	Restore([]byte) error
}

// MayWaiter is an optional SourceFunc extension for sources in motion, whose
// Next may wait (for the wall clock, a channel, a socket). The runtime asks
// once per run; while MayWait reports true it hands every record downstream
// the moment Next returns it, so none sits in a half-gathered run for as long
// as the next call waits. The answer may change — a hybrid replays history in
// full runs and reports true from the handoff on — but only at a control
// record, where a run ends anyway. Sources without the method never wait.
type MayWaiter interface {
	MayWait() bool
}

// sourceMayWait reports whether a source declares that its Next may wait.
func sourceMayWait(src SourceFunc) bool {
	w, ok := src.(MayWaiter)
	return ok && w.MayWait()
}

// Failable is an optional extension for sources whose input can fail
// mid-stream (files, networks) and operators whose output can (external
// sinks). Neither Next nor OnBatch has an error return: a failing source ends
// its stream (ok=false), a failing operator drops what it can no longer
// deliver, and both report the cause through Err, which the runtime checks at
// end of stream — for operators after Finish — and surfaces as the job error.
type Failable interface {
	// Err returns the error that terminated the stream, or nil if the
	// stream is still healthy / ended normally.
	Err() error
}

// sourceErr returns the terminal error of a source, if it is Failable and
// failed.
func sourceErr(src SourceFunc) error {
	if f, ok := src.(Failable); ok {
		return f.Err()
	}
	return nil
}

// SourceOpener is an optional SourceFunc extension: the runtime hands each
// source subtask its OpContext before restore and the first Next — the same
// hook operators get in Open — so sources can register metrics instruments
// (scan counters) on OpContext.Metrics.
type SourceOpener interface {
	OpenSource(ctx *OpContext)
}

// MultiRestorable is an optional SourceFunc extension for sources whose
// snapshot state is not positional per subtask. RestoreAll receives the
// state blobs of *every* subtask of the checkpointing job, keyed by old
// subtask index, so the restoring stage may run at a different parallelism —
// splittable file scans redistribute their remaining splits this way.
// Composite sources (hybrid, paced) implement it by decomposing blobs and
// delegating with RestoreSource.
type MultiRestorable interface {
	RestoreAll(subtask, parallelism int, blobs map[int][]byte) error
}

// RestoreSource restores one source subtask from the node-wide blob set:
// sources implementing MultiRestorable redistribute freely, everything else
// falls back to the positional per-subtask Restore — which requires the
// parallelism to match the snapshot's.
func RestoreSource(src SourceFunc, subtask, parallelism int, blobs map[int][]byte) error {
	if m, ok := src.(MultiRestorable); ok {
		return m.RestoreAll(subtask, parallelism, blobs)
	}
	oldPar := 0
	for sub := range blobs {
		if sub+1 > oldPar {
			oldPar = sub + 1
		}
	}
	if oldPar != parallelism {
		return fmt.Errorf("source state of %d subtasks does not redistribute to parallelism %d (only splittable scans rescale; see MultiRestorable)", oldPar, parallelism)
	}
	blob, ok := blobs[subtask]
	if !ok {
		return fmt.Errorf("source snapshot is missing subtask %d", subtask)
	}
	return src.Restore(blob)
}

// GenSource is a deterministic generator source: record i is computed by Gen
// from its index, making the source replayable by construction. A watermark
// lagging the max emitted timestamp by Lag is emitted every WatermarkEvery
// records (default 64).
type GenSource struct {
	// N is the number of records to emit; N < 0 means unbounded.
	N int64
	// Gen computes the i-th record.
	Gen func(i int64) Record
	// WatermarkEvery controls watermark frequency in records (default 64).
	WatermarkEvery int64
	// Lag is subtracted from the max seen timestamp when emitting
	// watermarks — the bounded-disorder allowance.
	Lag int64

	idx       int64
	maxTs     int64
	sinceWM   int64
	havePend  bool
	pendingWM int64
}

type genSourceState struct {
	Idx     int64
	MaxTs   int64
	SinceWM int64
}

// Next implements SourceFunc.
func (g *GenSource) Next() (Record, bool) {
	if g.havePend {
		g.havePend = false
		return Watermark(g.pendingWM), true
	}
	if g.N >= 0 && g.idx >= g.N {
		return Record{}, false
	}
	r := g.Gen(g.idx)
	g.idx++
	if r.Ts > g.maxTs {
		g.maxTs = r.Ts
	}
	every := g.WatermarkEvery
	if every <= 0 {
		every = 64
	}
	g.sinceWM++
	if g.sinceWM >= every {
		g.sinceWM = 0
		g.havePend = true
		g.pendingWM = g.maxTs - g.Lag
	}
	return r, true
}

// Snapshot implements SourceFunc.
func (g *GenSource) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(genSourceState{Idx: g.idx, MaxTs: g.maxTs, SinceWM: g.sinceWM})
	return buf.Bytes(), err
}

// Restore implements SourceFunc.
func (g *GenSource) Restore(blob []byte) error {
	var s genSourceState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
		return fmt.Errorf("gen source restore: %w", err)
	}
	g.idx, g.maxTs, g.sinceWM, g.havePend = s.Idx, s.MaxTs, s.SinceWM, false
	return nil
}

// SliceSource returns a SourceFactory that splits recs round-robin across
// the source's subtasks. Replayable (backed by GenSource).
func SliceSource(recs []Record) SourceFactory {
	return func(subtask, parallelism int) SourceFunc {
		var mine []Record
		for i := subtask; i < len(recs); i += parallelism {
			mine = append(mine, recs[i])
		}
		return &GenSource{
			N:   int64(len(mine)),
			Gen: func(i int64) Record { return mine[i] },
		}
	}
}

// Pacer throttles emissions to approximately perSec per second of wall
// clock, sleeping until the next emission is due. The schedule is anchored
// at the first Wait call; Reset re-anchors it (after a recovery restore,
// pacing must restart from the resume point, not replay the old schedule).
type Pacer struct {
	start time.Time
	count int64
}

// Wait sleeps until the next emission is due at the given rate. perSec <= 0
// waits nothing.
func (p *Pacer) Wait(perSec float64) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	if perSec > 0 {
		due := p.start.Add(time.Duration(float64(p.count) / perSec * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	p.count++
}

// Reset re-anchors the pacing schedule at the next Wait call.
func (p *Pacer) Reset() { *p = Pacer{} }

// Started reports whether the pacer has begun its schedule (diagnostics).
func (p *Pacer) Started() bool { return !p.start.IsZero() }

// PacedSource throttles an inner SourceFunc to approximately PerSec records
// per second (wall clock), used by the latency experiments.
type PacedSource struct {
	Inner  SourceFunc
	PerSec float64

	pacer Pacer
}

// Next implements SourceFunc.
func (p *PacedSource) Next() (Record, bool) {
	p.pacer.Wait(p.PerSec)
	return p.Inner.Next()
}

// MayWait implements MayWaiter: a paced Next sleeps until its record is due.
func (p *PacedSource) MayWait() bool { return p.PerSec > 0 || sourceMayWait(p.Inner) }

// Snapshot implements SourceFunc.
func (p *PacedSource) Snapshot() ([]byte, error) { return p.Inner.Snapshot() }

// Restore implements SourceFunc. The pacing schedule is re-anchored: a
// restored source must emit at PerSec from the resume point onward, not
// sleep (or burst) to catch up with the pre-crash schedule.
func (p *PacedSource) Restore(blob []byte) error {
	p.pacer.Reset()
	return p.Inner.Restore(blob)
}

// RestoreAll implements MultiRestorable by delegation (pacing carries no
// state of its own beyond the schedule anchor, which is reset like Restore).
func (p *PacedSource) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	p.pacer.Reset()
	return RestoreSource(p.Inner, subtask, parallelism, blobs)
}

// OpenSource implements SourceOpener by delegation.
func (p *PacedSource) OpenSource(ctx *OpContext) {
	if o, ok := p.Inner.(SourceOpener); ok {
		o.OpenSource(ctx)
	}
}

// Err implements Failable by delegation.
func (p *PacedSource) Err() error { return sourceErr(p.Inner) }

// SourceLocalOnly implements LocalOnlySource by delegation.
func (p *PacedSource) SourceLocalOnly() bool {
	lo, ok := p.Inner.(LocalOnlySource)
	return ok && lo.SourceLocalOnly()
}

// ChannelSource ingests live records from a Go channel — data in motion that
// exists only once, pushed by an external producer. A closed channel ends
// the stream. Watermarks lagging the max seen timestamp by Lag are emitted
// every WatermarkEvery records (default 64) and whenever the channel stays
// idle for Poll (default 25ms), so event time keeps advancing and the
// runtime stays responsive to checkpoints and cancellation while the
// producer is quiet. Producers may also inject Watermark records directly.
//
// A channel cannot be replayed: Snapshot records only the watermark
// bookkeeping, so recovery resumes at the live position ("at most once" for
// records consumed before the crash). Exactly-once replay of history belongs
// to replayable sources — compose both with HybridSource.
type ChannelSource struct {
	C <-chan Record
	// WatermarkEvery controls watermark cadence in records (default 64).
	WatermarkEvery int64
	// Lag is the bounded-disorder allowance subtracted from the max seen
	// timestamp when emitting watermarks.
	Lag int64
	// Poll is how long Next waits for a record before emitting an idle
	// watermark (default 25ms).
	Poll time.Duration

	emitted   int64
	maxTs     int64
	haveTs    bool
	wmFloor   int64 // max producer-promised watermark; emissions never regress below it
	haveFloor bool
	sinceWM   int64
	havePend  bool
	pendingWM int64
}

type channelSourceState struct {
	Emitted   int64
	MaxTs     int64
	HaveTs    bool
	WMFloor   int64
	HaveFloor bool
	SinceWM   int64
}

// watermark returns the current watermark value of the source: the max seen
// data timestamp minus Lag, floored at the highest producer promise.
func (c *ChannelSource) watermark() int64 {
	wm := int64(minInt64)
	if c.haveTs {
		wm = c.maxTs - c.Lag
	}
	if c.haveFloor && c.wmFloor > wm {
		wm = c.wmFloor
	}
	return wm
}

const minInt64 = -1 << 63

// Next implements SourceFunc.
func (c *ChannelSource) Next() (Record, bool) {
	if c.havePend {
		c.havePend = false
		return Watermark(c.pendingWM), true
	}
	// Fast path: a busy producer keeps the channel non-empty, so the idle
	// timer (an allocation per call) is only armed when it is needed.
	select {
	case r, ok := <-c.C:
		return c.received(r, ok)
	default:
	}
	poll := c.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	timer := time.NewTimer(poll)
	defer timer.Stop()
	select {
	case r, ok := <-c.C:
		return c.received(r, ok)
	case <-timer.C:
		return Watermark(c.watermark()), true
	}
}

// received folds one channel delivery into the source's bookkeeping.
func (c *ChannelSource) received(r Record, ok bool) (Record, bool) {
	if !ok {
		return Record{}, false
	}
	switch r.Kind {
	case KindWatermark:
		// A producer promise becomes a floor on the emitted watermark —
		// not a Lag-adjusted maxTs update, which would overflow for a +inf
		// close-out promise — and is emitted through watermark(), so later
		// idle/cadence watermarks can never regress behind it (a regressing
		// watermark re-opens windows downstream).
		if r.Ts > c.wmFloor || !c.haveFloor {
			c.wmFloor, c.haveFloor = r.Ts, true
		}
		return Watermark(c.watermark()), true
	case KindData:
		c.emitted++
		if r.Ts > c.maxTs || !c.haveTs {
			c.maxTs, c.haveTs = r.Ts, true
		}
		every := c.WatermarkEvery
		if every <= 0 {
			every = 64
		}
		c.sinceWM++
		if c.sinceWM >= every {
			c.sinceWM = 0
			c.havePend = true
			c.pendingWM = c.watermark()
		}
		return r, true
	default:
		// Barriers and end markers belong to the runtime, not producers;
		// drop them and emit the current watermark to keep the loop moving.
		return Watermark(c.watermark()), true
	}
}

// MayWait implements MayWaiter: Next waits up to Poll on a quiet channel.
func (c *ChannelSource) MayWait() bool { return true }

// SourceLocalOnly implements LocalOnlySource: the Go channel exists only in
// the process that built the graph, so distributed placement pins the node
// to the coordinator.
func (c *ChannelSource) SourceLocalOnly() bool { return true }

// Snapshot implements SourceFunc (watermark bookkeeping only — see the type
// comment for the recovery semantics of non-replayable channels).
func (c *ChannelSource) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(channelSourceState{
		Emitted: c.emitted, MaxTs: c.maxTs, HaveTs: c.haveTs,
		WMFloor: c.wmFloor, HaveFloor: c.haveFloor, SinceWM: c.sinceWM,
	})
	return buf.Bytes(), err
}

// Restore implements SourceFunc.
func (c *ChannelSource) Restore(blob []byte) error {
	var s channelSourceState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
		return fmt.Errorf("channel source restore: %w", err)
	}
	c.emitted, c.maxTs, c.haveTs, c.sinceWM, c.havePend = s.Emitted, s.MaxTs, s.HaveTs, s.SinceWM, false
	c.wmFloor, c.haveFloor = s.WMFloor, s.HaveFloor
	return nil
}

// Hybrid phases, in snapshot order.
const (
	hybridHistory byte = iota
	hybridLive
)

// HybridSource is the at-rest→in-motion handoff: it replays a bounded
// History source, emits a handoff watermark at the history's max data
// timestamp the moment history ends, then switches to the Live source — one
// source stage bootstrapped from stored data and continued on the live
// stream, the scenario the paper eliminates the Lambda architecture with.
//
// The switch is atomic within one Next call, and Snapshot records the phase
// plus both inner positions, so a checkpoint taken during replay restores
// into the history phase and still crosses the handoff exactly once.
//
// Live records must carry timestamps after the history's max timestamp;
// older ones arrive late relative to the handoff watermark (standard
// bounded-disorder semantics apply).
//
// The handoff watermark is per subtask: each instance promises only the max
// timestamp it saw itself, and an instance whose history share was empty
// (possible over a splittable FileScanSource history, where one subtask may
// drain the whole split queue) emits no handoff watermark at all — its
// channel then holds downstream event time at -inf until live data reaches
// it. The typed layer (streamline.Hybrid) closes this with a stage-wide
// clock and the ReadHandoff protocol; compose file histories at parallelism
// > 1 through it, or keep engine-level hybrids single-subtask.
type HybridSource struct {
	History SourceFunc
	Live    SourceFunc

	phase  byte
	maxTs  int64
	haveTs bool
}

type hybridSourceState struct {
	Phase   byte
	MaxTs   int64
	HaveTs  bool
	History []byte
	Live    []byte
}

// Next implements SourceFunc.
func (h *HybridSource) Next() (Record, bool) {
	if h.phase == hybridHistory {
		r, ok := h.History.Next()
		if ok {
			if r.Kind == KindData && (r.Ts > h.maxTs || !h.haveTs) {
				h.maxTs, h.haveTs = r.Ts, true
			}
			return r, true
		}
		// A history that failed mid-replay (Failable) ends the whole
		// stream here instead of handing off: the runtime only inspects
		// Err at end of stream, and an unbounded live phase would bury a
		// truncated history forever.
		if sourceErr(h.History) != nil {
			return Record{}, false
		}
		h.phase = hybridLive
		if h.haveTs {
			// Handoff: close out event time over the whole history before
			// the first live record, so history windows can fire.
			return Watermark(h.maxTs), true
		}
	}
	return h.Live.Next()
}

// MayWait implements MayWaiter: history replays in full runs, the live phase
// record by record. The handoff watermark ends the last history run; a
// history without data hands off with no watermark, so until the first
// history record the source reports true as well.
func (h *HybridSource) MayWait() bool {
	return h.phase == hybridLive || !h.haveTs || sourceMayWait(h.History)
}

// Snapshot implements SourceFunc.
func (h *HybridSource) Snapshot() ([]byte, error) {
	hist, err := h.History.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("hybrid history snapshot: %w", err)
	}
	live, err := h.Live.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("hybrid live snapshot: %w", err)
	}
	var buf bytes.Buffer
	err = gob.NewEncoder(&buf).Encode(hybridSourceState{
		Phase: h.phase, MaxTs: h.maxTs, HaveTs: h.haveTs, History: hist, Live: live,
	})
	return buf.Bytes(), err
}

// Restore implements SourceFunc.
func (h *HybridSource) Restore(blob []byte) error {
	var s hybridSourceState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
		return fmt.Errorf("hybrid source restore: %w", err)
	}
	if err := h.History.Restore(s.History); err != nil {
		return fmt.Errorf("hybrid history restore: %w", err)
	}
	if err := h.Live.Restore(s.Live); err != nil {
		return fmt.Errorf("hybrid live restore: %w", err)
	}
	h.phase, h.maxTs, h.haveTs = s.Phase, s.MaxTs, s.HaveTs
	return nil
}

// RestoreAll implements MultiRestorable: every subtask blob is decomposed
// into its phase flag and the two inner positions, and each inner source is
// restored from its own node-wide blob set via RestoreSource — so a hybrid
// over a splittable history rescales while the history replay is still in
// flight (the satellite scenario: kill mid-history at one source
// parallelism, recover at another).
//
// The restored phase is aggregated: the stage re-enters the history phase
// unless every old subtask had already crossed the handoff (in which case no
// history work remains). A subtask that had crossed individually may re-enter
// history after a rescale; that is sound for histories that emit no
// in-flight watermarks (file scans), because downstream event time cannot
// have advanced past the handoff while any subtask was still replaying. The
// live phase, when not yet entered anywhere, restores fresh; live state that
// was already accumulating only redistributes if the live source itself is
// MultiRestorable (or the parallelism is unchanged).
func (h *HybridSource) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	hist := make(map[int][]byte, len(blobs))
	live := make(map[int][]byte, len(blobs))
	allLive, anyLive := true, false
	var maxTs int64
	haveTs := false
	for sub, blob := range blobs {
		var s hybridSourceState
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&s); err != nil {
			return fmt.Errorf("hybrid source restore: %w", err)
		}
		hist[sub] = s.History
		live[sub] = s.Live
		if s.Phase == hybridLive {
			anyLive = true
		} else {
			allLive = false
		}
		if s.HaveTs && (!haveTs || s.MaxTs > maxTs) {
			maxTs, haveTs = s.MaxTs, true
		}
	}
	if err := RestoreSource(h.History, subtask, parallelism, hist); err != nil {
		return fmt.Errorf("hybrid history restore: %w", err)
	}
	if err := h.restoreLive(subtask, parallelism, live, anyLive); err != nil {
		return fmt.Errorf("hybrid live restore: %w", err)
	}
	if allLive {
		h.phase = hybridLive
	} else {
		h.phase = hybridHistory
	}
	h.maxTs, h.haveTs = maxTs, haveTs
	return nil
}

// restoreLive restores the live half of a multi-blob recovery. While no old
// subtask had entered the live phase (started=false), its snapshots hold
// only pre-start bookkeeping and the live source starts fresh at the new
// parallelism; once *any* subtask had crossed, its live state may hold
// consumed positions and must genuinely restore or fail.
func (h *HybridSource) restoreLive(subtask, parallelism int, blobs map[int][]byte, started bool) error {
	if m, ok := h.Live.(MultiRestorable); ok {
		return m.RestoreAll(subtask, parallelism, blobs)
	}
	if blob, ok := blobs[subtask]; ok && len(blobs) == parallelism {
		return h.Live.Restore(blob)
	}
	if !started {
		return nil // fresh live source: nothing was consumed before the crash
	}
	return fmt.Errorf("live source state of %d subtasks does not redistribute to parallelism %d", len(blobs), parallelism)
}

// OpenSource implements SourceOpener by delegation to both phases.
func (h *HybridSource) OpenSource(ctx *OpContext) {
	if o, ok := h.History.(SourceOpener); ok {
		o.OpenSource(ctx)
	}
	if o, ok := h.Live.(SourceOpener); ok {
		o.OpenSource(ctx)
	}
}

// SourceLocalOnly implements LocalOnlySource: a hybrid is local-only when
// either phase is (its live half usually is a channel).
func (h *HybridSource) SourceLocalOnly() bool {
	if lo, ok := h.History.(LocalOnlySource); ok && lo.SourceLocalOnly() {
		return true
	}
	lo, ok := h.Live.(LocalOnlySource)
	return ok && lo.SourceLocalOnly()
}

// Err implements Failable by checking both phases' sources.
func (h *HybridSource) Err() error {
	if err := sourceErr(h.History); err != nil {
		return err
	}
	return sourceErr(h.Live)
}
