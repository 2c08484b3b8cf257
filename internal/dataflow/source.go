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
// weaker guarantee instead. Connectors users can name (channels, hybrids,
// files) live in package streamline as typed readers and lower onto this
// interface; the engine keeps only what they lower onto.
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
// Next may wait (for the wall clock, a channel, a socket). MayWait is a probe
// the runtime asks before each Next: true means this call may wait. The
// runtime then ends the run it is gathering, hands it downstream and makes
// an early flush before the call: everything staged ships, and a flush marker
// carries the flush on through every subtask the data went to, so nothing
// read sits behind a wait. Answer for the next call only — a channel source
// reports an empty channel, a paced one a record not yet due — because each
// true answer ships what is staged, and one that is always true ships every
// record in a batch of its own. Sources without the method never wait.
type MayWaiter interface {
	MayWait() bool
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
// Composite sources (PacedSource, the typed layer's adapters) implement it
// by decomposing blobs and delegating with RestoreSource.
type MultiRestorable interface {
	RestoreAll(subtask, parallelism int, blobs map[int][]byte) error
}

// RestoreSource restores one source subtask from the node-wide blob set:
// sources implementing MultiRestorable redistribute freely, everything else
// falls back to the positional per-subtask Restore (PositionalBlob).
func RestoreSource(src SourceFunc, subtask, parallelism int, blobs map[int][]byte) error {
	if m, ok := src.(MultiRestorable); ok {
		return m.RestoreAll(subtask, parallelism, blobs)
	}
	blob, err := PositionalBlob(subtask, parallelism, blobs)
	if err != nil {
		return err
	}
	return src.Restore(blob)
}

// PositionalBlob is the one rule for restoring per-subtask source state: the
// snapshot must have been written at this parallelism (its highest subtask
// index + 1), and the subtask gets its own old blob. Source positions that
// are not a redistributable work set do not survive a rescale.
func PositionalBlob(subtask, parallelism int, blobs map[int][]byte) ([]byte, error) {
	oldPar := 0
	for sub := range blobs {
		if sub+1 > oldPar {
			oldPar = sub + 1
		}
	}
	if oldPar != parallelism {
		return nil, fmt.Errorf("source state of %d subtasks does not redistribute to parallelism %d (only splittable scans rescale; see MultiRestorable)", oldPar, parallelism)
	}
	blob, ok := blobs[subtask]
	if !ok {
		return nil, fmt.Errorf("source snapshot is missing subtask %d", subtask)
	}
	return blob, nil
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
		if d := time.Until(p.next(perSec)); d > 0 {
			time.Sleep(d)
		}
	}
	p.count++
}

// Due reports whether the next emission is due, so Wait would not sleep.
func (p *Pacer) Due(perSec float64) bool {
	return perSec <= 0 || p.start.IsZero() || !time.Now().Before(p.next(perSec))
}

// next is when the next emission is due at the given rate (perSec > 0).
func (p *Pacer) next(perSec float64) time.Time {
	return p.start.Add(time.Duration(float64(p.count) / perSec * float64(time.Second)))
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

// MayWait implements MayWaiter: a paced Next sleeps while its record is not
// yet due, and otherwise waits as long as the inner source's would.
func (p *PacedSource) MayWait() bool {
	w, ok := p.Inner.(MayWaiter)
	return !p.pacer.Due(p.PerSec) || ok && w.MayWait()
}

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
