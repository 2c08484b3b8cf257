package dataflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/state"
)

// Splits are the unit of at-rest work: a byte range of one input file. The
// scan planner chops every input file into newline-aligned ranges of roughly
// SplitSize bytes, and a per-source-stage assigner hands splits to subtasks
// dynamically — a subtask that finishes early pulls the next pending split
// from the shared queue, so skew in file sizes or decode cost never idles a
// worker the way static striping does. Because a split can be processed by
// any subtask, split state is not positional: snapshots record which splits
// are done and where the in-flight ones stand, and restore redistributes the
// remaining work across whatever source parallelism the recovered job runs
// at.

// DefaultSplitSize is the target split length when a plan does not choose
// one. Small enough that a handful of files still parallelizes, large enough
// that per-split open/seek overhead is noise.
const DefaultSplitSize = 4 << 20

// Split is one byte-range unit of at-rest work: the half-open range
// [Start, End) of the file at Path. Ranges tile each file exactly; record
// alignment is resolved by the reader (a split's first record is the first
// one *starting* at or after Start, and a record straddling End is consumed
// entirely by the split it starts in).
type Split struct {
	ID         int
	Path       string
	Start, End int64
}

// splitCursor is a split plus a resume position. offset < 0 means the split
// has not been started (the reader aligns to the first record boundary);
// offset >= 0 is the absolute byte offset of the next unread record, a
// position Restore can Seek to directly.
type splitCursor struct {
	split  Split
	offset int64
}

// ScanPlan owns the splits of one at-rest source stage and assigns them to
// the stage's subtasks. Exactly one ScanPlan is shared by all readers of a
// source node per execution (the streamline file and topic connectors keep
// it in their per-stage slot); the shared queue is what makes assignment
// dynamic.
//
// Planning is lazy: inputs are expanded (file, directory, or glob) and
// split on first use, so building a graph never touches the filesystem and
// planning errors surface through the reader's Failable contract.
type ScanPlan struct {
	// Inputs are the scan's input patterns: literal file paths, directories
	// (all regular files inside, non-recursive), or filepath.Match globs.
	Inputs []string
	// SplitSize is the target split length in bytes (<= 0 uses
	// DefaultSplitSize).
	SplitSize int64
	// CSV plans quote-aware splits: a CSV file is only chopped mid-file when
	// it provably contains no quoted fields (no '"' byte anywhere), because a
	// quoted field may span lines and make newline alignment ambiguous.
	// Files with quotes fall back to one split covering the whole file;
	// seek-based restore still works there, since snapshots record row
	// boundaries.
	CSV bool
	// Header marks the first row of every CSV file as a header to skip.
	Header bool

	// FixedSplits, when set, replaces filesystem planning entirely: the plan
	// calls it once for the split list instead of expanding Inputs. Sources
	// whose inputs are not plain files (segment-log topics) use this to keep
	// the whole split machinery — dynamic assignment, snapshots, seek-based
	// restore at any parallelism. On restore the plan does not call it:
	// splits are rebuilt from the snapshot's own geometry signature, so a
	// grown input cannot shift the IDs the snapshot refers to.
	FixedSplits func() ([]Split, error)

	mu       sync.Mutex
	planned  bool
	planErr  error
	splits   []Split
	queue    []splitCursor
	restored bool
	carry    []int // restored completed ids, re-carried by subtask 0's snapshots
	// restoreSig is the plan signature carried by the snapshot being
	// restored. Planning trusts its per-file quote decisions (a file's
	// Splits count encodes them) instead of re-reading every CSV file, so
	// recovery stays O(remaining split); the signature comparison right
	// after planning still verifies paths, sizes and split counts.
	restoreSig *scanPlanSig
	// resumed registers the restored in-flight cursors at their resume
	// offsets, permanently for the plan's lifetime. Subtask 0 re-reports
	// them in every snapshot: the shared queue itself is no sound source —
	// a cursor popped by subtask k after k's own barrier but before subtask
	// 0's would be in neither k's blob nor the queue, and the split's
	// pre-restore progress would be lost. Stale entries are harmless: the
	// next restore dedups against completed IDs and later Cur offsets.
	resumed []pendingSplit
	// ownedSubs/ownerPar restrict the queue to locally owned splits in
	// distributed execution (see SetOwnedSubtasks). nil: every split is
	// local — the single-process case, where the queue stays fully dynamic.
	ownedSubs map[int]bool
	ownerPar  int
}

// SetOwnedSubtasks restricts the plan's split queue to the splits owned by
// the given subtasks of a parallelism-wide stage: split ID modulo the stage
// parallelism names the owning subtask. In distributed execution each
// participant's scan plan is a private copy of the same deterministic plan,
// so without ownership every participant would read every split; with it the
// participants partition the split set statically while assignment *within*
// a participant stays dynamic. Only the queue is filtered: the restored
// in-flight registry and the completed-ID carry remain global, because
// subtask 0 (wherever it is placed) re-reports them for the whole stage.
// A nil subs or non-positive parallelism keeps every split local.
func (p *ScanPlan) SetOwnedSubtasks(subs []int, parallelism int) {
	if subs == nil || parallelism <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ownedSubs != nil {
		return // already set (every local subtask passes the same set)
	}
	p.ownedSubs = make(map[int]bool, len(subs))
	for _, s := range subs {
		p.ownedSubs[s] = true
	}
	p.ownerPar = parallelism
	if p.planned && p.planErr == nil {
		kept := p.queue[:0]
		for _, c := range p.queue {
			if p.keepLocked(c.split.ID) {
				kept = append(kept, c)
			}
		}
		p.queue = kept
	}
}

// keepLocked reports whether the split belongs to this participant's queue.
func (p *ScanPlan) keepLocked(id int) bool {
	if p.ownedSubs == nil {
		return true
	}
	return p.ownedSubs[id%p.ownerPar]
}

// normSplitSize returns the plan's effective split size.
func (p *ScanPlan) normSplitSize() int64 {
	if p.SplitSize <= 0 {
		return DefaultSplitSize
	}
	return p.SplitSize
}

// expandInputs resolves the plan's input patterns to a sorted list of files.
func (p *ScanPlan) expandInputs() ([]string, error) {
	var files []string
	for _, in := range p.Inputs {
		st, err := os.Stat(in)
		switch {
		case err == nil && st.IsDir():
			ents, err := os.ReadDir(in)
			if err != nil {
				return nil, fmt.Errorf("scan %q: %w", in, err)
			}
			n := 0
			for _, e := range ents {
				if e.Type().IsRegular() {
					files = append(files, filepath.Join(in, e.Name()))
					n++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("scan %q: directory holds no regular files", in)
			}
		case err == nil:
			files = append(files, in)
		case strings.ContainsAny(in, "*?["):
			matches, gerr := filepath.Glob(in)
			if gerr != nil {
				return nil, fmt.Errorf("scan %q: %w", in, gerr)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("scan %q: glob matched no files", in)
			}
			files = append(files, matches...)
		default:
			return nil, fmt.Errorf("scan %q: %w", in, err)
		}
	}
	sort.Strings(files)
	return files, nil
}

// fileHasQuote reports whether the file contains a '"' byte anywhere — the
// conservative test for CSV splittability (a quote-free file cannot have a
// row spanning lines, so every newline is an unambiguous row boundary).
func fileHasQuote(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	buf := make([]byte, 256*1024)
	for {
		n, err := f.Read(buf)
		if bytes.IndexByte(buf[:n], '"') >= 0 {
			return true, nil
		}
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// planLocked expands inputs and chops them into splits. Deterministic for a
// fixed file set: restore re-plans and the split IDs line up with the ones
// the snapshot recorded.
//
// CSV planning pays one extra sequential pass per multi-split file for the
// quote probe — a memchr-speed read, much cheaper than the parse scan, but
// real I/O on a cold cache. Files that fit in a single split skip it (their
// quote status cannot change the plan), and the probes of different files
// run concurrently.
func (p *ScanPlan) planLocked() error {
	if p.planned {
		return p.planErr
	}
	p.planned = true
	if p.FixedSplits != nil {
		if p.restoreSig != nil {
			// Restore path: rebuild the exact geometry the snapshot's split
			// IDs index into, from its signature. The live input may have
			// grown since the checkpoint; the extra bytes are simply not part
			// of this plan (a follow-mode tail picks them up instead).
			p.splits = splitsFromSig(p.restoreSig)
			p.SplitSize = p.restoreSig.SplitSize
		} else {
			splits, err := p.FixedSplits()
			if err != nil {
				p.planErr = err
				return err
			}
			p.splits = splits
		}
		for _, sp := range p.splits {
			if p.keepLocked(sp.ID) {
				p.queue = append(p.queue, splitCursor{split: sp, offset: -1})
			}
		}
		return nil
	}
	files, err := p.expandInputs()
	if err != nil {
		p.planErr = err
		return err
	}
	size := p.normSplitSize()
	type fileScan struct {
		path   string
		total  int64
		quoted bool
		err    error
	}
	var scans []*fileScan
	for _, path := range files {
		st, err := os.Stat(path)
		if err != nil {
			p.planErr = fmt.Errorf("scan %q: %w", path, err)
			return p.planErr
		}
		if st.Size() == 0 {
			continue
		}
		scans = append(scans, &fileScan{path: path, total: st.Size()})
	}
	if p.CSV && p.restoreSig != nil {
		// Restore path: the snapshot's signature records each file's split
		// count, which encodes the original quote decision — trust it and
		// skip the probe (the signature check after planning still verifies
		// the file set). Recovery stays O(remaining split), not O(input).
		recorded := make(map[string]scanFileSig, len(p.restoreSig.Files))
		for _, f := range p.restoreSig.Files {
			recorded[f.Path] = f
		}
		for _, fs := range scans {
			if f, ok := recorded[fs.path]; ok {
				fs.quoted = fs.total > size && f.Splits == 1
			}
		}
	} else if p.CSV {
		var wg sync.WaitGroup
		sem := make(chan struct{}, 8) // bound open files and goroutines
		for _, fs := range scans {
			if fs.total <= size {
				continue // single split either way: quoting cannot matter
			}
			fs := fs
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				fs.quoted, fs.err = fileHasQuote(fs.path)
			}()
		}
		wg.Wait()
		for _, fs := range scans {
			if fs.err != nil {
				p.planErr = fmt.Errorf("scan %q: %w", fs.path, fs.err)
				return p.planErr
			}
		}
	}
	for _, fs := range scans {
		chunk := size
		if fs.quoted {
			chunk = fs.total // unsplittable: one split per file
		}
		p.splits = TileSplits(p.splits, fs.path, fs.total, chunk)
	}
	for _, sp := range p.splits {
		if p.keepLocked(sp.ID) {
			p.queue = append(p.queue, splitCursor{split: sp, offset: -1})
		}
	}
	return nil
}

// TileSplits appends byte-range splits tiling [0, total) of the named input
// in chunks of roughly chunk bytes (chunk <= 0 yields one split covering
// the whole input), continuing the ID sequence from len(splits). This is
// the one split-boundary tiling shared by the file planner and fixed-split
// sources — alignment to record boundaries stays the reader's job (first
// record starting at or after Start; a record straddling End belongs to the
// split it starts in).
func TileSplits(splits []Split, path string, total, chunk int64) []Split {
	if total <= 0 {
		return splits
	}
	if chunk <= 0 {
		chunk = total
	}
	for off := int64(0); off < total; off += chunk {
		end := off + chunk
		if end > total {
			end = total
		}
		splits = append(splits, Split{ID: len(splits), Path: path, Start: off, End: end})
	}
	return splits
}

// splitsFromSig re-derives a fixed-split plan's split list from a snapshot
// signature: each recorded file re-tiles deterministically at the recorded
// split size. Valid because fixed-split sources always tile contiguously
// from byte 0 — signatureLocked's per-file (Size, Splits) fully determines
// the ranges.
func splitsFromSig(sig *scanPlanSig) []Split {
	var splits []Split
	for _, f := range sig.Files {
		splits = TileSplits(splits, f.Path, f.Size, sig.SplitSize)
	}
	return splits
}

// acquire pops the next pending split, or ok=false when the scan is
// exhausted. Safe for concurrent subtasks — this is the dynamic assignment.
func (p *ScanPlan) acquire() (splitCursor, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.planLocked(); err != nil {
		return splitCursor{}, false, err
	}
	if len(p.queue) == 0 {
		return splitCursor{}, false, nil
	}
	c := p.queue[0]
	p.queue = p.queue[1:]
	return c, true, nil
}

// Splits exposes the planned splits (planning first if needed) — used by
// tests and the scan benchmark.
func (p *ScanPlan) Splits() ([]Split, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.planLocked(); err != nil {
		return nil, err
	}
	return append([]Split(nil), p.splits...), nil
}

// ---- snapshot format -------------------------------------------------------

// splitScanState is the snapshot of one scan subtask (FileScanSource,
// SplitScanSource). Completed lists the split IDs this subtask fully
// consumed (subtask 0 additionally re-carries the IDs completed before the
// last restore, so consecutive restores never resurrect finished splits);
// Cur is the in-flight split (ID -1: none) and the absolute byte offset of
// its next unread record — the position restore Seeks to. Pending (subtask
// 0 only) carries the restored in-flight cursors still sitting unacquired
// in the shared queue: without it, a checkpoint taken between a restore and
// the cursor's re-acquisition would forget the resume offset and a second
// recovery would re-scan the split from its start, duplicating records.
// Plan (subtask 0 only) fingerprints the split geometry the IDs refer to;
// restore refuses to reuse IDs against a plan that chops the input
// differently.
//
// Its encoding, which carries no version of its own (the checkpoint file's
// is the one format version):
//
//	completed  uvarint count, varint split IDs
//	cur        a pendingSplit: varint ID, path, varint offset
//	pending    uvarint count, pendingSplits
//	plan       bool; if set, varint split size, uvarint file count, and per
//	           file its path, varint size and varint split count
type splitScanState struct {
	Completed []int
	Cur       pendingSplit
	Pending   []pendingSplit
	Plan      *scanPlanSig
}

// pendingSplit is a resumed in-flight cursor not yet re-acquired: split ID,
// its file, and the absolute offset of its next unread record.
type pendingSplit struct {
	ID   int
	Path string
	Off  int64
}

// scanPlanSig fingerprints the plan geometry a snapshot's split IDs refer
// to: the split size plus each file's size and split count (which also
// encodes CSV quote-fallback decisions). Restore recomputes the signature
// from the current inputs and refuses a mismatch — split IDs are positional
// in the plan, so a changed split size or input set would otherwise
// silently remap completed ranges onto different bytes, dropping some
// records and duplicating others.
type scanPlanSig struct {
	SplitSize int64
	Files     []scanFileSig
}

// scanFileSig is one input file's contribution to the plan signature.
type scanFileSig struct {
	Path   string
	Size   int64
	Splits int
}

// signatureLocked derives the plan's geometry fingerprint (plan first).
func (p *ScanPlan) signatureLocked() (*scanPlanSig, error) {
	if err := p.planLocked(); err != nil {
		return nil, err
	}
	sig := &scanPlanSig{SplitSize: p.normSplitSize()}
	for _, sp := range p.splits {
		n := len(sig.Files)
		if n == 0 || sig.Files[n-1].Path != sp.Path {
			sig.Files = append(sig.Files, scanFileSig{Path: sp.Path})
			n++
		}
		f := &sig.Files[n-1]
		f.Size += sp.End - sp.Start
		f.Splits++
	}
	return sig, nil
}

// sigSplits renders a signature's total split count for error messages.
func sigSplits(s *scanPlanSig) string {
	n := 0
	for _, f := range s.Files {
		n += f.Splits
	}
	return fmt.Sprintf("%d", n)
}

// signature derives the plan's geometry fingerprint (plan first).
func (p *ScanPlan) signature() (*scanPlanSig, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.signatureLocked()
}

// sigsEqual compares two plan signatures.
func sigsEqual(a, b *scanPlanSig) bool {
	if a.SplitSize != b.SplitSize || len(a.Files) != len(b.Files) {
		return false
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			return false
		}
	}
	return true
}

func (s *splitScanState) append(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.Completed)))
	for _, id := range s.Completed {
		b = binary.AppendVarint(b, int64(id))
	}
	b = binary.AppendUvarint(s.Cur.append(b), uint64(len(s.Pending)))
	for _, p := range s.Pending {
		b = p.append(b)
	}
	b = state.AppendBool(b, s.Plan != nil)
	if s.Plan != nil {
		b = binary.AppendUvarint(binary.AppendVarint(b, s.Plan.SplitSize), uint64(len(s.Plan.Files)))
		for _, f := range s.Plan.Files {
			b = binary.AppendVarint(binary.AppendVarint(state.AppendBytes(b, f.Path), f.Size), int64(f.Splits))
		}
	}
	return b
}

func (p pendingSplit) append(b []byte) []byte {
	return binary.AppendVarint(state.AppendBytes(binary.AppendVarint(b, int64(p.ID)), p.Path), p.Off)
}

func readPendingSplit(c *state.Cursor) pendingSplit {
	return pendingSplit{ID: int(c.Varint()), Path: string(c.Bytes()), Off: c.Varint()}
}

// decodeScanState decodes a scan subtask's snapshot blob.
func decodeScanState(blob []byte) (splitScanState, error) {
	c := state.Cursor{B: blob}
	s := splitScanState{Completed: make([]int, c.Count(1))}
	for i := range s.Completed {
		s.Completed[i] = int(c.Varint())
	}
	s.Cur = readPendingSplit(&c)
	s.Pending = make([]pendingSplit, c.Count(3))
	for i := range s.Pending {
		s.Pending[i] = readPendingSplit(&c)
	}
	if c.Bool() {
		s.Plan = &scanPlanSig{SplitSize: c.Varint()}
		s.Plan.Files = make([]scanFileSig, c.Count(3))
		for i := range s.Plan.Files {
			s.Plan.Files[i] = scanFileSig{Path: string(c.Bytes()), Size: c.Varint(), Splits: int(c.Varint())}
		}
	}
	if err := c.Done(); err != nil {
		return splitScanState{}, fmt.Errorf("scan restore: %w", err)
	}
	return s, nil
}

// snapshot encodes a scan subtask's state: its completed splits, its split
// in flight, and — on subtask 0 — the restored in-flight cursors no subtask
// has re-acquired yet and the plan's geometry. Like the completed-ID carry,
// subtask 0 keeps those cursors alive in the checkpoint, or a second
// recovery would re-scan their splits from the start; the geometry makes a
// restore against differently-chopped inputs fail loudly instead of
// remapping split IDs onto different byte ranges.
func (p *ScanPlan) snapshot(subtask int, completed []int, cur pendingSplit) ([]byte, error) {
	st := splitScanState{Completed: completed, Cur: cur}
	if subtask == 0 {
		st.Pending = p.pendingResumed()
		sig, err := p.signature()
		if err != nil {
			return nil, err
		}
		st.Plan = sig
	}
	return st.append(nil), nil
}

// restoreFrom rebuilds the plan's queue from the snapshot blobs of every
// subtask of the checkpointing job (keyed by the *old* subtask index). The
// call is shared and idempotent: every reader of the stage passes the same
// blob set, the first call does the work, later calls see the result.
//
// The blobs are parallelism-agnostic: pending work is everything planned
// minus the union of completed splits, plus the in-flight splits resumed at
// their recorded offsets — so the restoring job may run at any source
// parallelism.
func (p *ScanPlan) restoreFrom(blobs map[int][]byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.restored {
		return nil
	}
	p.restored = true
	states := make([]splitScanState, 0, len(blobs))
	for _, blob := range blobs {
		s, err := decodeScanState(blob)
		if err != nil {
			return err
		}
		states = append(states, s)
	}
	for _, s := range states {
		if s.Plan != nil {
			p.restoreSig = s.Plan // planning trusts its quote decisions
			break
		}
	}
	if err := p.planLocked(); err != nil {
		return err
	}
	if p.restoreSig != nil {
		sig, err := p.signatureLocked()
		if err != nil {
			return err
		}
		if !sigsEqual(p.restoreSig, sig) {
			return fmt.Errorf("scan restore: the snapshot's split IDs were planned over %d files (%s splits of ~%d bytes) but the current inputs plan to %d files (%s splits of ~%d bytes): the input files or split size changed since the checkpoint, so split positions cannot be reused",
				len(p.restoreSig.Files), sigSplits(p.restoreSig), p.restoreSig.SplitSize, len(sig.Files), sigSplits(sig), sig.SplitSize)
		}
	}
	done := make(map[int]bool)
	// In-flight cursors come from two places — each subtask's Cur and
	// subtask 0's Pending carry — and the same split may appear in both
	// within one checkpoint (subtask 0 snapshots it as still-queued, then
	// another subtask acquires it and snapshots its own progress before
	// acking). The largest offset wins: ABS guarantees every record emitted
	// before the owner's barrier is covered by the checkpoint's downstream
	// state, and the owner's Cur offset is the furthest such position.
	inflight := map[int]pendingSplit{}
	noteInflight := func(c pendingSplit) {
		if prev, ok := inflight[c.ID]; !ok || c.Off > prev.Off {
			inflight[c.ID] = c
		}
	}
	for _, s := range states {
		for _, id := range s.Completed {
			done[id] = true
		}
		if s.Cur.ID >= 0 {
			noteInflight(s.Cur)
		}
		for _, c := range s.Pending {
			noteInflight(c)
		}
	}
	check := func(id int, path string) (Split, error) {
		if id < 0 || id >= len(p.splits) {
			return Split{}, fmt.Errorf("scan restore: snapshot references split %d but the plan holds %d (input files changed since the checkpoint)", id, len(p.splits))
		}
		sp := p.splits[id]
		if path != "" && sp.Path != path {
			return Split{}, fmt.Errorf("scan restore: split %d is %q in the plan but %q in the snapshot (input files changed since the checkpoint)", id, sp.Path, path)
		}
		return sp, nil
	}
	for id := range done {
		if _, err := check(id, ""); err != nil {
			return err
		}
		// A split both completed and in flight: completion happened at a
		// later position, so the completed record wins.
		delete(inflight, id)
	}
	// In-flight splits first (they are partially consumed — resuming them
	// promptly bounds the re-read window), then the untouched remainder.
	p.queue = p.queue[:0]
	cur := make([]pendingSplit, 0, len(inflight))
	for _, c := range inflight {
		cur = append(cur, c)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].ID < cur[j].ID })
	for _, c := range cur {
		sp, err := check(c.ID, c.Path)
		if err != nil {
			return err
		}
		done[c.ID] = true // claimed: keep it out of the pending scan below
		if c.Off >= sp.End {
			p.carry = append(p.carry, c.ID) // finished exactly at the boundary
			continue
		}
		if p.keepLocked(sp.ID) {
			p.queue = append(p.queue, splitCursor{split: sp, offset: c.Off})
		}
		// The registry stays global regardless of ownership: subtask 0
		// re-reports every resumed cursor for the whole stage.
		p.resumed = append(p.resumed, c)
	}
	for _, sp := range p.splits {
		if !done[sp.ID] && p.keepLocked(sp.ID) {
			p.queue = append(p.queue, splitCursor{split: sp, offset: -1})
		}
	}
	for id := range done {
		if _, claimed := inflight[id]; !claimed {
			p.carry = append(p.carry, id)
		}
	}
	sort.Ints(p.carry)
	return nil
}

// pendingResumed returns the registry of restored in-flight cursors at
// their resume offsets — subtask 0 includes it in every snapshot so a
// checkpoint taken at any point relative to their re-acquisition keeps the
// resume offsets (see the field comment for why the live queue cannot be
// consulted instead).
func (p *ScanPlan) pendingResumed() []pendingSplit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]pendingSplit(nil), p.resumed...)
}

// restoredCarry hands subtask 0 the completed-ID carry set of the last
// restore (nil for every other subtask).
func (p *ScanPlan) restoredCarry(subtask int) []int {
	if subtask != 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.carry...)
}
