package dataflow

import (
	"fmt"

	"repro/internal/metrics"
)

// SplitScanSource generalizes the splittable at-rest scan beyond plain
// files: any input that can open a byte-range split and iterate records
// plugs into the same ScanPlan machinery — dynamic split assignment,
// (split id, position) snapshots, seek-based restore at any parallelism.
// The segment-log topic source is the first such input; its plan uses
// ScanPlan.FixedSplits because topic segments are not expanded from the
// filesystem.

// SplitReader is the per-subtask reader a SplitScanSource drives. OpenSplit
// positions the reader on a split: resumeAt < 0 means a fresh split (align
// to the first record starting at or after sp.Start), resumeAt >= 0 resumes
// at that exact position — whatever Pos returned when the snapshot was
// taken. The reader owns the alignment contract (a record straddling End
// belongs to the split it starts in) and reports exhaustion with ok=false.
type SplitReader interface {
	OpenSplit(sp Split, resumeAt int64) error
	// NextInSplit returns the next record of the open split; ok=false marks
	// its clean end.
	NextInSplit() (r Record, ok bool, err error)
	// Pos is the resume position of the next unread record, in whatever
	// coordinate OpenSplit accepts as resumeAt.
	Pos() int64
	// Bytes reports the input bytes consumed since the last call (metrics).
	Bytes() int64
	Close() error
}

// SplitScanSource is one subtask of a splittable scan over a SplitReader.
// All subtasks of a stage share one Plan; each owns its Reader.
type SplitScanSource struct {
	Plan                 *ScanPlan
	Subtask, Parallelism int
	Reader               SplitReader

	err    error
	done   bool
	cur    splitCursor
	hasCur bool

	completed []int

	mRecords, mBytes, mSplits          *metrics.Counter
	pendRecords, pendBytes, pendSplits int64
}

var (
	_ MultiRestorable = (*SplitScanSource)(nil)
	_ SourceOpener    = (*SplitScanSource)(nil)
	_ Failable        = (*SplitScanSource)(nil)
)

// OpenSource implements SourceOpener: registers the scan's per-node
// observability counters (same series as the file scan).
func (s *SplitScanSource) OpenSource(ctx *OpContext) {
	s.Plan.SetOwnedSubtasks(ctx.LocalSubtasks, ctx.Parallelism)
	if ctx.Metrics == nil {
		return
	}
	s.mRecords = ctx.Metrics.Counter("node." + ctx.NodeName + ".records_out")
	s.mBytes = ctx.Metrics.Counter("node." + ctx.NodeName + ".bytes_scanned")
	s.mSplits = ctx.Metrics.Counter("node." + ctx.NodeName + ".splits_completed")
}

func (s *SplitScanSource) flushMetrics() {
	if s.mRecords != nil && s.pendRecords != 0 {
		s.mRecords.Add(s.pendRecords)
		s.pendRecords = 0
	}
	if s.mBytes != nil && s.pendBytes != 0 {
		s.mBytes.Add(s.pendBytes)
		s.pendBytes = 0
	}
	if s.mSplits != nil && s.pendSplits != 0 {
		s.mSplits.Add(s.pendSplits)
		s.pendSplits = 0
	}
}

// Unordered: dynamic split assignment may jump backward in position between
// splits, like the file scan.
func (s *SplitScanSource) Unordered() bool { return true }

// Err implements Failable.
func (s *SplitScanSource) Err() error { return s.err }

func (s *SplitScanSource) fail(err error) (Record, bool) {
	s.err = err
	s.Reader.Close()
	return Record{}, false
}

// Next implements SourceFunc: pull a split, drain it, repeat.
func (s *SplitScanSource) Next() (Record, bool) {
	if s.err != nil || s.done {
		return Record{}, false
	}
	for {
		if !s.hasCur {
			c, ok, err := s.Plan.acquire()
			if err != nil {
				return s.fail(err)
			}
			if !ok {
				s.done = true
				s.Reader.Close()
				s.flushMetrics()
				return Record{}, false
			}
			if err := s.Reader.OpenSplit(c.split, c.offset); err != nil {
				return s.fail(fmt.Errorf("scan %q split %d: %w", c.split.Path, c.split.ID, err))
			}
			s.cur, s.hasCur = c, true
		}
		r, ok, err := s.Reader.NextInSplit()
		if err != nil {
			return s.fail(fmt.Errorf("scan %q split %d: %w", s.cur.split.Path, s.cur.split.ID, err))
		}
		if ok {
			s.pendRecords++
			s.pendBytes += s.Reader.Bytes()
			return r, true
		}
		s.completed = append(s.completed, s.cur.split.ID)
		s.pendSplits++
		s.pendBytes += s.Reader.Bytes()
		s.hasCur = false
		s.flushMetrics()
	}
}

// Snapshot implements SourceFunc with the file scan's state
// (splitScanState): completed split IDs, the in-flight split's resume
// position, and — on subtask 0 — the restored-pending carry and the plan's
// geometry signature.
func (s *SplitScanSource) Snapshot() ([]byte, error) {
	s.flushMetrics()
	cur := pendingSplit{ID: -1}
	if s.hasCur {
		cur = pendingSplit{ID: s.cur.split.ID, Path: s.cur.split.Path, Off: s.Reader.Pos()}
	}
	return s.Plan.snapshot(s.Subtask, s.completed, cur)
}

// Restore implements SourceFunc for single-subtask stages; multi-subtask
// stages restore through RestoreAll.
func (s *SplitScanSource) Restore(blob []byte) error {
	return s.RestoreAll(s.Subtask, s.Parallelism, map[int][]byte{s.Subtask: blob})
}

// RestoreAll implements MultiRestorable: the shared plan rebuilds the split
// queue once from every subtask's blob (pending = planned − completed,
// in-flight splits resume at their recorded positions), so the restoring
// stage may run at any parallelism.
func (s *SplitScanSource) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	if subtask != s.Subtask || parallelism != s.Parallelism {
		return fmt.Errorf("scan restore: RestoreAll(%d/%d) does not match the reader's subtask %d/%d", subtask, parallelism, s.Subtask, s.Parallelism)
	}
	if err := s.Plan.restoreFrom(blobs); err != nil {
		return err
	}
	s.err, s.done, s.hasCur = nil, false, false
	s.completed = s.Plan.restoredCarry(s.Subtask)
	return nil
}
