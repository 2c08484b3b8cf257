package dataflow

import (
	"fmt"

	"repro/internal/metrics"
)

// SplitScanSource is the one splittable at-rest scan: any input that can
// open a byte-range split and iterate records plugs into the same ScanPlan
// machinery — dynamic split assignment, (split id, position) snapshots,
// seek-based restore at any parallelism. Files are read by a LineReader or a
// CSVReader (filesource.go); segment-log topics by streamline's topic
// reader, whose plan uses ScanPlan.FixedSplits because topic segments are
// not expanded from the filesystem.

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
	// Bytes reports the input bytes to credit to bytes_scanned since the
	// last call; the scan asks at a split's end and at a snapshot.
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

// OpenSource implements SourceOpener: the runtime hands the subtask's
// OpContext before restore and the first Next, and the scan registers its
// per-node observability counters on it.
func (s *SplitScanSource) OpenSource(ctx *OpContext) {
	s.Plan.SetOwnedSubtasks(ctx.LocalSubtasks, ctx.Parallelism)
	if ctx.Metrics == nil {
		return
	}
	s.mRecords = ctx.Metrics.Counter("node." + ctx.NodeName + ".records_out")
	s.mBytes = ctx.Metrics.Counter("node." + ctx.NodeName + ".bytes_scanned")
	s.mSplits = ctx.Metrics.Counter("node." + ctx.NodeName + ".splits_completed")
}

// flushMetrics publishes the locally accumulated counter deltas.
func (s *SplitScanSource) flushMetrics() {
	if s.mRecords == nil {
		return // OpenSource registers all three counters or none
	}
	s.mRecords.Add(s.pendRecords)
	s.mBytes.Add(s.pendBytes)
	s.mSplits.Add(s.pendSplits)
	s.pendRecords, s.pendBytes, s.pendSplits = 0, 0, 0
}

// Unordered reports that a split scan does not emit records in timestamp
// order: splits are assigned dynamically, so one subtask's stream may jump
// backward in position between splits. Event time over a split scan is
// closed out at end of stream (or a composite's handoff watermark), not by
// in-flight cadence watermarks.
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
			return r, true
		}
		s.completed = append(s.completed, s.cur.split.ID)
		s.pendSplits++
		s.pendBytes += s.Reader.Bytes()
		s.hasCur = false
		s.flushMetrics()
	}
}

// Snapshot implements SourceFunc with the scan state (splitScanState):
// completed split IDs, the in-flight split's resume position, and — on
// subtask 0 — the restored-pending carry and the plan's geometry signature.
// Restore Seeks, it does not re-scan.
func (s *SplitScanSource) Snapshot() ([]byte, error) {
	s.pendBytes += s.Reader.Bytes()
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
// stage may run at any parallelism. The reader's open split, if any, is
// closed.
func (s *SplitScanSource) RestoreAll(subtask, parallelism int, blobs map[int][]byte) error {
	if subtask != s.Subtask || parallelism != s.Parallelism {
		return fmt.Errorf("scan restore: RestoreAll(%d/%d) does not match the reader's subtask %d/%d", subtask, parallelism, s.Subtask, s.Parallelism)
	}
	if err := s.Plan.restoreFrom(blobs); err != nil {
		return err
	}
	s.Reader.Close()
	s.err, s.done, s.hasCur = nil, false, false
	s.completed = s.Plan.restoredCarry(s.Subtask)
	return nil
}
