package dataflow

import "testing"

// CollectSink checkpoints its collected count and rolls back to it on Open —
// the supervised-restart contract that keeps in-process output exactly-once
// across epoch replays.
func TestCollectSinkRollsBackToCheckpointedCount(t *testing.T) {
	s := &CollectSink{}
	for i := 0; i < 5; i++ {
		FeedOne(s, Record{Kind: KindData, Ts: int64(i)}, nil)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The failed epoch collected three more records past the checkpoint;
	// restoring must discard exactly those.
	for i := 5; i < 8; i++ {
		FeedOne(s, Record{Kind: KindData, Ts: int64(i)}, nil)
	}
	if err := s.Open(&OpContext{Restore: blob}); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if len(recs) != 5 {
		t.Fatalf("restored sink holds %d records, want the checkpointed 5", len(recs))
	}
	for i, r := range recs {
		if r.Ts != int64(i) {
			t.Fatalf("record %d has Ts %d; rollback must keep the prefix intact", i, r.Ts)
		}
	}

	// A from-scratch restart (no restore blob) clears the sink entirely: the
	// replay will reproduce everything.
	if err := s.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Records()); n != 0 {
		t.Fatalf("fresh-start Open left %d records, want 0", n)
	}

	// A cross-process restore (count exceeds what this instance holds) is a
	// no-op, never an out-of-range slice.
	if err := s.Open(&OpContext{Restore: blob}); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Records()); n != 0 {
		t.Fatalf("over-long restore fabricated %d records", n)
	}
}
