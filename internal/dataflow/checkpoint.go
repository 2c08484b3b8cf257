package dataflow

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/state"
)

// Ack is one subtask's contribution to a checkpoint: its per-subtask blob
// plus, for a keyed operator, the per-key-group blobs its asynchronous
// serialization encoded. A subtask sends it only once that serialization has
// landed, so a completed checkpoint holds every key group.
type Ack struct {
	Ckpt   int64
	Key    state.SubtaskKey
	Blob   []byte
	Groups map[int][]byte
}

// Checkpoints is the one place a checkpoint completes, whether the job runs
// in one process (Job.Run drives it) or across participants (the distributed
// coordinator does). It numbers checkpoints, keeps at most one in flight,
// assembles the acks of every subtask of the job into a snapshot, persists it
// and counts it — in Completed and, with a registry, in "job.checkpoints" and
// "job.checkpoint_nanos" (Begin to persisted). Acks for any other checkpoint,
// such as one an earlier epoch abandoned, and duplicates are dropped. Resume,
// Begin and Offer are called from one goroutine, Completed from any.
type Checkpoints struct {
	backend   state.Backend
	reg       *metrics.Registry
	need      int // acks a checkpoint assembles: one per subtask of the job
	numGroups int
	next      int64
	pending   *state.Snapshot // the checkpoint in flight, nil when none is
	got       map[state.SubtaskKey]bool
	clk       clock.Clock
	began     time.Time
	completed atomic.Int64
}

// NewCheckpoints returns the checkpoint coordinator of g's job, persisting to
// backend, reporting into reg unless it is nil and timing checkpoints on clk
// (nil: clock.Real). Ids start at 1.
func NewCheckpoints(g *Graph, backend state.Backend, reg *metrics.Registry, clk clock.Clock) *Checkpoints {
	return &Checkpoints{backend: backend, reg: reg, clk: clock.Or(clk), need: g.totalSubtasks(), numGroups: g.numKeyGroups(), next: 1}
}

// Resume starts a run from restore (nil: from scratch): the next checkpoint
// is numbered after restore's, and one still in flight is abandoned.
func (c *Checkpoints) Resume(restore *state.Snapshot) {
	c.next, c.pending, c.got = 1, nil, nil
	if restore != nil {
		c.next = restore.CheckpointID + 1
	}
}

// Begin opens the next checkpoint and returns the id the sources are to be
// triggered with, or false while the previous checkpoint is still in flight.
func (c *Checkpoints) Begin() (int64, bool) {
	if c.pending != nil {
		return 0, false
	}
	c.pending = state.NewSnapshot(c.next)
	c.pending.NumKeyGroups = c.numGroups
	c.got = make(map[state.SubtaskKey]bool, c.need)
	c.began = c.clk.Now()
	c.next++
	return c.pending.CheckpointID, true
}

// Offer merges one ack into the checkpoint in flight and persists the
// snapshot once every subtask of the job has acked.
func (c *Checkpoints) Offer(a Ack) error {
	if c.pending == nil || a.Ckpt != c.pending.CheckpointID || c.got[a.Key] {
		return nil
	}
	c.got[a.Key] = true
	c.pending.Put(a.Key, a.Blob)
	for g, blob := range a.Groups {
		c.pending.PutGroup(state.GroupKey{OperatorID: a.Key.OperatorID, KeyGroup: g}, blob)
	}
	if len(c.got) < c.need {
		return nil
	}
	snap := c.pending
	c.pending, c.got = nil, nil
	if err := c.backend.Persist(snap); err != nil {
		return fmt.Errorf("persist checkpoint %d: %w", snap.CheckpointID, err)
	}
	c.completed.Add(1)
	if c.reg != nil {
		c.reg.Counter("job.checkpoints").Inc()
		c.reg.Histogram("job.checkpoint_nanos").Observe(c.clk.Now().Sub(c.began).Nanoseconds())
	}
	return nil
}

// Completed reports how many checkpoints were persisted.
func (c *Checkpoints) Completed() int64 { return c.completed.Load() }
