package dataflow

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/state"
)

// chain is the per-subtask instantiation of a chain of operators, and the
// one driver that moves data through it: a run enters through dispatchRun, and
// event time and the end of the stream through advance and finish.
type chain struct {
	nodes   []*Node    // chain nodes in order (head first for operator chains)
	ops     []Operator // instances, aligned with nodes
	colls   []*runCollector
	out     *outputs
	subtask int
	wmGauge *metrics.Gauge // node.<head>.watermark, nil without metrics

	// edgeAware is the head operator when it takes its runs tagged with
	// their arrival edge (joins).
	edgeAware EdgeAware
}

// runCollector is the Collector of one chain position: what ops[pos] emits
// through out. It holds at most a batch of records and hands them on as one
// run — down the rest of the chain and into the exchange — when it fills and
// whenever the driver drains it, which it does after every call into
// ops[pos]. A burst emitted by one call (a watermark closing every open
// window) therefore moves downstream in runs of at most the batch size while
// the call is still emitting, and nothing waits in a collector between calls.
type runCollector struct {
	c   *chain
	pos int
	buf []Record // capacity batchSize, allocated once
}

// Collect implements Collector.
func (rc *runCollector) Collect(r Record) {
	rc.buf = append(rc.buf, r)
	if len(rc.buf) == cap(rc.buf) {
		rc.drain()
	}
}

func (rc *runCollector) drain() {
	if len(rc.buf) == 0 {
		return
	}
	b := rc.buf
	rc.c.processRun(rc.pos+1, b)
	clear(b) // the buffer must not pin payloads until it is next filled
	rc.buf = b[:0]
}

// build creates the collectors: colls[i] is what ops[i] emits into.
func (c *chain) build() {
	c.colls = make([]*runCollector, len(c.ops))
	for i := range c.ops {
		c.colls[i] = &runCollector{c: c, pos: i, buf: make([]Record, 0, c.out.batchSize)}
	}
	if len(c.ops) > 0 {
		c.edgeAware, _ = c.ops[0].(EdgeAware)
	}
}

// dispatchRun hands one contiguous run of data records — never a control
// record — to the chain, and is the one way data enters it: runOperator calls
// it with the data of each inbound batch and the logical edge it arrived on,
// runSource with each run it gathered (edge 0).
func (c *chain) dispatchRun(edge int, b []Record) {
	if c.edgeAware == nil {
		c.processRun(0, b)
		return
	}
	b = c.edgeAware.OnBatchEdge(edge, b, c.colls[0])
	c.colls[0].drain()
	c.processRun(1, b)
}

// processRun takes a run through the chain from the from-th operator on: each
// operator transforms the whole run with one OnBatch call, what it emitted
// through its collector goes downstream first, then the run it returned, and
// the survivors exit into the exchange in one dataBatch call. Operators may
// compact the run in place: its owner (the receiver of a pooled batch, the
// source's scratch, an upstream collector) does not read it again.
func (c *chain) processRun(from int, b []Record) {
	for i := from; i < len(c.ops) && len(b) > 0; i++ {
		b = c.ops[i].OnBatch(b, c.colls[i])
		c.colls[i].drain()
	}
	if len(b) > 0 {
		c.out.dataBatch(b)
	}
}

// advance moves the chain's event time to wm: every operator observes the
// watermark in chain order, each one's results going downstream before the
// next operator — and, through the broadcast, the next subtask — sees it. It
// reports false when the job was cancelled mid-broadcast.
func (c *chain) advance(wm int64) bool {
	if c.wmGauge != nil {
		c.wmGauge.Max(wm)
	}
	for i, op := range c.ops {
		op.OnWatermark(wm, c.colls[i])
		c.colls[i].drain()
	}
	return c.out.broadcast(Watermark(wm))
}

// finish ends the stream: every operator flushes in chain order, a Failable
// operator that lost output fails the subtask, and the end marker follows
// the last results into the exchange.
func (c *chain) finish() error {
	for i, op := range c.ops {
		op.Finish(c.colls[i])
		c.colls[i].drain()
	}
	for i, op := range c.ops {
		if f, ok := op.(Failable); ok {
			if err := f.Err(); err != nil {
				return fmt.Errorf("operator %q/%d: %w", c.nodes[i].Name, c.subtask, err)
			}
		}
	}
	c.out.broadcast(End())
	return nil
}

// checkpoint is a subtask's step of checkpoint id: snapshot the chain, then
// forward the barrier behind everything it emitted before it. A source takes
// it between two runs, an operator when the gate completes the alignment.
func (c *chain) checkpoint(rt *runtime, id int64) error {
	if err := c.snapshotAll(rt, id); err != nil {
		return err
	}
	if !c.out.broadcast(Barrier(id)) {
		return context.Canceled // cancelled mid-broadcast: the subtask just stops
	}
	return nil
}

// snapshotAll snapshots every operator in the chain and acks each. Keyed
// operators take only a copy-on-write capture on this (barrier) path; the
// expensive serialization runs on a separate goroutine, and the ack — which
// the coordinator needs to complete the checkpoint — is sent only when the
// asynchronous phase lands.
func (c *chain) snapshotAll(rt *runtime, ckpt int64) error {
	subtask := c.subtask
	for i, op := range c.ops {
		name := c.nodes[i].Name
		key := state.SubtaskKey{OperatorID: c.nodes[i].ID, Subtask: subtask}
		blob, err := op.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot %q: %w", name, err)
		}
		if h, ok := op.(KeyedStateful); ok {
			captured := h.KeyedState().Capture()
			// The subtask goroutine still holds a WaitGroup slot, so the
			// counter cannot reach zero while this Add races Run's Wait.
			rt.wg.Add(1)
			go func() {
				defer rt.wg.Done()
				groups, err := captured.EncodeGroups()
				if err != nil {
					rt.fail(fmt.Errorf("async snapshot %q/%d: %w", name, subtask, err))
					return
				}
				select {
				case rt.acks <- Ack{Ckpt: ckpt, Key: key, Blob: blob, Groups: groups}:
				case <-rt.ctx.Done():
				}
			}()
			continue
		}
		select {
		case rt.acks <- Ack{Ckpt: ckpt, Key: key, Blob: blob}:
		case <-rt.ctx.Done():
			return rt.ctx.Err()
		}
	}
	return nil
}
