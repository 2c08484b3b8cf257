package dataflow

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/state"
)

// ---- batched exchange ------------------------------------------------------

// DefaultBatchSize is the number of data records staged per exchange batch
// when Graph.BatchSize is unset. Records cross subtask boundaries in pooled
// batches; record.go lists when a staged batch ships.
const DefaultBatchSize = 64

// BatchPool recycles exchange batches between senders and receivers. All
// edges of a job share one pool, across the wire too: a transport returns a
// batch it has shipped to the pool and decodes a received one into a batch
// from it (EdgeTransport.UsePool), so gets (staged + decoded) and puts
// (consumed + shipped) balance on every participant. A batch travels through
// the pool in a *[]Record carrier, and carriers are pooled too, so a balanced
// Get and Put allocate nothing.
type BatchPool struct {
	pool      sync.Pool // *[]Record holding a batch
	carriers  sync.Pool // empty *[]Record
	allocated atomic.Int64
}

// NewBatchPool returns a pool of batches for size records. A new batch has
// room for at most DefaultBatchSize of them and grows as it is filled: the
// stager ships by length, so a large batch size costs memory only where
// batches fill.
func NewBatchPool(size int) *BatchPool {
	bp := &BatchPool{}
	bp.pool.New = func() any {
		bp.allocated.Add(1)
		b := make([]Record, 0, min(size, DefaultBatchSize))
		return &b
	}
	return bp
}

// Get returns an empty batch.
func (bp *BatchPool) Get() []Record {
	c := bp.pool.Get().(*[]Record)
	b := (*c)[:0]
	*c = nil
	bp.carriers.Put(c)
	return b
}

// Put recycles a consumed batch. Entries are cleared first so the pool does
// not pin record payloads across reuse.
func (bp *BatchPool) Put(b []Record) {
	if cap(b) == 0 {
		return
	}
	clear(b[:cap(b)])
	c, _ := bp.carriers.Get().(*[]Record)
	if c == nil {
		c = new([]Record)
	}
	*c = b[:0]
	bp.pool.Put(c)
}

// Allocated reports how many batches the pool has had to allocate because
// none was free. It stays flat on a job whose pool balances.
func (bp *BatchPool) Allocated() int64 { return bp.allocated.Load() }

// outputs routes a subtask's emissions to downstream channels through
// per-edge, per-downstream-subtask staging buffers. Only the owning subtask
// goroutine touches it: it stages and ships on the hot path, and at an early
// flush (see runSource and runOperator) sends a flush marker to every slot
// it has sent data since the last one, so a quiet in-motion pipeline strands
// nothing in a buffer without a timer.
type outputs struct {
	ctx       context.Context
	pool      *BatchPool
	batchSize int
	numGroups int // key-group count for hash routing

	// Run-routing scratch (reused across runs): the key hash per record —
	// computed once and shared by every hash edge of the run — the
	// destination slot per record for the edge being routed, and the
	// slot-grouped gather buffer whose contiguous segments append into the
	// staged batches.
	hashBuf []uint64
	slotBuf []int32
	segLen  []int32
	segOff  []int32
	gather  []Record
	edges   []outEdge
}

type outEdge struct {
	part   Partitioning
	chans  []chan []Record // indexed by downstream subtask (this upstream's slot)
	stage  [][]Record      // staged batch per slot; nil when empty
	sent   []bool          // per slot: data staged since the last flush marker
	rr     int             // per-edge round-robin cursor (Rebalance only)
	queued *metrics.Gauge  // edge.<consumer>.<i>.queued_batches, nil without metrics
}

func (o *outputs) send(ch chan []Record, b []Record) bool {
	select {
	case ch <- b:
		return true
	case <-o.ctx.Done():
		return false
	}
}

// shipWith appends a control record behind the slot's staged data and ships
// the batch at once, so the control arrives after everything staged before it.
func (o *outputs) shipWith(e *outEdge, slot int, r Record) bool {
	if e.stage[slot] == nil {
		e.stage[slot] = o.pool.Get()
	}
	e.stage[slot] = append(e.stage[slot], r)
	return o.flushSlot(e, slot)
}

// flushSlot ships the slot's staged batch, if any.
func (o *outputs) flushSlot(e *outEdge, slot int) bool {
	b := e.stage[slot]
	if len(b) == 0 {
		return true
	}
	e.stage[slot] = nil
	if !o.send(e.chans[slot], b) {
		return false
	}
	if e.queued != nil {
		e.queued.Set(int64(len(e.chans[slot])))
	}
	return true
}

// stageRun appends a slice of records destined for one slot to its
// staged batch, shipping at the boundaries staging them one at a time would:
// fill to batchSize, ship, continue.
func (o *outputs) stageRun(e *outEdge, slot int, recs []Record) bool {
	e.sent[slot] = true
	for len(recs) > 0 {
		if e.stage[slot] == nil {
			e.stage[slot] = o.pool.Get()
		}
		room := o.batchSize - len(e.stage[slot])
		if room > len(recs) {
			room = len(recs)
		}
		e.stage[slot] = append(e.stage[slot], recs[:room]...)
		recs = recs[room:]
		if len(e.stage[slot]) >= o.batchSize {
			if !o.flushSlot(e, slot) {
				return false
			}
		}
	}
	return true
}

// routeRun stages a whole data run on one edge: bulk appends for the
// single-destination partitionings, a strided gather for Rebalance, and for
// HashPartition a counting sort over cached per-record hashes, so each
// destination's records append in one contiguous slice. Hash routing goes via
// the key group, so routing and keyed-state partitioning agree: the subtask
// receiving a key is exactly the subtask owning its state's key group. Per
// slot, record order is the run's and batches ship when they fill, so what a
// channel carries does not depend on how the records were cut into runs.
func (o *outputs) routeRun(e *outEdge, b []Record) bool {
	n := len(e.chans)
	switch e.part {
	case BroadcastPartition:
		for slot := 0; slot < n; slot++ {
			if !o.stageRun(e, slot, b) {
				return false
			}
		}
	case HashPartition:
		if n == 1 {
			if !o.stageRun(e, 0, b) {
				return false
			}
			return true
		}
		if len(o.hashBuf) < len(b) {
			// One hash per record per run: the first hash edge fills the
			// cache, further hash edges of the same run reuse it (dataBatch
			// truncates it between runs).
			for i := len(o.hashBuf); i < len(b); i++ {
				o.hashBuf = append(o.hashBuf, state.Hash64(b[i].Key))
			}
		}
		o.slotBuf = o.slotBuf[:0]
		o.segLen = o.segLen[:0]
		o.segLen = append(o.segLen, make([]int32, n)...)
		for i := range b {
			g := int(o.hashBuf[i] % uint64(o.numGroups))
			slot := int32(state.SubtaskForGroup(g, o.numGroups, n))
			o.slotBuf = append(o.slotBuf, slot)
			o.segLen[slot]++
		}
		o.segOff = o.segOff[:0]
		total := int32(0)
		for _, c := range o.segLen {
			o.segOff = append(o.segOff, total)
			total += c
		}
		if cap(o.gather) < len(b) {
			o.gather = make([]Record, len(b))
		} else {
			o.gather = o.gather[:len(b)]
		}
		for i := range b {
			slot := o.slotBuf[i]
			o.gather[o.segOff[slot]] = b[i]
			o.segOff[slot]++
		}
		for slot := 0; slot < n; slot++ {
			end := o.segOff[slot]
			seg := o.gather[end-o.segLen[slot] : end]
			if len(seg) == 0 {
				continue
			}
			if !o.stageRun(e, slot, seg) {
				return false
			}
		}
		// Don't pin shipped payloads in the scratch until the next run.
		clear(o.gather)
	case Rebalance:
		if n == 1 {
			e.rr += len(b)
			return o.stageRun(e, 0, b)
		}
		// Record i goes to slot (rr+i)%n — gather each slot's stride so the
		// per-slot sequences match the per-record round-robin exactly.
		if cap(o.gather) < len(b) {
			o.gather = make([]Record, 0, len(b))
		}
		for slot := 0; slot < n; slot++ {
			first := ((slot-e.rr%n)%n + n) % n
			seg := o.gather[:0]
			for i := first; i < len(b); i += n {
				seg = append(seg, b[i])
			}
			if len(seg) == 0 {
				continue
			}
			if !o.stageRun(e, slot, seg) {
				return false
			}
			clear(seg)
		}
		e.rr += len(b)
	default: // Forward: the single peer slot
		if !o.stageRun(e, 0, b) {
			return false
		}
	}
	return true
}

// dataBatch routes a run of data records — the chain's one exit into the
// exchange.
func (o *outputs) dataBatch(b []Record) bool {
	o.hashBuf = o.hashBuf[:0]
	for i := range o.edges {
		if !o.routeRun(&o.edges[i], b) {
			return false
		}
	}
	return true
}

// broadcast delivers a control record (watermark/barrier/end) to every
// downstream subtask of every edge. The control record is appended to each
// slot's staged batch and the batch is shipped immediately, so on every
// channel all data staged before the control arrives before it — the
// ordering ABS barrier alignment and watermark semantics depend on.
func (o *outputs) broadcast(r Record) bool {
	for i := range o.edges {
		e := &o.edges[i]
		for slot := range e.chans {
			if !o.shipWith(e, slot, r) {
				return false
			}
		}
	}
	return true
}

// flushAll is the early flush: every slot sent data since its last flush
// marker ships a new one, behind what it has staged or alone if that data
// already shipped, so the marker reaches every consumer the data did.
func (o *outputs) flushAll() bool {
	for i := range o.edges {
		e := &o.edges[i]
		for slot, sent := range e.sent {
			e.sent[slot] = false
			if sent && !o.shipWith(e, slot, Record{Kind: KindFlush}) {
				return false
			}
		}
	}
	return true
}
