package dataflow

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/state"
)

// Job is an executable instance of a Graph: channels, subtask goroutines, an
// optional checkpoint coordinator, and optional recovery state.
type Job struct {
	g        *Graph
	backend  state.Backend
	interval time.Duration
	restore  *state.Snapshot
	chaining bool
	reg      *metrics.Registry

	completed atomic.Int64
}

// JobOption configures a Job.
type JobOption func(*Job)

// WithCheckpointing enables periodic asynchronous barrier snapshotting to
// the given backend.
func WithCheckpointing(b state.Backend, interval time.Duration) JobOption {
	return func(j *Job) {
		j.backend = b
		j.interval = interval
	}
}

// WithRestore starts the job from a recovery snapshot: every operator and
// source subtask is handed its state blob before processing.
func WithRestore(snap *state.Snapshot) JobOption {
	return func(j *Job) { j.restore = snap }
}

// SetRestore installs a recovery snapshot after construction. Distributed
// workers need this: the snapshot arrives over the wire with the plan, long
// after the SPMD binary built its Job. Must be called before Run.
func (j *Job) SetRestore(snap *state.Snapshot) { j.restore = snap }

// WithChaining toggles operator chaining (fusing forward edges into a single
// goroutine). Enabled by default; the E10 ablation turns it off.
func WithChaining(on bool) JobOption {
	return func(j *Job) { j.chaining = on }
}

// WithMetrics attaches a metrics registry: the job reports per-node input
// record counts ("node.<name>.records_in"), per-source run counts
// ("node.<name>.runs": records_in/runs is the mean length of the runs the
// source gathers — near the batch size at rest, one in motion), per-node
// watermark progress ("node.<name>.watermark"), completed checkpoint count
// ("job.checkpoints") and checkpoint end-to-end duration
// ("job.checkpoint_nanos").
func WithMetrics(reg *metrics.Registry) JobOption {
	return func(j *Job) { j.reg = reg }
}

// nodeMetrics caches a node's instruments so the hot path avoids registry
// lookups.
type nodeMetrics struct {
	recordsIn *metrics.Counter
	runs      *metrics.Counter // source nodes only
	watermark *metrics.Gauge
}

func (j *Job) nodeMetrics(name string) *nodeMetrics {
	if j.reg == nil {
		return nil
	}
	return &nodeMetrics{
		recordsIn: j.reg.Counter("node." + name + ".records_in"),
		watermark: j.reg.Gauge("node." + name + ".watermark"),
	}
}

// NewJob prepares a graph for execution.
func NewJob(g *Graph, opts ...JobOption) *Job {
	j := &Job{g: g, chaining: true}
	for _, o := range opts {
		o(j)
	}
	return j
}

// CompletedCheckpoints reports how many checkpoints were fully persisted.
func (j *Job) CompletedCheckpoints() int64 { return j.completed.Load() }

// validateRestore checks that the recovery snapshot is compatible with this
// job's physical plan. Keyed state (stored per key group) redistributes to
// any parallelism; per-subtask state — source positions, unkeyed operator
// scalars — cannot, so a node whose parallelism changed may only restore if
// its per-subtask blobs are all empty. NumKeyGroups is a plan constant and
// must match the snapshot's.
func (j *Job) validateRestore(numGroups int) error {
	if len(j.restore.Groups) > 0 && j.restore.NumKeyGroups != numGroups {
		return fmt.Errorf("dataflow: snapshot written with %d key groups cannot restore into a graph with %d (NumKeyGroups is a plan constant)",
			j.restore.NumKeyGroups, numGroups)
	}
	for _, n := range j.g.nodes {
		oldPar := 0
		hasState := false
		for k, blob := range j.restore.Entries {
			if k.OperatorID != n.ID {
				continue
			}
			if k.Subtask+1 > oldPar {
				oldPar = k.Subtask + 1
			}
			if len(blob) > 0 {
				hasState = true
			}
		}
		if oldPar == 0 || oldPar == n.Parallelism {
			continue
		}
		if hasState {
			// Splittable sources are the exception: their snapshot state is a
			// set of splits, not a position per subtask, and RestoreAll
			// redistributes it at any parallelism. Probe a throwaway instance
			// for the capability (factories are cheap and side-effect-free
			// until first read). The probe is best-effort: composite sources
			// (PacedSource, the typed layer's readers) implement
			// MultiRestorable unconditionally and apply PositionalBlob to
			// their positional parts inside RestoreAll, so those mismatch
			// errors surface at source restore time — still before any data
			// flows.
			if n.NewSource != nil {
				if _, ok := n.NewSource(0, n.Parallelism).(MultiRestorable); ok {
					continue
				}
			}
			return fmt.Errorf("dataflow: node %q checkpointed at parallelism %d cannot restore at %d: its per-subtask state does not redistribute (only keyed state, stored per key group, and splittable at-rest scans rescale)",
				n.Name, oldPar, n.Parallelism)
		}
	}
	return nil
}

// ---- physical plan -------------------------------------------------------

// chainInfo maps every node to the head of its operator chain.
type chainInfo struct {
	head  map[*Node]*Node   // node -> chain head
	tail  map[*Node]*Node   // head -> last node of the chain
	links map[*Node][]*Node // head -> chained nodes in order (excluding head)
}

// buildChains fuses a node into its upstream when the edge is Forward, the
// upstream has exactly one consumer, and parallelism matches (guaranteed by
// Validate for Forward edges). A free function so placement (which must see
// the same chains as execution) can share it.
func buildChains(g *Graph, chaining bool) chainInfo {
	consumers := make(map[*Node]int)
	for _, n := range g.nodes {
		for _, e := range n.In {
			consumers[e.From]++
		}
	}
	ci := chainInfo{
		head:  make(map[*Node]*Node),
		tail:  make(map[*Node]*Node),
		links: make(map[*Node][]*Node),
	}
	for _, n := range g.nodes {
		chainable := chaining &&
			n.NewOperator != nil &&
			len(n.In) == 1 &&
			n.In[0].Part == Forward &&
			consumers[n.In[0].From] == 1
		if chainable {
			h := ci.head[n.In[0].From]
			ci.head[n] = h
			ci.links[h] = append(ci.links[h], n)
			ci.tail[h] = n
		} else {
			ci.head[n] = n
			ci.tail[n] = n
		}
	}
	return ci
}

// ---- runtime structures ----------------------------------------------------

type ackMsg struct {
	ckpt int64
	key  state.SubtaskKey
	blob []byte
	// groups carries a keyed operator's per-key-group blobs, produced by
	// the asynchronous serialization phase; the ack is sent only once they
	// have all been encoded.
	groups map[int][]byte
}

type runtime struct {
	ctx     context.Context
	cancel  context.CancelFunc
	errOnce sync.Once
	err     error
	wg      sync.WaitGroup

	ackCh    chan ackMsg
	controls []chan int64 // one per source subtask: checkpoint triggers
	needAcks int
}

func (rt *runtime) fail(err error) {
	if err == nil || err == context.Canceled {
		return
	}
	rt.errOnce.Do(func() { rt.err = err })
	rt.cancel()
}

// ---- batched exchange ------------------------------------------------------

// Exchange tuning defaults. Records cross subtask boundaries in pooled
// batches: a staged batch is shipped when it reaches the batch size, when the
// flush interval elapses (bounding in-motion latency), and always before a
// control record (watermark, barrier, end) so per-channel ordering and ABS
// barrier alignment are preserved.
const (
	// DefaultBatchSize is the number of data records staged per exchange
	// batch when Graph.BatchSize is unset.
	DefaultBatchSize = 64
	// DefaultFlushInterval bounds how long a staged record may wait before
	// being shipped when Graph.FlushInterval is unset.
	DefaultFlushInterval = 10 * time.Millisecond
)

// batchPool recycles exchange batches between senders and receivers. All
// edges of a job share one pool; receivers return fully consumed batches.
type batchPool struct {
	size int
	pool sync.Pool
}

func newBatchPool(size int) *batchPool {
	bp := &batchPool{size: size}
	bp.pool.New = func() any {
		b := make([]Record, 0, size)
		return &b
	}
	return bp
}

func (bp *batchPool) get() []Record {
	return (*bp.pool.Get().(*[]Record))[:0]
}

// put recycles a consumed batch. Entries are cleared first so the pool does
// not pin record payloads across reuse.
func (bp *batchPool) put(b []Record) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	clear(b)
	b = b[:0]
	bp.pool.Put(&b)
}

// outputs routes a subtask's emissions to downstream channels through
// per-edge, per-downstream-subtask staging buffers. The mutex covers the
// staging state: the owning subtask goroutine appends and flushes on the hot
// path, and the periodic flusher (startFlusher) ships half-full batches so a
// quiet in-motion pipeline never strands records in a buffer.
type outputs struct {
	ctx        context.Context
	pool       *batchPool
	batchSize  int
	flushEvery time.Duration
	numGroups  int // key-group count for hash routing

	mu sync.Mutex
	// Run-routing scratch (guarded by mu, reused across runs): the key hash
	// per record — computed once and shared by every hash edge of the run —
	// the destination slot per record for the edge being routed, and the
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

// stageLocked appends one record to the slot's staged batch, shipping it when
// full: how broadcast stages a control record behind the slot's data.
func (o *outputs) stageLocked(e *outEdge, slot int, r Record) bool {
	if e.stage[slot] == nil {
		e.stage[slot] = o.pool.get()
	}
	e.stage[slot] = append(e.stage[slot], r)
	if len(e.stage[slot]) >= o.batchSize {
		return o.flushSlotLocked(e, slot)
	}
	return true
}

// flushSlotLocked ships the slot's staged batch, if any.
func (o *outputs) flushSlotLocked(e *outEdge, slot int) bool {
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

// stageRunLocked appends a slice of records destined for one slot to its
// staged batch, shipping at the boundaries staging them one at a time would:
// fill to batchSize, ship, continue.
func (o *outputs) stageRunLocked(e *outEdge, slot int, recs []Record) bool {
	for len(recs) > 0 {
		if e.stage[slot] == nil {
			e.stage[slot] = o.pool.get()
		}
		room := o.batchSize - len(e.stage[slot])
		if room > len(recs) {
			room = len(recs)
		}
		e.stage[slot] = append(e.stage[slot], recs[:room]...)
		recs = recs[room:]
		if len(e.stage[slot]) >= o.batchSize {
			if !o.flushSlotLocked(e, slot) {
				return false
			}
		}
	}
	return true
}

// routeRunLocked stages a whole data run on one edge: bulk appends for the
// single-destination partitionings, a strided gather for Rebalance, and for
// HashPartition a counting sort over cached per-record hashes, so each
// destination's records append in one contiguous slice. Hash routing goes via
// the key group, so routing and keyed-state partitioning agree: the subtask
// receiving a key is exactly the subtask owning its state's key group. Per
// slot, record order is the run's and batches ship when they fill, so what a
// channel carries does not depend on how the records were cut into runs.
func (o *outputs) routeRunLocked(e *outEdge, b []Record) bool {
	n := len(e.chans)
	switch e.part {
	case BroadcastPartition:
		for slot := 0; slot < n; slot++ {
			if !o.stageRunLocked(e, slot, b) {
				return false
			}
		}
	case HashPartition:
		if n == 1 {
			if !o.stageRunLocked(e, 0, b) {
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
			if !o.stageRunLocked(e, slot, seg) {
				return false
			}
		}
		// Don't pin shipped payloads in the scratch until the next run.
		clear(o.gather)
	case Rebalance:
		if n == 1 {
			e.rr += len(b)
			return o.stageRunLocked(e, 0, b)
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
			if !o.stageRunLocked(e, slot, seg) {
				return false
			}
			clear(seg)
		}
		e.rr += len(b)
	default: // Forward: the single peer slot
		if !o.stageRunLocked(e, 0, b) {
			return false
		}
	}
	return true
}

// dataBatch routes a run of data records under a single staging-lock
// acquisition — the chain's one exit into the exchange.
func (o *outputs) dataBatch(b []Record) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.hashBuf = o.hashBuf[:0]
	for i := range o.edges {
		if !o.routeRunLocked(&o.edges[i], b) {
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
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range o.edges {
		e := &o.edges[i]
		for slot := range e.chans {
			if !o.stageLocked(e, slot, r) {
				return false
			}
			if !o.flushSlotLocked(e, slot) {
				return false
			}
		}
	}
	return true
}

// flushAll ships every non-empty staged batch (the flusher's tick).
func (o *outputs) flushAll() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range o.edges {
		e := &o.edges[i]
		for slot := range e.chans {
			if !o.flushSlotLocked(e, slot) {
				return false
			}
		}
	}
	return true
}

// startFlusher launches the periodic flush goroutine bounding how long a
// record may sit in a staging buffer — the in-motion latency guard. It
// no-ops for sinks (no edges) and when the interval is negative (disabled).
// The returned stop function must be called before the subtask exits; the
// goroutine is tracked by wg so Run cannot return while a flusher lives.
func (o *outputs) startFlusher(wg *sync.WaitGroup) (stop func()) {
	if o.flushEvery <= 0 || len(o.edges) == 0 {
		return func() {}
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(o.flushEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-o.ctx.Done():
				return
			case <-t.C:
				o.flushAll()
			}
		}
	}()
	return func() { close(done) }
}

// ---- Run -------------------------------------------------------------------

// Run executes the job until all sinks finish (bounded inputs) or the
// context is cancelled (unbounded). It returns the first subtask error, or
// ctx.Err() on cancellation, or nil on normal completion.
func (j *Job) Run(ctx context.Context) error {
	return j.run(ctx, nil)
}

// run is the shared execution core. part == nil is the local fast path: all
// subtasks run here, exchange edges are direct Go channels, and the job owns
// its checkpoint coordinator. With a Participation only the subtasks placed
// on part.Self run, cross-participant edges go through part.Transport, and
// checkpointing is driven externally (part.Triggers in, part.Acks out).
func (j *Job) run(ctx context.Context, part *Participation) error {
	if err := j.g.Validate(); err != nil {
		return err
	}
	numGroups := j.g.numKeyGroups()
	if j.restore != nil {
		if err := j.validateRestore(numGroups); err != nil {
			return err
		}
	}
	ci := buildChains(j.g, j.chaining)

	// Placement helpers. In local mode every subtask is placed here.
	self := 0
	var placement Placement
	var transport EdgeTransport
	if part != nil {
		self = part.Self
		placement = part.Placement
		transport = part.Transport
	}
	partOf := func(n *Node, s int) int {
		if placement == nil {
			return self
		}
		return placement[ci.head[n].ID][s]
	}
	isLocal := func(n *Node, s int) bool { return partOf(n, s) == self }
	// localSubs lists a node's locally placed subtasks; nil in local mode
	// (meaning "all"), so the single-process plan is bit-identical to before.
	localSubs := func(n *Node) []int {
		if placement == nil {
			return nil
		}
		subs := make([]int, 0, n.Parallelism)
		for s := 0; s < n.Parallelism; s++ {
			if isLocal(n, s) {
				subs = append(subs, s)
			}
		}
		return subs
	}

	runCtx, cancel := context.WithCancel(ctx)
	rt := &runtime{ctx: runCtx, cancel: cancel}
	defer cancel()

	// Count acks per checkpoint: every node snapshots per subtask. In
	// participant mode only local subtasks ack here (the coordinator
	// assembles the global set), so size the buffer to the local count.
	for _, n := range j.g.nodes {
		if part == nil {
			rt.needAcks += n.Parallelism
		} else {
			rt.needAcks += len(localSubs(n))
		}
	}
	rt.ackCh = make(chan ackMsg, rt.needAcks+16)

	// Exchange configuration: batch size, flush interval, shared pool.
	batchSize := j.g.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	flushEvery := j.g.FlushInterval
	if flushEvery == 0 {
		flushEvery = DefaultFlushInterval
	}
	pool := newBatchPool(batchSize)

	// Channel matrices for unchained edges: in[to][edgeIdx][toSub][fromSub].
	// Channels carry pooled record batches; capacity is the record-
	// denominated BufferSize divided down by the batch size (floor 4, so
	// tiny buffers still pipeline), keeping the worst-case records queued
	// per channel roughly constant across batch sizes.
	bufBatches := j.g.BufferSize / batchSize
	if bufBatches < 4 {
		bufBatches = 4
	}
	inCh := make(map[*Node][][][]chan []Record)
	for _, n := range j.g.nodes {
		if ci.head[n] != n {
			continue // chained: no physical inputs
		}
		if n.NewOperator == nil {
			continue
		}
		mats := make([][][]chan []Record, len(n.In))
		for ei, e := range n.In {
			mat := make([][]chan []Record, n.Parallelism)
			for ts := 0; ts < n.Parallelism; ts++ {
				if !isLocal(n, ts) {
					continue // remote consumer subtask: no local inputs
				}
				row := make([]chan []Record, e.From.Parallelism)
				for fs := 0; fs < e.From.Parallelism; fs++ {
					if isLocal(e.From, fs) {
						row[fs] = make(chan []Record, bufBatches)
					} else {
						// Remote producer: the transport demultiplexes its
						// frames into this registered channel.
						row[fs] = transport.Inbound(ChannelRef{Node: n.ID, Edge: ei, To: ts, From: fs}, bufBatches)
					}
				}
				mat[ts] = row
			}
			mats[ei] = mat
		}
		inCh[n] = mats
	}

	// slotFor resolves the physical channel carrying (producer subtask s ->
	// consumer subtask ts) on the consumer's ei-th edge: a direct channel
	// when the consumer subtask is local, a transport feeder otherwise.
	slotFor := func(consumer *Node, ei, ts, s int) chan []Record {
		if isLocal(consumer, ts) {
			return inCh[consumer][ei][ts][s]
		}
		return transport.Outbound(ChannelRef{Node: consumer.ID, Edge: ei, To: ts, From: s}, partOf(consumer, ts), bufBatches)
	}

	// outputsFor builds the outputs of chain-tail `tail` for subtask s.
	outputsFor := func(tail *Node, s int) *outputs {
		o := &outputs{ctx: runCtx, pool: pool, batchSize: batchSize, flushEvery: flushEvery, numGroups: numGroups}
		for _, consumer := range j.g.nodes {
			if ci.head[consumer] != consumer {
				continue
			}
			for ei, e := range consumer.In {
				if e.From != tail {
					continue
				}
				var chans []chan []Record
				if e.Part == Forward {
					// one slot: this subtask's peer
					chans = []chan []Record{slotFor(consumer, ei, s, s)}
				} else {
					chans = make([]chan []Record, consumer.Parallelism)
					for ts := 0; ts < consumer.Parallelism; ts++ {
						chans[ts] = slotFor(consumer, ei, ts, s)
					}
				}
				var queued *metrics.Gauge
				if j.reg != nil {
					// One gauge per logical edge, shared by its producer
					// subtasks: sampled as channel occupancy after each ship,
					// the observability seed for credit-based backpressure.
					queued = j.reg.Gauge(fmt.Sprintf("edge.%s.%d.queued_batches", consumer.Name, ei))
				}
				o.edges = append(o.edges, outEdge{part: e.Part, chans: chans, stage: make([][]Record, len(chans)), queued: queued})
			}
		}
		return o
	}

	restoreBlob := func(n *Node, s int) []byte {
		if j.restore == nil {
			return nil
		}
		return j.restore.Get(state.SubtaskKey{OperatorID: n.ID, Subtask: s})
	}
	// restoreSourceBlobs collects a source node's non-empty per-subtask blobs
	// from the recovery snapshot, keyed by the old subtask index.
	restoreSourceBlobs := func(snap *state.Snapshot, n *Node) map[int][]byte {
		if snap == nil {
			return nil
		}
		var out map[int][]byte
		for k, b := range snap.EntriesOf(n.ID) {
			if len(b) == 0 {
				continue
			}
			if out == nil {
				out = make(map[int][]byte)
			}
			out[k] = b
		}
		return out
	}
	// restoreGroups redistributes the snapshot's keyed-state blobs: the
	// range is the *new* subtask's — whatever parallelism this job runs at
	// — and the blobs come from whichever subtasks wrote them.
	restoreGroups := func(n *Node, s int) map[int][]byte {
		if j.restore == nil {
			return nil
		}
		start, end := state.GroupRangeFor(numGroups, n.Parallelism, s)
		return j.restore.GroupsOf(n.ID, start, end)
	}

	// Build and launch subtasks.
	var launchErr error
	for _, n := range j.g.nodes {
		if ci.head[n] != n {
			continue
		}
		chainNodes := append([]*Node{}, ci.links[n]...)
		tail := ci.tail[n]
		var srcBlobs map[int][]byte
		if n.NewSource != nil {
			srcBlobs = restoreSourceBlobs(j.restore, n)
		}
		locals := localSubs(n)
		for s := 0; s < n.Parallelism; s++ {
			if !isLocal(n, s) {
				continue
			}
			ch := &chain{out: outputsFor(tail, s), subtask: s}
			nm := j.nodeMetrics(n.Name)
			if nm != nil {
				ch.wmGauge = nm.watermark
			}
			if n.NewOperator != nil {
				ch.nodes = append([]*Node{n}, chainNodes...)
			} else {
				ch.nodes = chainNodes
			}
			for _, cn := range ch.nodes {
				op := cn.NewOperator()
				if err := op.Open(&OpContext{
					NodeID: cn.ID, NodeName: cn.Name, Subtask: s,
					Parallelism: cn.Parallelism, NumKeyGroups: numGroups,
					Metrics: j.reg, Restore: restoreBlob(cn, s),
					RestoreGroups: restoreGroups(cn, s),
					LocalSubtasks: locals,
				}); err != nil {
					launchErr = fmt.Errorf("open %q/%d: %w", cn.Name, s, err)
					break
				}
				ch.ops = append(ch.ops, op)
			}
			if launchErr != nil {
				break
			}
			ch.build()

			if n.NewSource != nil {
				src := n.NewSource(s, n.Parallelism)
				if so, ok := src.(SourceOpener); ok {
					so.OpenSource(&OpContext{
						NodeID: n.ID, NodeName: n.Name, Subtask: s,
						Parallelism: n.Parallelism, NumKeyGroups: numGroups,
						Metrics: j.reg, LocalSubtasks: locals,
					})
				}
				// Sources restore from the node-wide blob set: splittable
				// scans redistribute their remaining splits across this job's
				// parallelism, positional sources take their own subtask's
				// blob (RestoreSource enforces the difference). Subtask 0
				// restores (and with it a stage-shared scan plan rebuilds
				// from the full blob set) before its own goroutine launches;
				// later subtasks restore while subtask 0 may already be
				// scanning, which is safe because their RestoreAll calls are
				// idempotent no-ops on the already-rebuilt shared plan.
				if len(srcBlobs) > 0 {
					if err := RestoreSource(src, s, n.Parallelism, srcBlobs); err != nil {
						launchErr = fmt.Errorf("restore source %q/%d: %w", n.Name, s, err)
						break
					}
				}
				control := make(chan int64, 4)
				rt.controls = append(rt.controls, control)
				node, sub := n, s
				rt.wg.Add(1)
				if nm != nil {
					nm.runs = j.reg.Counter("node." + n.Name + ".runs")
				}
				go func() {
					defer rt.wg.Done()
					rt.fail(runSource(rt, node, sub, src, ch, control, nm))
				}()
			} else {
				ins := make([]chan []Record, 0)
				edges := make([]int, 0)
				for ei := range n.In {
					if n.In[ei].Part == Forward {
						// An unchained Forward edge carries exactly one live
						// channel: the producer peer with the same subtask
						// index. The rest of the row is never written, and a
						// subtask listening on it would wait forever for an
						// End that cannot come.
						ins = append(ins, inCh[n][ei][s][s])
						edges = append(edges, ei)
						continue
					}
					for _, c := range inCh[n][ei][s] {
						ins = append(ins, c)
						edges = append(edges, ei)
					}
				}
				node, sub := n, s
				rt.wg.Add(1)
				go func() {
					defer rt.wg.Done()
					rt.fail(runOperator(rt, node, sub, ins, edges, ch, nm))
				}()
			}
		}
		if launchErr != nil {
			break
		}
	}
	if launchErr != nil {
		cancel()
		rt.wg.Wait()
		return launchErr
	}

	// Checkpoint coordination. Local mode owns the full loop; a participant
	// instead receives externally injected triggers and forwards its local
	// acks to the distributed coordinator for global assembly.
	coordDone := make(chan struct{})
	var auxWg sync.WaitGroup
	if part == nil {
		if j.backend != nil && j.interval > 0 {
			go j.coordinate(rt, coordDone)
		} else {
			close(coordDone)
		}
	} else {
		close(coordDone)
		if part.Triggers != nil {
			auxWg.Add(1)
			go func() {
				defer auxWg.Done()
				for {
					var id int64
					select {
					case <-runCtx.Done():
						return
					case id = <-part.Triggers:
					}
					for _, c := range rt.controls {
						select {
						case c <- id:
						case <-runCtx.Done():
							return
						}
					}
				}
			}()
		}
		if part.Acks != nil {
			auxWg.Add(1)
			go func() {
				defer auxWg.Done()
				for {
					var a ackMsg
					select {
					case <-runCtx.Done():
						return
					case a = <-rt.ackCh:
					}
					select {
					case part.Acks <- Ack{Ckpt: a.ckpt, Key: a.key, Blob: a.blob, Groups: a.groups}:
					case <-runCtx.Done():
						return
					}
				}
			}()
		}
		if part.OnRunning != nil {
			part.OnRunning()
		}
	}

	rt.wg.Wait()
	cancel()
	<-coordDone
	auxWg.Wait()
	if rt.err != nil {
		return rt.err
	}
	return ctx.Err()
}

// coordinate triggers periodic checkpoints and assembles completed
// snapshots. One checkpoint is in flight at a time.
func (j *Job) coordinate(rt *runtime, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(j.interval)
	defer ticker.Stop()
	var nextID int64 = 1
	if j.restore != nil {
		nextID = j.restore.CheckpointID + 1
	}
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-ticker.C:
		}
		id := nextID
		nextID++
		ckptStart := time.Now()
		// Trigger all sources.
		for _, c := range rt.controls {
			select {
			case c <- id:
			case <-rt.ctx.Done():
				return
			}
		}
		// Collect acks. Keyed operators ack only after their asynchronous
		// serialization lands, so a completed checkpoint always holds every
		// key group.
		snap := state.NewSnapshot(id)
		snap.NumKeyGroups = j.g.numKeyGroups()
		got := 0
		for got < rt.needAcks {
			select {
			case a := <-rt.ackCh:
				if a.ckpt != id {
					continue // stale ack from an abandoned checkpoint
				}
				snap.Put(a.key, a.blob)
				for g, blob := range a.groups {
					snap.PutGroup(state.GroupKey{OperatorID: a.key.OperatorID, KeyGroup: g}, blob)
				}
				got++
			case <-rt.ctx.Done():
				return
			}
		}
		if err := j.backend.Persist(snap); err != nil {
			rt.fail(fmt.Errorf("persist checkpoint %d: %w", id, err))
			return
		}
		j.completed.Add(1)
		if j.reg != nil {
			j.reg.Counter("job.checkpoints").Inc()
			j.reg.Histogram("job.checkpoint_nanos").Observe(time.Since(ckptStart).Nanoseconds())
		}
	}
}

// runSource drives a source subtask on the run-at-a-time path operator
// subtasks use. Each iteration gathers one run — records pulled with
// src.Next() into a reused scratch until it holds batchSize data records, the
// source returns a control record (a watermark) or the stream ends — hands it
// to the chain with one dispatchRun call, then handles whatever ended it, so
// nothing pulled from the source is held across an iteration.
//
// Cancellation and checkpoint triggers are polled once per run, so a barrier
// is injected between runs, where the snapshot is exact: src.Snapshot() is the
// position after the last Next, and every record before it is through the
// chain and in the exchange ahead of the barrier. A run never spans a call
// that may wait: while the source reports MayWait the run capacity is one, so
// a record in motion is in the staging buffers, under the flusher's latency
// bound, the moment it is read.
func runSource(rt *runtime, n *Node, subtask int, src SourceFunc, ch *chain, control chan int64, nm *nodeMetrics) error {
	stopFlush := ch.out.startFlusher(&rt.wg)
	defer stopFlush()
	done := rt.ctx.Done()
	run := make([]Record, 0, ch.out.batchSize)
	for {
		// Two single-channel polls, not one select: an empty channel is then
		// a lock-free check, not a lock on the Done channel all subtasks share.
		select {
		case <-done:
			return nil
		default:
		}
		select {
		case ckpt := <-control:
			blob, err := src.Snapshot()
			if err != nil {
				return fmt.Errorf("snapshot source %q/%d: %w", n.Name, subtask, err)
			}
			msg := ackMsg{ckpt: ckpt, key: state.SubtaskKey{OperatorID: n.ID, Subtask: subtask}, blob: blob}
			select {
			case rt.ackCh <- msg:
			case <-done:
				return nil
			}
			if err := ch.snapshotAll(rt, ckpt); err != nil {
				return err
			}
			if !ch.out.broadcast(Barrier(ckpt)) {
				return nil
			}
			continue
		default:
		}
		limit := cap(run)
		if sourceMayWait(src) {
			limit = 1
		}
		run = run[:0]
		var ctrl Record // the control record that ended the run, if one did
		ended := false
		for len(run) < limit {
			r, ok := src.Next()
			if !ok {
				ended = true
				break
			}
			if r.Kind != KindData {
				ctrl = r
				break
			}
			run = append(run, r)
		}
		if len(run) > 0 {
			if nm != nil {
				nm.recordsIn.Add(int64(len(run)))
				nm.runs.Inc()
			}
			ch.dispatchRun(0, run)
			clear(run) // the scratch must not pin payloads until the next run
		}
		switch {
		case ended:
			if err := sourceErr(src); err != nil {
				return fmt.Errorf("source %q/%d: %w", n.Name, subtask, err)
			}
			if !ch.advance(math.MaxInt64) {
				return nil
			}
			return ch.finish()
		case ctrl.Kind == KindWatermark:
			if !ch.advance(ctrl.Ts) {
				return nil
			}
		}
	}
}

// inState tracks one input channel of an operator subtask. batch/pos hold
// the received batch currently being consumed. Senders flush a control
// record in the same send as the data staged before it, so a barrier is
// last-in-batch by construction and blocking a channel mid-batch leaves no
// remainder; the cursor still survives a block defensively, in case a
// future sender ships controls mid-batch.
type inState struct {
	ch      chan []Record
	wm      int64
	ended   bool
	blocked bool // barrier alignment
	batch   []Record
	pos     int
}

// runOperator drives an operator subtask: merge inputs, track watermarks,
// align barriers, and finish when all inputs end. Inputs arrive as pooled
// record batches; the loop walks each batch in order (per-channel order is
// the sender's emission order), data runs going to the chain whole, and
// returns consumed batches to the pool. edges[i] is the logical input-edge
// index of channel i, surfaced to EdgeAware head operators (joins need to
// know which side a record arrived on).
func runOperator(rt *runtime, n *Node, subtask int, inputs []chan []Record, edges []int, ch *chain, nm *nodeMetrics) error {
	stopFlush := ch.out.startFlusher(&rt.wg)
	defer stopFlush()
	pool := ch.out.pool
	ins := make([]inState, len(inputs))
	for i, c := range inputs {
		ins[i] = inState{ch: c, wm: math.MinInt64}
	}
	curWM := int64(math.MinInt64)
	var aligning int64 // current barrier id, 0 = none
	var alignSeen int

	activeDirty := true
	var active []int
	var cases []reflect.SelectCase

	rebuild := func() {
		active = active[:0]
		for i := range ins {
			if !ins[i].ended && !ins[i].blocked {
				active = append(active, i)
			}
		}
		cases = cases[:0]
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(rt.ctx.Done())})
		for _, i := range active {
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ins[i].ch)})
		}
		activeDirty = false
	}

	minWM := func() int64 {
		m := int64(math.MaxInt64)
		anyOpen := false
		for i := range ins {
			if ins[i].ended {
				continue
			}
			anyOpen = true
			if ins[i].wm < m {
				m = ins[i].wm
			}
		}
		if !anyOpen {
			return math.MaxInt64
		}
		return m
	}

	completeBarrier := func(ckpt int64) error {
		if err := ch.snapshotAll(rt, ckpt); err != nil {
			return err
		}
		if !ch.out.broadcast(Barrier(ckpt)) {
			return nil
		}
		for i := range ins {
			ins[i].blocked = false
		}
		aligning = 0
		alignSeen = 0
		activeDirty = true
		return nil
	}

	barriersNeeded := func() int {
		need := 0
		for i := range ins {
			if !ins[i].ended {
				need++
			}
		}
		return need
	}

	// consume drains ins[idx]'s buffered batch from its cursor. It stops early
	// when a barrier blocks the channel (the remainder is held) and returns
	// stop=true when the subtask is finished (all inputs ended, or the job
	// was cancelled mid-broadcast). records_in is bumped once per data run.
	consume := func(idx int) (stop bool, err error) {
		in := &ins[idx]
		for in.pos < len(in.batch) {
			r := in.batch[in.pos]
			in.pos++
			switch r.Kind {
			case KindData:
				// Extend the run across every contiguous data record: the
				// whole run goes to the chain in one dispatchRun call.
				// Control records are excluded, so they keep their place
				// between the data before and after them.
				start := in.pos - 1
				for in.pos < len(in.batch) && in.batch[in.pos].Kind == KindData {
					in.pos++
				}
				if nm != nil {
					nm.recordsIn.Add(int64(in.pos - start))
				}
				ch.dispatchRun(edges[idx], in.batch[start:in.pos])
			case KindWatermark:
				if r.Ts > in.wm {
					in.wm = r.Ts
					if m := minWM(); m > curWM {
						curWM = m
						if !ch.advance(curWM) {
							return true, nil
						}
					}
				}
			case KindBarrier:
				if aligning == 0 {
					aligning = r.Ts
				}
				if r.Ts != aligning {
					continue // stale barrier from an abandoned checkpoint
				}
				in.blocked = true
				alignSeen++
				activeDirty = true
				if alignSeen >= barriersNeeded() {
					if err := completeBarrier(aligning); err != nil {
						return true, err
					}
				}
				if in.blocked {
					// Alignment still pending. A barrier is last-in-batch by
					// construction, so the batch is exhausted here and goes
					// back to the pool (the next receive would otherwise
					// overwrite it); the guard keeps any remainder — only
					// possible with a mid-batch control — held until the
					// barrier completes and unblocks the channel.
					if in.pos >= len(in.batch) {
						pool.put(in.batch)
						in.batch, in.pos = nil, 0
					}
					return false, nil
				}
			case KindEnd:
				in.ended = true
				in.blocked = false
				activeDirty = true
				if m := minWM(); m > curWM && m != math.MaxInt64 {
					curWM = m
					if !ch.advance(curWM) {
						return true, nil
					}
				}
				// An ended channel counts as having delivered any barrier.
				if aligning != 0 && alignSeen >= barriersNeeded() {
					if err := completeBarrier(aligning); err != nil {
						return true, err
					}
				}
				allEnded := true
				for i := range ins {
					if !ins[i].ended {
						allEnded = false
						break
					}
				}
				if allEnded {
					if !ch.advance(math.MaxInt64) {
						return true, nil
					}
					return true, ch.finish()
				}
				// Nothing follows an end marker on its channel.
				pool.put(in.batch)
				in.batch, in.pos = nil, 0
				return false, nil
			}
		}
		pool.put(in.batch)
		in.batch, in.pos = nil, 0
		return false, nil
	}

	for {
		// Drain held batch remainders of channels that can progress before
		// receiving anything new. With the control-last-in-batch invariant
		// this scan finds nothing (blocked channels recycle their exhausted
		// batch at the block point); it is the defensive half of the
		// mid-batch cursor, and costs one O(#inputs) pass per batch.
		progressed := false
		for i := range ins {
			in := &ins[i]
			if !in.blocked && !in.ended && in.pos < len(in.batch) {
				stop, err := consume(i)
				if stop || err != nil {
					return err
				}
				progressed = true
				break
			}
		}
		if progressed {
			continue
		}
		if activeDirty {
			rebuild()
		}
		if len(active) == 0 {
			allEnded := true
			for i := range ins {
				if !ins[i].ended {
					allEnded = false
					break
				}
			}
			if allEnded {
				return ch.finish()
			}
			if rt.ctx.Err() != nil {
				return nil // cancelled mid-alignment; not a deadlock
			}
			// All non-ended inputs are blocked on alignment but the barrier
			// is incomplete — impossible unless every channel delivered it,
			// which completeBarrier handles. Defensive:
			return fmt.Errorf("dataflow: %q/%d deadlocked in barrier alignment", n.Name, subtask)
		}

		var idx int
		var b []Record
		if len(active) == 1 {
			select {
			case <-rt.ctx.Done():
				return nil
			case b = <-ins[active[0]].ch:
				idx = active[0]
			}
		} else {
			// Fan-in: sweep the active channels with non-blocking receives
			// and pay for the reflective select (and its boxed batch header)
			// only when all are empty and the subtask has to sleep. The sweep
			// starts at a random channel, as select does: no input starves,
			// and a strict rotation, which locks the producers into step with
			// the consumer, measured 10-30% slower on keyed windows.
			select {
			case <-rt.ctx.Done():
				return nil
			default:
			}
			start := rand.IntN(len(active))
			for k := 0; k < len(active) && b == nil; k++ {
				idx = active[(start+k)%len(active)]
				select {
				case b = <-ins[idx].ch:
				default:
				}
			}
			if b == nil {
				chosen, val, _ := reflect.Select(cases)
				if chosen == 0 {
					return nil
				}
				idx = active[chosen-1]
				b = val.Interface().([]Record)
			}
		}
		ins[idx].batch, ins[idx].pos = b, 0
		stop, err := consume(idx)
		if stop || err != nil {
			return err
		}
	}
}
