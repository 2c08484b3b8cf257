package dataflow

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"repro/internal/clock"
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
	ckpts    *Checkpoints
	clk      clock.Clock
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

// WithChaining toggles operator chaining (fusing forward edges into a single
// goroutine). Enabled by default; the E10 ablation turns it off.
func WithChaining(on bool) JobOption {
	return func(j *Job) { j.chaining = on }
}

// WithMetrics attaches a metrics registry: the job reports per-node input
// record counts ("node.<name>.records_in"), per-source run counts
// ("node.<name>.runs": records_in/runs is the mean length of the runs the
// source gathers — near the batch size at rest, one in motion), per-node
// watermark progress ("node.<name>.watermark") and per-edge channel
// occupancy ("edge.<consumer>.<i>.queued_batches"). A run that coordinates its
// own checkpoints (Run with WithCheckpointing) also counts them
// ("job.checkpoints") and times each from trigger to persisted
// ("job.checkpoint_nanos"); a participant leaves both to its coordinator,
// whose Checkpoints reports them.
func WithMetrics(reg *metrics.Registry) JobOption {
	return func(j *Job) { j.reg = reg }
}

// WithClock sets the clock of the job's control plane: the checkpoint
// interval and its duration, and (OpContext.Clock) its sources' idle polls,
// back-offs and pacing. Nil or unset means clock.Real.
func WithClock(c clock.Clock) JobOption {
	return func(j *Job) { j.clk = c }
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
	j.clk = clock.Or(j.clk)
	j.ckpts = NewCheckpoints(g, j.backend, j.reg, j.clk)
	return j
}

// CompletedCheckpoints reports how many checkpoints were fully persisted.
func (j *Job) CompletedCheckpoints() int64 { return j.ckpts.Completed() }

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

type runtime struct {
	ctx     context.Context
	cancel  context.CancelFunc
	errOnce sync.Once
	err     error
	wg      sync.WaitGroup

	acks     chan<- Ack
	controls []chan int64 // one per source subtask: checkpoint triggers
}

func (rt *runtime) fail(err error) {
	if err == nil || err == context.Canceled {
		return
	}
	rt.errOnce.Do(func() { rt.err = err })
	rt.cancel()
}

// ---- Run -------------------------------------------------------------------

// Run executes the job until all sinks finish (bounded inputs) or the
// context is cancelled (unbounded). It returns the first subtask error, or
// ctx.Err() on cancellation, or nil on normal completion. With
// WithCheckpointing the job runs as its own and only participant beside its
// coordinator (see coordinate).
func (j *Job) Run(ctx context.Context) error {
	if j.backend == nil || j.interval <= 0 {
		return j.run(ctx, &Participation{})
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	triggers, acks := make(chan int64), make(chan Ack, j.g.totalSubtasks()+16)
	coordErr := make(chan error, 1)
	go func() {
		err := j.coordinate(ctx, triggers, acks)
		if err != nil {
			cancel()
		}
		coordErr <- err
	}()
	err := j.run(ctx, &Participation{Triggers: triggers, Acks: acks})
	cancel()
	if cerr := <-coordErr; cerr != nil {
		return cerr
	}
	return err
}

// coordinate is a local run's checkpoint coordinator: every interval it
// begins a checkpoint unless one is still in flight and triggers the sources
// with it, and it offers every ack to the job's Checkpoints.
func (j *Job) coordinate(ctx context.Context, triggers chan<- int64, acks <-chan Ack) error {
	j.ckpts.Resume(j.restore)
	ticker := j.clk.NewTicker(j.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
			if id, ok := j.ckpts.Begin(); ok {
				select {
				case triggers <- id:
				case <-ctx.Done():
					return nil
				}
			}
		case a := <-acks:
			if err := j.ckpts.Offer(a); err != nil {
				return err
			}
		}
	}
}

// run is the shared execution core. Only the subtasks placed on part.Self
// run here — all of them when part.Placement is nil, the local case, where
// every exchange edge is a direct Go channel; cross-participant edges go
// through part.Transport. Checkpoint ids arrive on part.Triggers and subtask
// acks leave on part.Acks (both nil: no checkpoints).
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
	self, placement, transport := part.Self, part.Placement, part.Transport
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
	rt := &runtime{ctx: runCtx, cancel: cancel, acks: part.Acks}
	defer cancel()

	// Exchange configuration: batch size, shared pool.
	batchSize := j.g.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	pool := NewBatchPool(batchSize)
	if transport != nil {
		transport.UsePool(pool) // before any channel is registered
	}

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
		o := &outputs{ctx: runCtx, pool: pool, batchSize: batchSize, numGroups: numGroups}
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
				o.edges = append(o.edges, outEdge{part: e.Part, chans: chans, stage: make([][]Record, len(chans)), sent: make([]bool, len(chans)), queued: queued})
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
					LocalSubtasks: locals, Clock: j.clk, Done: runCtx.Done(),
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
						Metrics: j.reg, LocalSubtasks: locals, Clock: j.clk,
						Done: runCtx.Done(),
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

	// Fan every checkpoint trigger out to the local sources; subtasks ack
	// straight into part.Acks.
	fanOut := make(chan struct{})
	go func() {
		defer close(fanOut)
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
	if part.OnRunning != nil {
		part.OnRunning()
	}

	rt.wg.Wait()
	cancel()
	<-fanOut
	if rt.err != nil {
		return rt.err
	}
	return ctx.Err()
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
// that may wait: asked before each Next, a MayWaiter that answers true ends
// the run there, and with the run handed over the subtask makes an early
// flush (flushAll) before it makes the call.
func runSource(rt *runtime, n *Node, subtask int, src SourceFunc, ch *chain, control chan int64, nm *nodeMetrics) error {
	waiter, _ := src.(MayWaiter)
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
			select {
			case rt.acks <- Ack{Ckpt: ckpt, Key: state.SubtaskKey{OperatorID: n.ID, Subtask: subtask}, Blob: blob}:
			case <-done:
				return nil
			}
			if err := ch.checkpoint(rt, ckpt); err != nil {
				return err
			}
			continue
		default:
		}
		run = run[:0]
		var ctrl Record // the control record that ended the run, if one did
		ended := false
		for len(run) < cap(run) {
			if waiter != nil && waiter.MayWait() {
				if len(run) > 0 {
					break // hand the run over, then come back to wait
				}
				if !ch.out.flushAll() {
					return nil
				}
			}
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

// runOperator drives an operator subtask: it receives pooled record batches
// from its input channels, hands each batch's data to the chain as one run,
// and hands the control record that may end it to the subtask's gate, whose
// answer it applies. A batch is zero or more data records, then at most one
// control record — the exchange never ships another shape (record.go) — and
// per-channel order is the sender's emission order. edges[i] is the logical
// input-edge index of channel i, surfaced to EdgeAware head operators (joins
// need to know which side a run arrived on).
func runOperator(rt *runtime, n *Node, subtask int, inputs []chan []Record, edges []int, ch *chain, nm *nodeMetrics) error {
	pool := ch.out.pool
	g := newGate(len(inputs))
	var check func(int, Record, step, []int) error
	if newGateCheck != nil {
		check = newGateCheck(len(inputs))
	}
	cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(rt.ctx.Done())}}

	for {
		active := g.active
		var idx int
		var b []Record
		if len(active) == 1 {
			select {
			case <-rt.ctx.Done():
				return nil
			case b = <-inputs[active[0]]:
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
				case b = <-inputs[idx]:
				default:
				}
			}
			if b == nil {
				cases = cases[:1]
				for _, i := range active {
					cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(inputs[i])})
				}
				chosen, val, _ := reflect.Select(cases)
				if chosen == 0 {
					return nil
				}
				idx = active[chosen-1]
				b = val.Interface().([]Record)
			}
		}

		run, r := b, Record{}
		if last := len(b) - 1; last >= 0 && b[last].Kind != KindData {
			run, r = b[:last], b[last]
		}
		if len(run) > 0 {
			if nm != nil {
				nm.recordsIn.Add(int64(len(run)))
			}
			ch.dispatchRun(edges[idx], run)
		}
		pool.Put(b)
		if r.Kind == KindData {
			continue
		}

		st := g.control(idx, r)
		if check != nil {
			if err := check(idx, r, st, g.active); err != nil {
				return fmt.Errorf("dataflow: %q/%d: %w", n.Name, subtask, err)
			}
		}
		if st.flush && !ch.out.flushAll() {
			return nil
		}
		if st.advance && !ch.advance(st.wm) {
			return nil
		}
		if st.barrier != 0 {
			if err := ch.checkpoint(rt, st.barrier); err != nil {
				return err
			}
		}
		if st.done {
			if !ch.advance(math.MaxInt64) {
				return nil
			}
			return ch.finish()
		}
	}
}
