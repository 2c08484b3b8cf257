package dataflow

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/state"
)

// OpContext carries per-subtask information into Operator.Open.
type OpContext struct {
	NodeID      int
	NodeName    string
	Subtask     int
	Parallelism int
	// NumKeyGroups is the plan's key-group count (<= 0 means the default),
	// from which the subtask's owned group range derives.
	NumKeyGroups int
	// Metrics is the job's registry, or nil when metrics are disabled.
	// Operators may register their own instruments under "node.<name>.".
	Metrics *metrics.Registry
	// Restore holds the subtask's non-keyed state blob from the recovery
	// snapshot, or nil on a fresh start.
	Restore []byte
	// RestoreGroups holds the recovery snapshot's keyed-state blobs for the
	// key groups this subtask owns *now* — written by whatever subtask
	// ranges the checkpointing job ran with. Nil on a fresh start.
	RestoreGroups map[int][]byte
	// LocalSubtasks lists the node's subtasks running in this process. Nil
	// (single-process execution) means all of them. Stage-shared resources
	// — in particular the dynamic split queue of at-rest scans — use it to
	// partition work that would otherwise be claimed twice across
	// participants of a distributed run.
	LocalSubtasks []int
	// Clock is the job's control-plane clock (WithClock); nil: clock.Real.
	Clock clock.Clock
	// Done is closed when the run is cancelled; nil never closes. A source
	// that waits on Clock also selects on it, so a cancelled job does not
	// wait for its next element to be due.
	Done <-chan struct{}
}

// NewKeyedState builds the subtask's keyed-state container for the plan's
// key-group settings. Zero-value contexts (direct operator tests) get
// parallelism 1 and the default group count, owning every group.
func (ctx *OpContext) NewKeyedState() *state.KeyedState {
	ng := ctx.NumKeyGroups
	if ng <= 0 {
		ng = state.DefaultNumKeyGroups
	}
	par := ctx.Parallelism
	if par <= 0 {
		par = 1
	}
	start, end := state.GroupRangeFor(ng, par, ctx.Subtask)
	return state.NewKeyedState(ng, start, end)
}

// RestoreKeyedState loads the recovery snapshot's group blobs into ks. Call
// it after every cell is registered. A legacy per-subtask blob (snapshots
// written before keyed state moved to key groups) is an error rather than
// silent state loss.
func (ctx *OpContext) RestoreKeyedState(ks *state.KeyedState) error {
	if ctx.Restore != nil {
		return fmt.Errorf("dataflow: %q/%d: snapshot holds per-subtask keyed state (pre-key-group format); it cannot be restored", ctx.NodeName, ctx.Subtask)
	}
	for g, blob := range ctx.RestoreGroups {
		if err := ks.RestoreGroup(g, blob); err != nil {
			return fmt.Errorf("dataflow: %q/%d: %w", ctx.NodeName, ctx.Subtask, err)
		}
	}
	return nil
}

// KeyedStateful is implemented by operators keeping their per-key state in
// a state.KeyedState. The runtime snapshots them per key group with the
// asynchronous copy-on-write protocol — capture at the barrier, serialize
// off the hot path — instead of the synchronous per-subtask Snapshot blob
// (which such operators use only for residual non-keyed state, usually
// returning nil).
type KeyedStateful interface {
	KeyedState() *state.KeyedState
}

// Collector receives the data records an operator emits downstream, from
// OnBatch, OnWatermark or Finish. Watermarks, barriers and end markers are
// forwarded by the runtime — operators emit only data records.
//
// The collector an operator is handed belongs to its position in the chain.
// It holds at most Graph.BatchSize records: when it fills it hands them on as
// one run — to the next operator of the chain, or into the exchange behind
// the last — and the driver drains whatever it holds as soon as the call that
// collected into it returns. So what an operator emits in one call is
// downstream, in emission order and in runs of at most the batch size, before
// anything that follows the call: the run OnBatch returns, the watermark
// OnWatermark was called for, the end of the stream after Finish.
type Collector interface {
	Collect(r Record)
}

// Operator is one subtask instance of a dataflow operator. Instances are
// never shared between subtasks, so implementations need no internal
// locking.
//
// A run — a contiguous sequence of data records — is the only way data
// reaches an operator. The runtime splits what a subtask receives at every
// control record, so a run never holds or spans a watermark, barrier or end
// marker, and hands each run down the chain whole; a record in motion is a
// run of one. How records are grouped into runs is physical (the batch size,
// what a source had ready, where a control record fell) and must be
// invisible: an operator's output and state after a sequence of records may
// not depend on where the sequence was cut into runs.
type Operator interface {
	// Open initializes the subtask, restoring state from ctx.Restore when
	// recovering.
	Open(ctx *OpContext) error
	// OnBatch processes one run and returns the records to forward
	// downstream; nil or an empty slice forwards nothing. The run is the
	// operator's to overwrite: it may compact b in place and return it (maps
	// overwrite slots, filters delete by copy-down), or return a buffer of
	// its own that stays valid until its next OnBatch call. It may also emit
	// through out — records collected there are delivered before the
	// returned ones. Neither b nor the returned slice may be retained past
	// the call; state that outlives it must copy what it keeps. Writes to
	// keyed state may be deferred to the end of the run: a barrier never
	// falls inside one, so no snapshot can observe mid-run state.
	OnBatch(b []Record, out Collector) []Record
	// OnWatermark observes the subtask's event-time advance (the minimum
	// across all input channels). Results it emits through out reach the
	// next operator before the watermark does.
	OnWatermark(wm int64, out Collector)
	// Snapshot serializes the subtask's state for a checkpoint barrier.
	Snapshot() ([]byte, error)
	// Finish is called when all inputs have ended (bounded execution);
	// operators flush their remaining results here. An operator that can
	// fail mid-stream implements Failable: the runtime asks once Finish has
	// returned and fails the job with the error.
	Finish(out Collector)
}

// Base is a convenience embedding providing the no-op Operator methods; an
// operator embeds it and adds OnBatch.
type Base struct{}

// Open implements Operator.
func (Base) Open(*OpContext) error { return nil }

// OnWatermark implements Operator.
func (Base) OnWatermark(int64, Collector) {}

// Snapshot implements Operator.
func (Base) Snapshot() ([]byte, error) { return nil, nil }

// Finish implements Operator.
func (Base) Finish(Collector) {}

// MapOp applies F to every data record. Stateless.
type MapOp struct {
	Base
	F func(Record) Record
}

// OnBatch implements Operator: every slot is overwritten in place.
func (m *MapOp) OnBatch(b []Record, _ Collector) []Record {
	for i := range b {
		b[i] = m.F(b[i])
	}
	return b
}

// FilterOp forwards records for which F returns true. Stateless.
type FilterOp struct {
	Base
	F func(Record) bool
}

// OnBatch implements Operator: survivors compact to the front of the run by
// copy-down.
func (f *FilterOp) OnBatch(b []Record, _ Collector) []Record {
	keep := 0
	for i := range b {
		if f.F(b[i]) {
			if keep != i {
				b[keep] = b[i]
			}
			keep++
		}
	}
	return b[:keep]
}

// FlatMapOp applies F, which may emit zero or more records. Stateless.
type FlatMapOp struct {
	Base
	F func(Record, Collector)
}

// OnBatch implements Operator. A flatmap's output cardinality differs from
// its input's, so F emits straight into the position's collector and nothing
// is returned.
func (f *FlatMapOp) OnBatch(b []Record, out Collector) []Record {
	for i := range b {
		f.F(b[i], out)
	}
	return nil
}

// KeyedReduceOp maintains a float64 accumulator per key, combining values
// with F. With EmitEach it emits the updated accumulator for every input
// (continuous results); otherwise it emits one record per key on Finish
// (bounded/batch results). Keyed state lives in a state.KeyedState, so the
// operator checkpoints per key group and restores at any parallelism.
type KeyedReduceOp struct {
	Base
	F        func(acc, v float64) float64
	Init     float64
	EmitEach bool

	ks  *state.KeyedState
	acc *state.MapCell[float64]

	// Run scratch, reused across OnBatch calls.
	kt   keyTable
	accs []float64               // dense index -> running accumulator
	refs []state.KeyRef[float64] // dense index -> resolved cell slot
	box  Boxer[float64]
}

// Config implements Configured.
func (o *KeyedReduceOp) Config() string {
	return fmt.Sprintf("init=%v emit-each=%v", o.Init, o.EmitEach)
}

var _ KeyedStateful = (*KeyedReduceOp)(nil)

// Open implements Operator.
func (k *KeyedReduceOp) Open(ctx *OpContext) error {
	k.ks = ctx.NewKeyedState()
	k.acc = state.RegisterMap(k.ks, "acc", state.ValueCodec[float64]())
	return ctx.RestoreKeyedState(k.ks)
}

// KeyedState implements KeyedStateful.
func (k *KeyedReduceOp) KeyedState() *state.KeyedState { return k.ks }

// OnBatch implements Operator: the run is folded through a dense scratch
// table — one cell read (and one key-group hash) per distinct key on first
// touch, one cell write per distinct key at the end — instead of a Get/Put
// pair per record. Records are visited in order and EmitEach emissions
// overwrite the run in place, so the output sequence does not depend on how
// the records were cut into runs.
func (k *KeyedReduceOp) OnBatch(b []Record, _ Collector) []Record {
	k.kt.reset()
	k.accs = k.accs[:0]
	k.refs = k.refs[:0]
	keep := 0
	for i := range b {
		v, ok := b[i].Value.(float64)
		if !ok {
			continue
		}
		idx, fresh := k.kt.index(b[i].Key)
		if fresh {
			ref := k.acc.RefFor(b[i].Key)
			acc, exists := ref.Get()
			if !exists {
				acc = k.Init
			}
			k.accs = append(k.accs, acc)
			k.refs = append(k.refs, ref)
		}
		acc := k.F(k.accs[idx], v)
		k.accs[idx] = acc
		if k.EmitEach {
			b[keep] = Data(b[i].Ts, b[i].Key, k.box.Box(acc))
			keep++
		}
	}
	for i := range k.refs {
		k.refs[i].Put(k.accs[i])
	}
	if !k.EmitEach {
		return nil
	}
	return b[:keep]
}

// Finish implements Operator.
func (k *KeyedReduceOp) Finish(out Collector) {
	if k.EmitEach {
		return
	}
	for _, key := range k.acc.SortedKeys() {
		v, _ := k.acc.Get(key)
		out.Collect(Data(0, key, k.box.Box(v)))
	}
}

// FuncSink invokes F for every data record; terminal node.
type FuncSink struct {
	Base
	F func(Record)
	// OnWM, if set, is additionally invoked for watermarks.
	OnWM func(int64)
}

// OnBatch implements Operator; a sink forwards nothing.
func (s *FuncSink) OnBatch(b []Record, _ Collector) []Record {
	for i := range b {
		s.F(b[i])
	}
	return nil
}

// OnWatermark implements Operator.
func (s *FuncSink) OnWatermark(wm int64, _ Collector) {
	if s.OnWM != nil {
		s.OnWM(wm)
	}
}

// CollectSink accumulates all data records; safe for concurrent subtasks
// and for reading after Run returns. Intended for tests and examples.
//
// The sink checkpoints its collected count (not the values): a restored run
// in the same process — the supervised-restart path, where the instance
// survives across epochs — rolls back to the checkpointed length before
// replay, keeping the collected output exactly-once. A fresh process
// restoring the same snapshot starts from an empty sink (the values only
// ever lived in the crashed process's memory) and the rollback is a no-op.
type CollectSink struct {
	Base
	mu   sync.Mutex
	recs []Record
}

// Open implements Operator: roll back to the restored count, or clear on a
// from-scratch (re)start — either way the sink holds exactly the records
// the resumed stream position has already produced.
func (s *CollectSink) Open(ctx *OpContext) error {
	n := 0
	if ctx.Restore != nil {
		c, _ := binary.Varint(ctx.Restore)
		n = int(c)
	}
	s.mu.Lock()
	if n < len(s.recs) {
		s.recs = s.recs[:n]
	}
	s.mu.Unlock()
	return nil
}

// Snapshot implements Operator: the blob is the collected record count.
func (s *CollectSink) Snapshot() ([]byte, error) {
	s.mu.Lock()
	n := len(s.recs)
	s.mu.Unlock()
	buf := make([]byte, binary.MaxVarintLen64)
	return buf[:binary.PutVarint(buf, int64(n))], nil
}

// OnBatch implements Operator: one lock acquisition per run.
func (s *CollectSink) OnBatch(b []Record, _ Collector) []Record {
	s.mu.Lock()
	s.recs = append(s.recs, b...)
	s.mu.Unlock()
	return nil
}

// Records returns a copy of everything collected so far.
func (s *CollectSink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.recs))
	copy(out, s.recs)
	return out
}

// Factory returns an OperatorFactory handing every subtask this same sink
// (the sink locks internally).
func (s *CollectSink) Factory() OperatorFactory {
	return func() Operator { return s }
}
