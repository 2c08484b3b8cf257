// Package dataflow implements STREAMLINE's execution substrate: a pipelined
// parallel dataflow engine in the architecture of Apache Flink (Carbone et
// al., IEEE Data Eng. Bull. 2015), the system foundation the paper builds
// on. Jobs are DAGs of operators; each operator runs as `parallelism`
// subtasks (goroutines) connected by bounded channels (providing natural
// backpressure, like Flink's credit-based network stack). Event time flows
// as watermarks, fault tolerance uses asynchronous barrier snapshotting
// (Flink's checkpoint algorithm), and bounded inputs are simply streams that
// end — batch and streaming execute on the identical code path, which is the
// paper's central architectural premise ("data at rest and data in motion on
// a single pipelined execution engine").
//
// # The batched exchange
//
// Records cross subtask boundaries in pooled batches, not one at a time —
// the same vectorization Flink's network stack applies by shipping
// serialized record buffers. Each sending subtask stages records per edge
// and per downstream subtask, and a staged batch is shipped:
//
//   - when it reaches Graph.BatchSize records (default DefaultBatchSize),
//   - when Graph.FlushInterval elapses (default DefaultFlushInterval) — the
//     latency guard for in-motion sources, and
//   - always before a control record: a watermark, checkpoint barrier or
//     end marker is appended behind the staged data and the batch is
//     shipped immediately, so per-channel ordering — and with it watermark
//     monotonicity and ABS barrier alignment — is preserved exactly.
//
// Receivers return consumed batches to a shared sync.Pool. Operator chains
// are unaffected: a fused chain passes records by direct Collect calls and
// batches only at real exchange boundaries. Batching is purely physical —
// the logical plan and its results are identical at every batch size; only
// the throughput/latency trade-off moves (bigger batches amortize channel
// hops, the flush interval bounds how stale an in-motion record may get).
//
// # Vectorized operators
//
// Receiving subtasks do not pay one virtual OnRecord dispatch per record:
// operators implementing BatchedOperator take whole contiguous runs of data
// records through OnBatch. The chain driver scans each inbound batch up to
// the next control record (watermarks, barriers and end markers split runs,
// so alignment and event-time ordering never change), hands the run through
// every batched operator in the chain — maps overwrite slots in place,
// filters compact survivors by copy-down, flatmaps emit into a reused
// scratch buffer — and routes the survivors into the outbound exchange
// under a single staging-lock acquisition. The first operator without
// OnBatch downgrades the rest of its chain to per-record Collect calls, so
// mixed chains stay correct, and WithVectorizedChains(false) disables the
// fast path entirely; results are byte-identical on both paths by contract
// (OnBatch must equal OnRecord applied in order). All stateless built-ins
// (MapOp, FilterOp, FlatMapOp, FuncSink, CollectSink, CombinerOp) are
// batched. Source subtasks are driven the same way: they gather what their
// source returns into runs of up to the batch size — runs of one while the
// source says its Next may wait (MayWaiter) — and hand each to their chain
// whole, so a chain fused into a source is vectorized like any other.
//
// Keyed operators are batched too (KeyedReduceOp, WindowOp, and — through
// BatchedEdgeAware, the two-input variant of the contract — WindowJoinOp).
// Their OnBatch groups each run by key in a reusable open-addressing
// scratch table and pays the per-key costs once per distinct key per run
// instead of once per record: one key-group hash (state.MapCell.RefFor
// resolves a KeyRef whose later accesses skip the hash), one state load,
// one fold or append pass over the key's gathered elements, one store.
// Deferred writes are invisible because control records split runs — a
// barrier can never observe mid-run state, so checkpoints are identical on
// both paths and a snapshot taken under one execution mode restores under
// the other. The exchange stager is run-aware in the same way: a routed run
// is hashed key by key but appended to each destination's staging buffer in
// contiguous slices under one lock acquisition. WithVectorizedKeyedOps(false)
// downgrades only the keyed operators and run routing (stateless chains stay
// batched) — the ablation baseline that isolates the keyed half; emission
// order and every value are byte-identical either way.
//
// # The splittable at-rest scan
//
// Data at rest enters through FileScanSource: files are chopped into
// newline-aligned byte-range Splits (quote-aware for CSV) by a ScanPlan
// shared across the source stage's subtasks, and the plan's queue assigns
// splits dynamically — a subtask that finishes early pulls the next pending
// split, so total scan work is one pass over the input regardless of
// parallelism (the pre-split design scanned the whole file in every subtask
// and discarded (p−1)/p of it). Snapshots record which splits are done plus
// the (split id, byte offset) of the in-flight one, so Restore Seeks to the
// position instead of re-reading, and — because the state is a work set,
// not a position per subtask — a recovered job may run the source at a
// different parallelism (MultiRestorable): the remaining splits simply
// redistribute. Legacy row-cursor snapshots are still accepted and convert
// to a compatibility mode (see splitScanState). Split assignment carries no
// timestamp order, so file sources emit no in-flight watermarks; bounded
// scans close out event time at end of stream.
//
// # Keyed state: key groups and asynchronous snapshots
//
// Keyed operators (KeyedReduceOp, WindowOp, WindowJoinOp) keep their
// per-key state in a state.KeyedState, whose physical unit is the key
// group: keys map to Hash64(key) % Graph.NumKeyGroups (a logical-plan
// constant), and key groups map onto subtasks by contiguous range.
// HashPartition edges route through the same assignment, so the subtask
// receiving a key always owns its state — and because checkpoints store one
// blob per (operator, key group) instead of per subtask, WithRestore works
// at a *different* parallelism: restore simply redistributes group blobs to
// the new subtask ranges. Per-subtask state (source positions) does not
// redistribute; restoring a rescaled source fails loudly.
//
// Snapshots are asynchronous end to end. At a barrier, a keyed operator
// takes only a copy-on-write capture (flag flips and scalar copies) before
// forwarding the barrier; the serialization into group blobs runs on a
// separate goroutine while the operator keeps processing — a mutation that
// would touch captured data clones it first. The coordinator completes a
// checkpoint only when every subtask's asynchronous serialization has
// landed, preserving ABS consistency exactly.
package dataflow

import (
	"fmt"

	"repro/internal/state"
)

// Kind discriminates the records flowing through channels.
type Kind uint8

const (
	// KindData is a payload element.
	KindData Kind = iota
	// KindWatermark advances event time; Ts carries the watermark.
	KindWatermark
	// KindBarrier is a checkpoint barrier; Ts carries the checkpoint id.
	KindBarrier
	// KindEnd marks end-of-stream on a channel (bounded inputs).
	KindEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindWatermark:
		return "watermark"
	case KindBarrier:
		return "barrier"
	case KindEnd:
		return "end"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is the unit of exchange between operator subtasks.
type Record struct {
	Kind Kind
	// Ts is the event timestamp for data records, the watermark value for
	// watermarks, and the checkpoint id for barriers.
	Ts int64
	// Key is the partitioning key (meaningful after a KeyBy edge).
	Key uint64
	// Value is the payload. Values crossing a checkpointable operator's
	// state must be gob-serializable.
	Value any
}

// Data constructs a data record.
func Data(ts int64, key uint64, value any) Record {
	return Record{Kind: KindData, Ts: ts, Key: key, Value: value}
}

// Watermark constructs a watermark record.
func Watermark(wm int64) Record { return Record{Kind: KindWatermark, Ts: wm} }

// Barrier constructs a checkpoint barrier record.
func Barrier(ckpt int64) Record { return Record{Kind: KindBarrier, Ts: ckpt} }

// End constructs an end-of-stream record.
func End() Record { return Record{Kind: KindEnd} }

// WindowResult is the payload type emitted by the window operator. It is the
// dataflow-level rendering of engine.Result.
type WindowResult struct {
	QueryID    int
	Start, End int64
	Value      float64
	Count      int64
}

// Hash64 is the key hash used by hash partitioning and key-group
// assignment (FNV-1a over the 8 key bytes); exposed so tests can predict
// routing. It delegates to state.Hash64, the engine-wide definition.
func Hash64(key uint64) uint64 { return state.Hash64(key) }

// KeyOf hashes an arbitrary string to a partitioning key. Like Hash64 it
// delegates to internal/state, where all key hashing is defined once.
func KeyOf(s string) uint64 { return state.KeyOf(s) }
