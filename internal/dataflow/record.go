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
//   - always before a control record: a watermark, checkpoint barrier or
//     end marker is appended behind the staged data and the batch is
//     shipped immediately, so per-channel ordering — and with it watermark
//     monotonicity and ABS barrier alignment — is preserved exactly, and
//   - at an early flush: a source subtask about to call a Next that may
//     wait (MayWaiter) appends a flush marker (KindFlush) to every slot it
//     has sent data since its last early flush — behind what is staged
//     there, or alone if that data already shipped — and ships them, and an
//     operator subtask that receives a marker does the same on its own
//     outputs. A record in motion thus ships when its source goes quiet,
//     with no timer and no second goroutine per subtask.
//
// What a batch holds therefore depends only on the data and on when
// may-wait sources wait, never on a clock: a job whose sources never wait
// ships the same batches on every run. Receivers return consumed batches to
// a shared sync.Pool. Batching is purely physical — the logical plan and its
// results are identical at every batch size; only the throughput/latency
// trade-off moves (bigger batches amortize channel hops).
//
// # The operator contract: runs
//
// Data moves through a subtask in runs — contiguous sequences of data records
// — and Operator.OnBatch, which takes one run and returns the records to
// forward, is the only way data reaches an operator. There is no per-record
// entry point: a lone record is a run of one.
//
// Where runs come from. Every batch an exchange channel carries is zero or
// more data records followed by at most one control record, which is last.
// Two places enforce it: locally outputs.shipWith, the only way a control
// record is staged, ships the batch behind it at once; on the wire the
// transport's batch decoder refuses any other shape from a peer. A receiving
// subtask therefore hands each inbound batch's data to its chain as one run
// and its control record, if any, to its input gate (gate.go), so
// watermarks, barriers and end markers split runs and a run never spans
// channels; alignment and event-time ordering are exactly what a record at a
// time would give. A source subtask gathers what its source returns into
// runs of up to the batch size — ending a run early where the source says
// its next Next may wait (MayWaiter), so nothing read is held back behind a
// wait — and hands each to the chain fused into it the same way. A head operator with
// two inputs (EdgeAware) is told which edge each run arrived on.
//
// What OnBatch may do. The run is the operator's to overwrite: maps overwrite
// slots in place, filters compact survivors by copy-down, and either returns
// the same slice; an operator may instead return a buffer of its own, valid
// until its next call. It may also emit through its Collector — flatmaps and
// combiners do — and those records go downstream before the returned ones.
// Keyed operators (KeyedReduceOp, WindowOp, WindowJoinOp) group the run by
// key in a reusable open-addressing scratch table and pay the per-key costs
// once per distinct key per run instead of once per record: one key-group
// hash (state.MapCell.RefFor resolves a KeyRef whose later accesses skip the
// hash), one state load, one fold or append pass over the key's gathered
// elements, one store. Deferring those writes to the end of the run is
// invisible because control records split runs — a barrier can never observe
// mid-run state.
//
// The one obligation: how records are cut into runs is physical and must not
// show. An operator's output and state after a sequence of records may not
// depend on where the sequence was cut, so results, checkpoints and what
// every channel carries are the same at any batch size, and a snapshot taken
// at one restores at another.
//
// When a Collector is drained. The collector an operator emits into belongs
// to its chain position and holds at most one batch: it hands its records on
// as a run — to the next operator, or into the exchange behind the last —
// when it fills, and the chain driver drains it after every call into the
// operator (OnBatch, OnWatermark, Finish), before forwarding the run the call
// returned or the watermark it was made for. A call that emits a burst (a
// watermark closing every open window of a subtask) therefore feeds
// downstream in runs of at most the batch size while it is still emitting,
// and a record emitted in motion is downstream no later than the call that
// emitted it. Runs leave a chain for the exchange in one call: hashed key by
// key, appended to each destination's staging buffer in contiguous slices,
// shipped as each fills.
//
// # The splittable at-rest scan
//
// Data at rest enters through SplitScanSource, the one scan loop for files
// (a LineReader or a CSVReader) and topic replay: files are chopped into
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
// redistribute. The split state has one format (splitScanState, that of
// checkpoint file format 2); a blob of any other encoding fails restore.
// Split assignment carries no timestamp order, so split scans emit no
// in-flight watermarks; bounded scans close out event time at end of stream.
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
	// KindFlush marks an early flush: a source upstream is about to wait,
	// so the receiver ships everything it has staged and passes the marker
	// on to each consumer it has sent data since its last one.
	KindFlush
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
	case KindFlush:
		return "flush"
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
	// Value is the payload. A type the wire codec has no fast path for
	// crosses processes through gob, so it must be gob-serializable. The
	// engine boxes payloads through a Boxer, so payloads boxed by the same
	// subtask may share a slab: a payload is immutable, and one kept pins
	// its slab (at most DefaultBatchSize values of its type).
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
