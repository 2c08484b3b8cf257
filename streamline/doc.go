// Package streamline is the public, typed surface of the STREAMLINE
// reproduction: one fluent, generics-based programming model over data at
// rest and data in motion, fed through one composable connector API.
//
// # Streams and operators
//
// A Stream[T] is a handle to one stage of a lazily-built pipeline. Typed
// operators — Map, Filter, FlatMap, KeyBy, ReduceByKey, WindowAggregate,
// JoinWindow, Union — derive new streams; Collect and Sink terminate them;
// Env.Execute runs the whole plan (Env.ExecuteRestored resumes it from a
// checkpoint). User-visible records are Keyed[T] values — no type
// assertions appear anywhere downstream of a typed source.
//
// # Sources: the connector API
//
// Every pipeline starts at From(env, name, src, opts...), where src is a
// Source[T] — a pluggable connector producing one Reader[T] per source
// subtask. The built-in connectors cover the whole at-rest/in-motion
// spectrum:
//
//   - Slice, KeyedSlice — bounded in-memory collections (data at rest)
//   - JSONL, CSV — files at rest (one file, a directory, or a glob),
//     decoded into T, scanned in parallel byte-range splits, replayed
//     exactly-once through checkpoints
//   - Generator — deterministic generators, bounded or unbounded
//   - Channel — live ingestion from a Go channel (data in motion)
//   - Paced — a rate-limiting decorator over any connector
//   - Hybrid — the at-rest→in-motion handoff: replay a bounded history
//     source, emit a handoff watermark covering the history the moment it
//     ends, then atomically switch to the live source
//
// Source options configure the stage without changing the connector:
// WithSourceParallelism, WithWatermarkEvery and WithWatermarkLag (event
// time cadence and bounded-disorder allowance), and WithTimestamps (an
// extractor re-stamping records with event time taken from the values).
// From is the one way to turn a connector into a stream.
//
// # The splittable at-rest scan
//
// File connectors do not stripe rows across subtasks — they split bytes.
// The scan planner chops every input file into newline-aligned byte ranges
// of roughly WithSplitSize bytes (CSV ranges only where quoting provably
// cannot span lines; quoted files scan as one split each), and a shared
// per-stage assigner hands splits to subtasks dynamically: a subtask that
// finishes early pulls the next pending split, so skewed file sizes or
// decode costs never idle a worker. Each subtask therefore reads ~1/p of
// the input instead of scanning all of it and discarding (p−1)/p — history
// replay scales near-linearly with source parallelism (BENCH_scan.json
// records the trajectory). Snapshots store (split, byte offset): recovery
// Seeks straight to the position — O(remaining split), not O(file) — and,
// because split state is a work set rather than a position per subtask, a
// job may restore its file sources at a *different* parallelism; the
// remaining splits just redistribute. Splits are handed out in no
// particular timestamp order, so a scanning stage closes out event time at
// end of stream (or at Hybrid's handoff) instead of emitting in-flight
// cadence watermarks; pair files with WithTimestamps for real event time
// (the default timestamp is the record's byte offset).
//
// Whether the source is a file of history, a live channel, or a Hybrid of
// both, the identical plan runs on the identical pipelined engine — that is
// the paper's uniform model, and Hybrid is its headline scenario: a
// pipeline that bootstraps from stored data and continues on the live
// stream, with snapshot state recording phase and position so exactly-once
// recovery works across the handoff.
//
// # Topics: the embedded history store
//
// Files are history the user already has; topics are history the system
// keeps for itself. OpenTopicStore opens a directory of named topics, each
// an append-only log of length-prefixed, CRC-checked, timestamped records
// in rolling segment files. Persist(stream, store, "clicks") terminates a
// pipeline into a topic, and Topic[T](store, "clicks") replays it as a
// source — so Hybrid(Topic(store, "clicks"), Channel(live)) bootstraps a
// new job from the system's own retained history and continues live,
// closing the paper's at-rest→in-motion handoff into a loop.
//
// Topic sources are splittable exactly like files: sealed segments are
// planned into byte-range splits (WithSplitSize), assigned dynamically,
// snapshot as (split, byte offset), and restore at a different source
// parallelism. WithFollow turns a bounded topic replay into a tailing read
// that emits a handoff watermark at the stored high-water mark and then
// streams new appends as they land (follow mode runs at source
// parallelism 1).
//
// Durability and footprint are store options: WithFsync picks the flush
// policy (FsyncNever — OS-buffered, the default; FsyncAlways — fsync per
// append; FsyncInterval — at most every WithFsync period), WithSegmentBytes
// and WithSegmentAge control segment roll, and WithRetention drops whole
// sealed segments once the topic exceeds a byte or age budget. On open, a
// torn tail (a partial record from a crash mid-append) is truncated away;
// everything before it is intact.
//
// Persist is checkpoint-integrated: each snapshot records the topic's
// high-water offset, and a restored run truncates the topic back to that
// offset before resuming, so records appended after the checkpoint are not
// duplicated — the topic holds exactly-once output with respect to the
// restored lineage. A fresh (non-restored) run appends after whatever the
// topic already holds.
//
// Payloads are JSON, at rest and on the way back in: Persist writes each
// element as json.Marshal's bytes, and Topic and JSONL decode a document into T
// with the semantics of json.Unmarshal into a zero T — for every T, every
// payload and every error, whoever wrote the bytes (tags, case-insensitive
// key matching, unknown keys, null, escapes and duplicate keys included).
// What differs by type is only the cost. For a T that is a bool, integer,
// float or string, or a struct whose exported fields are such scalars (or
// structs of them), the decode is compiled once per reader into a list of
// field names and offsets and runs without reflection or per-record garbage
// beyond the strings themselves; a document that needs more than that list
// can express (an escape sequence, a key matching only case-insensitively, an
// unknown key, a null, a number that does not fit) is decoded by
// encoding/json instead, one document at a time. A type goes through
// encoding/json for every document when it or one of its fields is a
// pointer, slice, map, array or interface, is embedded, carries a ",string"
// or "-" tag or a tag name outside plain ASCII, has two fields whose names
// differ only by case, or implements json.Unmarshaler or
// encoding.TextUnmarshaler (time.Time does). Persist's encode runs the
// compiled list the other way for the same types, less a json.Marshaler or
// encoding.TextMarshaler, an omitempty or omitzero tag, or a name with '<',
// '>' or '&'; json.Marshal writes every other type, and any value that needs
// escaping or is a NaN or infinite float (an error there). There is nothing
// to configure: the choice follows from the type and each value or document.
//
// Custom connectors implement Source[T]/Reader[T] directly: Next reports
// elements plus a ReadStatus (data, watermark, idle, end, handoff), and
// Snapshot/Restore serialize the read position for exactly-once recovery
// (MultiRestorer additionally lets a connector's state redistribute across
// a different source parallelism, the way the file connectors do). The
// source stage gathers elements into batch-sized runs, so a reader whose
// Next may wait declares `MayWait() bool` (see Reader): asked before each
// call, it answers whether this call may wait, and a true answer ships what
// the stage has gathered and staged first. Answer for the next call only —
// an always-true answer ships every element in a batch of its own. A reader
// that declares nothing is taken to wait from its first ReadIdle on — on its
// own, as a Hybrid's live half, or wrapped by Paced.
//
// # Lowering
//
// Every typed operator and connector lowers straight onto the untyped record
// engine: each adds its node to the Env's plan, an internal/dataflow Graph,
// boxing values at operator boundaries. There is no second builder in
// between, so the optimizer is part of the lowering: stage fusion, operator
// chaining, adaptive combiner insertion before hash shuffles,
// architecture-sized parallelism, and Cutty multi-query window sharing fire
// exactly as they would for a plan built node by node on the engine — a
// typed layer compiled onto an untyped dataflow, in the tradition of Flink's
// TypeInformation machinery.
//
// # The batched exchange
//
// Underneath, records cross subtask boundaries in pooled batches rather
// than one channel hop per record, so at-rest replay (slices, JSONL, CSV)
// runs at batch-engine speeds on the same pipelined engine. A staged batch
// ships when it reaches WithBatchSize records (default DefaultBatchSize),
// always before a watermark, checkpoint barrier, or end-of-stream marker —
// control records never overtake data, so event time and exactly-once
// snapshots behave identically at every batch size — and at an early flush:
// a source subtask ships everything it has staged before it calls a Next
// that may wait, with a flush marker to each subtask it has sent data since
// its last one, and an operator subtask that receives the marker passes the
// flush on the same way. A record in motion therefore ships when
// its source goes quiet, with no timer to tune, and what each batch holds
// depends on the data and on when sources wait, never on a clock. Bigger
// batches amortize exchange hops for data at rest; the logical plan never
// changes (WithBatchSize(1) is the per-record ablation baseline).
//
// # Operator chains run batch at a time
//
// The exchange is batched; so is execution. Every operator takes the data
// between two control records of an inbound batch as one run, and there is
// no per-record mode to switch to: a lone record is a run of one. What
// a pipeline can observe of this is nothing — results, their order per key,
// every checkpoint and what each channel carries are identical at any
// WithBatchSize, and a snapshot taken at one batch size restores at another.
// Watermarks, barriers and end markers always fall between runs, so event
// time and exactly-once snapshots are untouched.
//
// Typed stage fusion. Adjacent stateless typed stages — Map, Filter,
// FlatMap — lower as ONE operator whose stage functions compose in native
// types: a run like Map→Filter→Map unboxes the record value once on entry,
// runs every stage on the concrete T, and boxes once on exit, instead of
// paying an interface box/unbox pair per stage. The fused operator's name
// concatenates its stage names with "+" ("scale+band+final"), so lowering
// is deterministic and distributed plan fingerprints match across
// processes. Fusion never crosses a semantic boundary — KeyBy, windows,
// unions, sinks and any stage consumed by more than one downstream all end
// the run.
//
// # Window state
//
// WindowAggregate shares work between its queries the way Cutty does: one
// partial aggregate per slice per distinct aggregate function, however many
// queries use it. How the slices are kept depends on the queries alone, and
// a pipeline cannot tell except by size and speed. When every query is a
// Tumbling or Sliding window, the slice edges are the same for every key; a
// subtask computes them once and holds, per key, only the partials of the
// slices that key has data in, so window state is proportional to live keys
// x occupied slices and a key with no open window holds nothing. Any other
// set — one with a Session, a count, punctuation or delta window, or a
// sliding window several hundred slides long — runs Cutty's general engine
// per key. Results and their order are identical in both: per watermark keys
// ascending, per key by query then window start. Count, Min and Max, and sums
// of exactly representable values, are bit-identical; other floating-point
// sums agree up to re-association (a window is a left fold over its slices
// in one layout, an aggregate-tree range in the other — as it already was
// for any window restored from a checkpoint).
//
// # Keyed state, checkpoints and rescaling
//
// Keyed operators (ReduceByKey, WindowAggregate, JoinWindow) keep their
// per-key state in key groups: each key maps to one of WithNumKeyGroups
// groups (default DefaultNumKeyGroups), hash edges route records to the
// subtask owning the key's group, and checkpoints store one blob per
// (operator, key group) rather than per subtask. At a checkpoint barrier an
// operator blocks only for a copy-on-write capture of its state;
// serialization runs asynchronously while processing continues, and the
// checkpoint completes when every capture has been persisted.
//
// Because key groups — not subtasks — are the unit of state, a job can be
// recovered at a different parallelism: the new subtasks simply load the
// groups of their new ranges. The rescaling recipe:
//
//	// First run: checkpoint to a durable backend at parallelism 2.
//	backend, _ := streamline.NewFileBackend("/var/lib/job/checkpoints")
//	env := streamline.New(streamline.WithParallelism(2),
//		streamline.WithCheckpointing(backend, time.Second))
//	buildPipeline(env)
//	env.Execute(ctx) // ... the process dies, or is stopped to rescale
//
//	// Recovery: rebuild the identical pipeline at parallelism 4 and
//	// resume from the latest readable on-disk snapshot.
//	backend, _ = streamline.NewFileBackend("/var/lib/job/checkpoints")
//	snap, ok, err := backend.Latest() // err surfaces skipped corrupt files, or older-format ones if nothing reads
//	env = streamline.New(streamline.WithParallelism(4),
//		streamline.WithCheckpointing(backend, time.Second))
//	buildPipeline(env)
//	if ok {
//		env.ExecuteRestored(ctx, snap)
//	}
//
// Two constraints: WithNumKeyGroups is a plan constant (a snapshot restores
// only into a plan with the same value — pick it once, comfortably above
// the largest parallelism the job may ever need), and positional
// per-subtask state does not redistribute. File sources (JSONL, CSV, and a
// Hybrid over them) are exempt: their snapshots hold splits, not positions,
// so they restore at any source parallelism. Only non-splittable sources —
// generators, slices, channels — keep the "source parallelism stays pinned"
// rule; rescale the keyed stages through WithParallelism either way. Key
// grouping itself is purely physical: results are identical at every group
// count and parallelism.
//
// The smallest complete pipeline:
//
//	env := streamline.New(streamline.WithParallelism(2))
//	nums := streamline.From(env, "nums", streamline.Slice([]float64{1, 2, 3, 4}))
//	keyed := streamline.KeyBy(nums, "parity", func(v float64) uint64 { return uint64(v) % 2 })
//	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
//	out := streamline.Collect(sums, "out")
//	if err := env.Execute(context.Background()); err != nil { ... }
//	for _, k := range out.Records() { // []streamline.Keyed[float64]
//		fmt.Println(k.Key, k.Value)
//	}
//
// And the hybrid replay→live scenario (see examples/hybrid for the full
// program):
//
//	events := streamline.From(env, "events",
//		streamline.Hybrid(
//			streamline.JSONL[reading]("history.jsonl"), // data at rest
//			streamline.Channel(liveFeed),               // data in motion
//		),
//		streamline.WithTimestamps(func(r reading) int64 { return r.Ts }),
//	)
//
// The hybrid stage runs at the environment parallelism: the history splits
// replay across all subtasks, every subtask's handoff promises the
// stage-wide history maximum (ReadHandoff), and the live channel is shared
// afterwards. A bare Channel connector still hints parallelism 1 — see
// ParallelismHinter — because without a handoff floor an idle subtask would
// pin event time at -inf.
//
// # One way to run a job
//
// Env.Execute runs the job and Env.ExecuteRestored runs it from a
// checkpoint; nothing else does. Where and how it runs is the Env's own
// configuration, the same pipeline code either way:
//
//	env := streamline.New(
//		streamline.WithWorkers(2),     // across two worker processes
//		streamline.WithSupervision(5), // self-healing, up to 5 restarts
//		streamline.WithCheckpointing(backend, time.Second),
//	)
//	// ... build the pipeline ...
//	err := env.Execute(ctx)
//
// Without WithWorkers the job runs in this process. With WithWorkers it runs
// across that many worker processes plus this one, the coordinator. With
// WithSupervision, either way, a failure relaunches the job from its newest
// checkpoint. In a worker process started by WithSelfSpawn, Execute runs that
// worker's share and exits.
//
// # Distributed execution
//
// WithWorkers splits the same plan across worker processes plus this
// process, the coordinator, over loopback/LAN TCP (see internal/transport).
// Execution is SPMD: operator logic is closures and never crosses the wire,
// so every participant rebuilds the identical pipeline from code — via
// WithSelfSpawn (the coordinator re-executes its own binary) or RunWorker,
// with a caller-supplied builder or, given nil, the RegisterPipeline
// registry keyed by WithPipelineRef — and the coordinator ships only the
// structural plan, a fingerprint both sides verify, the placement map, peer
// addresses, and (on recovery) the restore snapshot. Exchange edges that
// cross participants carry the same pooled record batches as the in-process
// channels, framed over one TCP connection per channel so
// checkpoint-barrier alignment keeps its ordering guarantees; custom payload
// types must be registered on every participant with RegisterWireTypes.
//
// Placement is deterministic: sinks (and live sources whose data exists only
// in the coordinator process — Channel, Hybrid's live phase) are pinned to
// the coordinator, and everything else round-robins across the workers, so
// Collect results always land in the coordinating process. The coordinator
// also triggers checkpoints, and dataflow.Checkpoints, the checkpoint
// coordinator a single-process run uses too, completes each one from every
// participant's acks into the same global snapshot. A distributed job
// checkpoints to the shared backend and ExecuteRestored resumes it at ANY
// worker count, zero included, with keyed state and remaining scan splits
// redistributing exactly as under a parallelism rescale. Without
// supervision a lost worker connection aborts the job cleanly; restart from
// the last snapshot to continue — or let supervision do it for you.
//
// # Fault tolerance and supervision
//
// WithSupervision closes the detect→recover loop the checkpoints make
// possible. The failure model: a peer is dead when its control connection
// drops, when a control send misses its write deadline, or when the stream
// is silent past the heartbeat timeout — both sides ping every WithHeartbeat
// interval, so the hung-but-open TCP connection (a partitioned or wedged
// peer) is detected too, not just the clean crash. On any failure the
// coordinator stops the epoch, reloads the newest completed checkpoint from
// the WithCheckpointing backend, and relaunches: under WithSelfSpawn it
// respawns the full worker complement; with external workers it re-places
// the dead worker's subtasks onto whoever redials within WithRejoinWindow
// (graceful degradation — restore works at any worker count, so the job
// continues on the survivors). External workers run with RunWorker rejoin
// automatically; under an unsupervised coordinator the same call returns
// when its one epoch ends. Restarts are spaced by capped exponential backoff with jitter
// and bounded by WithSupervision's restart budget; when the budget is
// exhausted the last failure surfaces, wrapped. RestartStats reports the
// recovery trajectory — cause, detect and restore instants, and the
// detect→restored downtime (the MTTR the recover benchmark measures;
// BENCH_recover.json holds the committed trajectory). With zero workers the
// same loop supervises a single-process run: fail, reload, re-execute.
//
// Exactly-once output across restarts: Collect sinks checkpoint their
// collected count and roll back to it when the supervised run restores — the
// sink instance survives in the coordinator process, so replayed suffixes
// overwrite instead of duplicating. Persist sinks truncate their topic to
// the checkpointed high-water offset the same way. Both guarantees need a
// checkpoint to restore from: a failure before the first completed
// checkpoint restarts the job from scratch (equally exactly-once — the
// sinks clear). The fault-injection harness behind these guarantees lives
// in internal/chaos: connection drops, added latency, blackholed
// connections and partitions, plus a worker Killer, all exercised by the
// transport soak tests and `streamline-bench -recover`.
//
// Remaining single-process assumptions, by design: live in-motion sources
// feed the coordinator (workers scale the at-rest, keyed and windowed
// stages); each source stage's event-time clock is per-process (watermarks
// still merge correctly downstream); splits are partitioned statically
// across participants (split stealing stays process-local); and file scans
// plus FileBackend checkpoints assume a filesystem all participants can
// read. Single-machine multi-core jobs lose nothing: without WithWorkers
// or WithSupervision, Execute runs the plan on the in-process engine
// directly.
package streamline
