// Package core is STREAMLINE's primary contribution: the single uniform
// programming model over data at rest and data in motion. One fluent
// pipeline API describes a computation; whether the input is a bounded
// collection (batch) or an unbounded generator (stream), the identical plan
// runs on the identical pipelined engine (internal/dataflow) — eliminating
// the dual-system architectures (and their "system and human latency") the
// paper motivates.
//
// The paper promises a model that "can automatically be optimized,
// parallelized, and adopted to the system load, data distribution, and
// architecture". The optimizer here implements exactly those levers:
//
//   - operator chaining (forward edges fuse into one goroutine),
//   - automatic combiner (pre-aggregation) insertion before hash shuffles,
//     with a runtime-adaptive mode that samples the key distribution and
//     enables combining only when duplicates make it profitable,
//   - parallelism defaulting to the machine's CPU count (architecture) with
//     per-stage overrides,
//   - Cutty-backed window aggregation, sharing slices across all window
//     queries registered on the same keyed stream.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/state"
	"repro/internal/window"
)

// CombinerMode controls automatic pre-aggregation before hash shuffles.
type CombinerMode uint8

const (
	// CombinerAuto samples the key distribution at runtime and enables
	// combining when it is profitable (the default).
	CombinerAuto CombinerMode = iota
	// CombinerOn always pre-aggregates.
	CombinerOn
	// CombinerOff never pre-aggregates (ablation baseline).
	CombinerOff
)

// Environment owns a pipeline under construction and its execution options.
type Environment struct {
	graph       *dataflow.Graph
	parallelism int
	chaining    bool
	combiner    CombinerMode
	backend     state.Backend
	ckptEvery   time.Duration
	buildErr    error
	job         *dataflow.Job

	// completed counts the checkpoints persisted by this environment's
	// earlier runs and by its distributed runs (see CompletedCheckpoints).
	completed int64

	// Distributed-execution configuration, consumed by the streamline
	// layer's Execute when workers > 0 (this package's Execute ignores it).
	workers    int
	listenAddr string
	selfSpawn  bool
	pipeline   string
	pipeArgs   []string
	onListen   func(addr string)

	// Supervision configuration, consumed by the streamline layer's Execute
	// when WithSupervision is given, with or without workers.
	supervise    bool
	maxRestarts  int
	backoffBase  time.Duration
	backoffMax   time.Duration
	hbInterval   time.Duration
	hbTimeout    time.Duration
	rejoinWindow time.Duration
}

// Option configures an Environment.
type Option func(*Environment)

// WithParallelism sets the default operator parallelism. Zero (default)
// means "adapt to the architecture": the machine's CPU count, capped at 4.
func WithParallelism(p int) Option {
	return func(e *Environment) { e.parallelism = p }
}

// WithChaining toggles operator chaining (default on).
func WithChaining(on bool) Option {
	return func(e *Environment) { e.chaining = on }
}

// WithCombiner sets the combiner mode (default CombinerAuto).
func WithCombiner(m CombinerMode) Option {
	return func(e *Environment) { e.combiner = m }
}

// WithCheckpointing enables asynchronous barrier snapshots.
func WithCheckpointing(b state.Backend, every time.Duration) Option {
	return func(e *Environment) {
		e.backend = b
		e.ckptEvery = every
	}
}

// WithNumKeyGroups sets the plan's key-group count — the unit of keyed-state
// partitioning and hash routing (default state.DefaultNumKeyGroups). A
// logical-plan constant: results are identical at every value and any
// parallelism, but a checkpoint restores only into a plan with the same
// value, so pick it once per job (comfortably above the largest parallelism
// the job may ever rescale to) and keep it.
func WithNumKeyGroups(n int) Option {
	return func(e *Environment) { e.graph.NumKeyGroups = n }
}

// WithBatchSize sets how many records the exchange layer stages per batch
// before shipping it to a downstream subtask (default
// dataflow.DefaultBatchSize). 1 degenerates to per-record exchange. A purely
// physical knob: the logical plan and its results are identical at every
// batch size.
func WithBatchSize(n int) Option {
	return func(e *Environment) { e.graph.BatchSize = n }
}

// WithWorkers sets the number of worker processes a distributed execution
// expects (0, the default, runs single-process).
func WithWorkers(n int) Option {
	return func(e *Environment) { e.workers = n }
}

// WithListenAddr sets the coordinator's control listen address for
// distributed execution (default "127.0.0.1:0", an ephemeral loopback port).
func WithListenAddr(addr string) Option {
	return func(e *Environment) { e.listenAddr = addr }
}

// WithSelfSpawn makes a distributed Execute start its own worker processes by
// re-executing the current binary (the workers rebuild the identical
// pipeline and connect back). Without it the coordinator waits for
// externally started workers.
func WithSelfSpawn() Option {
	return func(e *Environment) { e.selfSpawn = true }
}

// WithPipelineRef names the registered pipeline (and its arguments) that
// externally started generic workers should build to mirror this
// environment's graph.
func WithPipelineRef(name string, args ...string) Option {
	return func(e *Environment) { e.pipeline = name; e.pipeArgs = args }
}

// WithSupervision turns on supervised execution: on failure the run
// restores from the newest completed checkpoint and relaunches, up to
// maxRestarts times (0 picks the default budget of 5; negative disables
// restarts while keeping supervision's error shaping). Up to two backoff
// durations tune the restart pacing: the base delay before the first
// restart (doubling per consecutive restart) and the delay cap.
func WithSupervision(maxRestarts int, backoff ...time.Duration) Option {
	return func(e *Environment) {
		e.supervise = true
		e.maxRestarts = maxRestarts
		if len(backoff) > 0 {
			e.backoffBase = backoff[0]
		}
		if len(backoff) > 1 {
			e.backoffMax = backoff[1]
		}
	}
}

// WithHeartbeat tunes the distributed control plane's liveness protocol:
// both sides ping every interval and declare the peer dead after a silent
// timeout. Zero values keep the transport defaults (1s / 4s).
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(e *Environment) { e.hbInterval, e.hbTimeout = interval, timeout }
}

// WithRejoinWindow bounds how long a supervised recovery waits for the full
// worker complement to redial before degrading onto the survivors.
func WithRejoinWindow(d time.Duration) Option {
	return func(e *Environment) { e.rejoinWindow = d }
}

// WithOnListen registers a callback invoked with the coordinator's bound
// control address before workers are awaited — how callers learn an
// ephemeral port (tests, or printing the address for external workers).
func WithOnListen(f func(addr string)) Option {
	return func(e *Environment) { e.onListen = f }
}

// Distributed-configuration accessors for the driver layer.
func (e *Environment) Workers() int                    { return e.workers }
func (e *Environment) ListenAddr() string              { return e.listenAddr }
func (e *Environment) SelfSpawn() bool                 { return e.selfSpawn }
func (e *Environment) PipelineRef() (string, []string) { return e.pipeline, e.pipeArgs }
func (e *Environment) OnListen() func(addr string)     { return e.onListen }

// Supervision reports whether supervised execution is on, with the restart
// budget and backoff pacing.
func (e *Environment) Supervision() (on bool, maxRestarts int, base, max time.Duration) {
	return e.supervise, e.maxRestarts, e.backoffBase, e.backoffMax
}

// Heartbeat returns the configured control-plane liveness settings (zeros:
// transport defaults).
func (e *Environment) Heartbeat() (interval, timeout time.Duration) {
	return e.hbInterval, e.hbTimeout
}

// RejoinWindow returns the configured degradation wait (zero: default).
func (e *Environment) RejoinWindow() time.Duration { return e.rejoinWindow }

// Chaining reports whether operator chaining is enabled — part of the
// physical-plan identity a distributed worker must reproduce.
func (e *Environment) Chaining() bool { return e.chaining }

// Backend returns the configured snapshot backend (nil when unset) and the
// checkpoint interval (0 when periodic checkpointing is off).
func (e *Environment) Backend() (state.Backend, time.Duration) {
	return e.backend, e.ckptEvery
}

// BuildErr returns the first pipeline construction error, if any.
func (e *Environment) BuildErr() error { return e.buildErr }

// NoteDistributedCheckpoints records how many checkpoints a distributed run
// completed, so CompletedCheckpoints answers uniformly for both modes.
func (e *Environment) NoteDistributedCheckpoints(n int64) { e.completed += n }

// NewEnvironment returns an empty pipeline environment.
func NewEnvironment(opts ...Option) *Environment {
	e := &Environment{
		graph:    dataflow.NewGraph("streamline"),
		chaining: true,
		combiner: CombinerAuto,
	}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism <= 0 {
		// "adopted to ... the architecture": size to the machine.
		p := runtime.NumCPU()
		if p > 4 {
			p = 4
		}
		e.parallelism = p
	}
	return e
}

func (e *Environment) fail(err error) {
	if e.buildErr == nil {
		e.buildErr = err
	}
}

// Fail records a pipeline construction error; Execute will return the first
// one. Typed facades layered over this environment use it to surface their
// own build-time failures through the same channel.
func (e *Environment) Fail(err error) { e.fail(err) }

// Execute runs the pipeline to completion (bounded sources) or until the
// context is cancelled (unbounded sources).
func (e *Environment) Execute(ctx context.Context) error {
	return e.run(ctx)
}

// ExecuteRestored runs the pipeline starting from a recovery snapshot (nil:
// from scratch, as Execute).
func (e *Environment) ExecuteRestored(ctx context.Context, snap *state.Snapshot) error {
	return e.run(ctx, dataflow.WithRestore(snap))
}

func (e *Environment) run(ctx context.Context, opts ...dataflow.JobOption) error {
	if e.buildErr != nil {
		return e.buildErr
	}
	opts = append(opts, dataflow.WithChaining(e.chaining))
	if e.backend != nil {
		opts = append(opts, dataflow.WithCheckpointing(e.backend, e.ckptEvery))
	}
	if e.job != nil {
		e.completed += e.job.CompletedCheckpoints()
	}
	e.job = dataflow.NewJob(e.graph, opts...)
	return e.job.Run(ctx)
}

// CompletedCheckpoints reports how many checkpoints this environment's runs
// persisted — every attempt of a supervised run and every distributed run
// included.
func (e *Environment) CompletedCheckpoints() int64 {
	if e.job == nil {
		return e.completed
	}
	return e.completed + e.job.CompletedCheckpoints()
}

// Graph exposes the underlying job graph (diagnostics and tests).
func (e *Environment) Graph() *dataflow.Graph { return e.graph }

// Stream is a handle to one stage of a pipeline — the unified abstraction
// for data at rest and data in motion. All transformations derive new
// streams; none execute until Environment.Execute.
type Stream struct {
	env   *Environment
	node  *dataflow.Node
	keyed bool
}

// FromSource creates a stream from a pluggable source connector: the
// factory builds one reader per subtask. This is the single entry point
// every specialized constructor (records, generators, channels, files,
// hybrid history→live compositions) lowers through. parallelism <= 0 uses
// the environment default.
func (e *Environment) FromSource(name string, parallelism int, f dataflow.SourceFactory) *Stream {
	if parallelism <= 0 {
		parallelism = e.parallelism
	}
	n := e.graph.AddSource(name, parallelism, f)
	return &Stream{env: e, node: n}
}

// FromRecords creates a bounded stream from in-memory records (data at
// rest). Records are split across the source's subtasks round-robin; the
// source runs at the environment's default parallelism.
func (e *Environment) FromRecords(name string, recs []dataflow.Record) *Stream {
	return e.FromSource(name, 0, dataflow.SliceSource(recs))
}

// SplitCount divides a bounded record count across parallelism subtasks,
// handing the remainder to the lowest subtask indices. Non-positive counts
// (unbounded or empty sources) pass through unchanged.
func SplitCount(count int64, subtask, parallelism int) int64 {
	if count <= 0 {
		return count
	}
	c := count / int64(parallelism)
	if int64(subtask) < count%int64(parallelism) {
		c++
	}
	return c
}

// genSource builds the per-subtask GenSource for a generator stream,
// splitting a bounded count across subtasks.
func genSource(count int64, gen func(subtask, parallelism int, i int64) dataflow.Record) func(sub, par int) *dataflow.GenSource {
	return func(sub, par int) *dataflow.GenSource {
		return &dataflow.GenSource{
			N:   SplitCount(count, sub, par),
			Gen: func(i int64) dataflow.Record { return gen(sub, par, i) },
		}
	}
}

// FromGenerator creates a stream from a deterministic generator. count < 0
// makes it unbounded (data in motion); otherwise it is a bounded stream that
// ends — the same plan either way.
func (e *Environment) FromGenerator(name string, parallelism int, count int64, gen func(subtask, parallelism int, i int64) dataflow.Record) *Stream {
	mk := genSource(count, gen)
	return e.FromSource(name, parallelism, func(sub, par int) dataflow.SourceFunc {
		return mk(sub, par)
	})
}

// FromPacedGenerator is FromGenerator throttled to perSec records per second
// per subtask — the live-stream simulation used by the latency experiments.
func (e *Environment) FromPacedGenerator(name string, parallelism int, count int64, perSec float64, gen func(subtask, parallelism int, i int64) dataflow.Record) *Stream {
	mk := genSource(count, gen)
	return e.FromSource(name, parallelism, func(sub, par int) dataflow.SourceFunc {
		return &dataflow.PacedSource{PerSec: perSec, Inner: mk(sub, par)}
	})
}

// Map derives a stream by applying f to every record.
func (s *Stream) Map(name string, f func(dataflow.Record) dataflow.Record) *Stream {
	n := s.env.graph.AddOperator(name, s.node.Parallelism, func() dataflow.Operator {
		return &dataflow.MapOp{F: f}
	}, dataflow.Edge{From: s.node, Part: dataflow.Forward})
	return &Stream{env: s.env, node: n, keyed: s.keyed}
}

// Filter derives a stream keeping records for which f returns true.
func (s *Stream) Filter(name string, f func(dataflow.Record) bool) *Stream {
	n := s.env.graph.AddOperator(name, s.node.Parallelism, func() dataflow.Operator {
		return &dataflow.FilterOp{F: f}
	}, dataflow.Edge{From: s.node, Part: dataflow.Forward})
	return &Stream{env: s.env, node: n, keyed: s.keyed}
}

// FlatMap derives a stream where f may emit any number of records per input.
func (s *Stream) FlatMap(name string, f func(dataflow.Record, dataflow.Collector)) *Stream {
	n := s.env.graph.AddOperator(name, s.node.Parallelism, func() dataflow.Operator {
		return &dataflow.FlatMapOp{F: f}
	}, dataflow.Edge{From: s.node, Part: dataflow.Forward})
	return &Stream{env: s.env, node: n, keyed: s.keyed}
}

// KeyBy re-keys every record with keyFn. The next shuffling transformation
// partitions by this key.
func (s *Stream) KeyBy(name string, keyFn func(dataflow.Record) uint64) *Stream {
	n := s.env.graph.AddOperator(name, s.node.Parallelism, func() dataflow.Operator {
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
			r.Key = keyFn(r)
			return r
		}}
	}, dataflow.Edge{From: s.node, Part: dataflow.Forward})
	return &Stream{env: s.env, node: n, keyed: true}
}

// ReduceByKey aggregates float64 values per key with the associative,
// commutative function f. In bounded execution it emits one record per key
// at the end; in continuous mode (emitEach) it emits every update. The
// optimizer inserts a combiner before the shuffle according to the
// environment's CombinerMode.
func (s *Stream) ReduceByKey(name string, f func(acc, v float64) float64, emitEach bool) *Stream {
	upstream := s.node
	// Combiner insertion: pre-aggregate on the producer side of the hash
	// shuffle so the shuffle moves partial aggregates, not raw records.
	if s.env.combiner != CombinerOff {
		adaptive := s.env.combiner == CombinerAuto
		comb := s.env.graph.AddOperator(name+"-combine", upstream.Parallelism, func() dataflow.Operator {
			return &CombinerOp{F: f, FlushEvery: 1024, Adaptive: adaptive}
		}, dataflow.Edge{From: upstream, Part: dataflow.Forward})
		upstream = comb
	}
	n := s.env.graph.AddOperator(name, s.env.parallelism, func() dataflow.Operator {
		return &dataflow.KeyedReduceOp{F: f, EmitEach: emitEach}
	}, dataflow.Edge{From: upstream, Part: dataflow.HashPartition})
	return &Stream{env: s.env, node: n, keyed: true}
}

// WindowAggregate runs one or more window queries over the keyed stream,
// sharing aggregation work between them with the Cutty engine. Records'
// values must be float64. Results carry dataflow.WindowResult values.
func (s *Stream) WindowAggregate(name string, queries ...WindowedQuery) *Stream {
	if len(queries) == 0 {
		s.env.fail(fmt.Errorf("core: WindowAggregate %q requires at least one query", name))
		return s
	}
	if !s.keyed {
		s.env.fail(fmt.Errorf("core: WindowAggregate %q requires a keyed stream (call KeyBy first)", name))
		return s
	}
	wq := make([]dataflow.WindowQuery, len(queries))
	for i, q := range queries {
		wq[i] = dataflow.WindowQuery{Spec: q.Window, Fn: q.Fn}
	}
	n := s.env.graph.AddOperator(name, s.env.parallelism, dataflow.NewWindowOp(wq...),
		dataflow.Edge{From: s.node, Part: dataflow.HashPartition})
	return &Stream{env: s.env, node: n, keyed: true}
}

// WindowedQuery pairs a window spec with an aggregate for WindowAggregate.
type WindowedQuery struct {
	Window window.Spec
	Fn     *agg.FnF64
}

// JoinWindow equi-joins this stream (left) with other (right) on the record
// key within tumbling event-time windows of the given size. Both streams
// must be keyed. Results carry dataflow.JoinedPair values.
func (s *Stream) JoinWindow(name string, other *Stream, size int64) *Stream {
	if !s.keyed || !other.keyed {
		s.env.fail(fmt.Errorf("core: JoinWindow %q requires both streams keyed (call KeyBy first)", name))
		return s
	}
	n := s.env.graph.AddOperator(name, s.env.parallelism, dataflow.NewWindowJoinOp(size),
		dataflow.Edge{From: s.node, Part: dataflow.HashPartition},
		dataflow.Edge{From: other.node, Part: dataflow.HashPartition},
	)
	return &Stream{env: s.env, node: n, keyed: true}
}

// Union merges this stream with others (no ordering guarantee).
func (s *Stream) Union(name string, others ...*Stream) *Stream {
	edges := []dataflow.Edge{{From: s.node, Part: dataflow.Rebalance}}
	for _, o := range others {
		edges = append(edges, dataflow.Edge{From: o.node, Part: dataflow.Rebalance})
	}
	n := s.env.graph.AddOperator(name, s.env.parallelism, func() dataflow.Operator {
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { return r }}
	}, edges...)
	return &Stream{env: s.env, node: n}
}

// Sink terminates the stream invoking f for every record.
func (s *Stream) Sink(name string, f func(dataflow.Record)) {
	n := s.env.graph.AddOperator(name, 1, func() dataflow.Operator {
		return &dataflow.FuncSink{F: f}
	}, dataflow.Edge{From: s.node, Part: dataflow.Rebalance})
	// The sink closure observes results: in distributed execution its node
	// must run in the submitting process.
	n.Pinned = true
}

// SinkOperator terminates the stream into a custom stateful operator at
// parallelism 1. Unlike Sink's plain function, the operator participates in
// checkpointing (Snapshot/Restore through its OpContext blob) — the hook
// for exactly-once external sinks such as the topic Persist connector.
func (s *Stream) SinkOperator(name string, f func() dataflow.Operator) {
	n := s.env.graph.AddOperator(name, 1, f, dataflow.Edge{From: s.node, Part: dataflow.Rebalance})
	// Sink operators write to destinations owned by the submitting process
	// (a topic store's file handles, a caller's buffer): pin them there.
	n.Pinned = true
}

// Collect terminates the stream into a CollectSink whose records can be read
// after Execute returns.
func (s *Stream) Collect(name string) *dataflow.CollectSink {
	sink := &dataflow.CollectSink{}
	n := s.env.graph.AddOperator(name, 1, sink.Factory(), dataflow.Edge{From: s.node, Part: dataflow.Rebalance})
	// The caller reads the collected records from this process's sink
	// instance, so the node must execute here.
	n.Pinned = true
	return sink
}
