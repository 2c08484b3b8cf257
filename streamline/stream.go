package streamline

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
)

// Keyed is the user-visible record of a typed stream: an event timestamp, a
// partitioning key, and a payload of the stream's element type. It is the
// typed rendering of the engine's untyped record.
type Keyed[T any] struct {
	// Ts is the event timestamp in event-time ticks (milliseconds in the
	// examples and experiments).
	Ts int64
	// Key is the partitioning key (meaningful after KeyBy).
	Key uint64
	// Value is the payload.
	Value T
}

// Stream is a typed handle to one stage of a pipeline — the unified
// abstraction over data at rest and data in motion. All transformations
// derive new streams; none execute until Env.Execute. Each typed operator
// lowers to a node of the Env's engine plan (a dataflow.Graph of untyped
// records), so the optimizer (chaining, combiner insertion, Cutty sharing)
// applies to every typed pipeline alike.
//
// Lowering is deferred for the stateless stages (Map, Filter, FlatMap): a
// run of adjacent stages fuses into one lowered operator whose composed
// closure keeps the value in its concrete type across stages — one unbox at
// chain entry, one box at chain exit, instead of a box/unbox pair per stage.
// Each subtask composes its own closure around its own dataflow.Boxer.
// The fused node's name concatenates the stage names with "+", so plan
// fingerprints stay deterministic; fusion never crosses KeyBy, window, join,
// union, sink, or exchange boundaries.
type Stream[T any] struct {
	env *Env

	// node is the stream's node in the engine plan. It is set at
	// construction for materialized streams (sources, shuffles) and memoized
	// by lower() for deferred stages.
	node *dataflow.Node
	// keyed reports that the stream's records carry a partitioning key
	// (after KeyBy or a keyed operator): WindowAggregate and JoinWindow
	// require it. Stateless stages keep their input's.
	keyed bool
	// parent and stage describe a deferred stateless stage: stage applied to
	// parent's elements. nil once lowered or for materialized streams.
	parent fusible
	stage  *fuseStage
	// consumers counts derived streams and terminals. A pending stage is
	// absorbed into a downstream fused run only while it has exactly one
	// consumer; branch points materialize their own run instead, so no
	// consumer's records are computed by another branch's operator.
	consumers int
}

// emitFn is the typed hot-path signature fused stages compose: one call per
// element, with the collector threaded as a parameter so the composed
// closures are built once per subtask — never per record.
type emitFn[T any] func(ts int64, key uint64, v T, out dataflow.Collector)

// emitBoxed returns the terminal emitFn of a fused run or a lone FlatMap: it
// boxes the typed value into an engine record through a boxer of its own, so
// each operator instance (one subtask) calls it once.
func emitBoxed[U any]() emitFn[U] {
	var box dataflow.Boxer[U]
	return func(ts int64, key uint64, v U, out dataflow.Collector) {
		out.Collect(dataflow.Data(ts, key, box.Box(v)))
	}
}

// fuseStage is one deferred stateless stage. compose and entry are
// type-erased only at the seams (any wraps a concrete emitFn); inside the
// composed closure values stay in their concrete types.
type fuseStage struct {
	name string
	// compose wraps the downstream emitFn (of this stage's output type) into
	// this stage's emitFn (of its input type).
	compose func(down any) any
	// entry binds the run's single unbox: it turns the fully composed head
	// emitFn into the lowered operator's per-record function.
	entry func(em any) func(dataflow.Record, dataflow.Collector)
	// direct is the stage-per-node operator, used for runs of one: a lone
	// stage has nothing to fuse with and needs no composed closure.
	direct dataflow.OperatorFactory
}

// fusible is the type-erased view of a Stream[T] the fusion walk uses to
// cross element-type boundaries (a Map[T,U]'s parent is a Stream[T], its
// child a Stream[U]).
type fusible interface {
	noteConsumer()
	consumerCount() int
	lowerAny() *dataflow.Node
	// pendingRun returns the stream's deferred stage and parent, reporting
	// false once lowered or for materialized streams.
	pendingRun() (*fuseStage, fusible, bool)
}

func (s *Stream[T]) noteConsumer()      { s.consumers++ }
func (s *Stream[T]) consumerCount() int { return s.consumers }
func (s *Stream[T]) lowerAny() *dataflow.Node {
	return s.lower()
}

func (s *Stream[T]) pendingRun() (*fuseStage, fusible, bool) {
	if s.node != nil || s.stage == nil {
		return nil, nil, false
	}
	return s.stage, s.parent, true
}

// lower materializes the stream into the engine plan, fusing the maximal run
// of pending single-consumer stages ending here into one operator. The
// result is memoized: every consumer of this handle shares the lowered node.
func (s *Stream[T]) lower() *dataflow.Node {
	if s.node != nil {
		return s.node
	}
	// Collect the run tail-first: s's own stage, then ancestors while they
	// are unmaterialized stages feeding only this run.
	stages := []*fuseStage{s.stage}
	base := s.parent
	for {
		st, p, ok := base.pendingRun()
		if !ok || base.consumerCount() != 1 {
			break
		}
		stages = append(stages, st)
		base = p
	}
	bn := base.lowerAny()
	if len(stages) == 1 {
		s.node = s.env.forward(bn, s.stage.name, s.stage.direct)
		return s.node
	}
	names := make([]string, len(stages))
	for i, st := range stages {
		names[len(stages)-1-i] = st.name
	}
	head := stages[len(stages)-1]
	s.node = s.env.forward(bn, strings.Join(names, "+"), func() dataflow.Operator {
		// Each subtask composes its own chain around its own boxer.
		var em any = emitBoxed[T]()
		for _, st := range stages {
			em = st.compose(em)
		}
		return &dataflow.FlatMapOp{F: head.entry(em)}
	})
	return s.node
}

// forward appends an operator reading n over a forward edge at n's
// parallelism — a stage that keeps its input's partitioning, which chaining
// fuses into n's subtasks.
func (e *Env) forward(n *dataflow.Node, name string, f dataflow.OperatorFactory) *dataflow.Node {
	return e.graph.AddOperator(name, n.Parallelism, f, dataflow.Edge{From: n, Part: dataflow.Forward})
}

// terminal appends a sink operator at parallelism 1 reading s over a
// rebalance edge. A sink observes results in the submitting process (a
// caller's function or buffer, a topic store's files), so in distributed
// execution its node is pinned there.
func (s *Stream[T]) terminal(name string, f dataflow.OperatorFactory) {
	s.noteConsumer()
	n := s.env.graph.AddOperator(name, 1, f, dataflow.Edge{From: s.lower(), Part: dataflow.Rebalance})
	n.Pinned = true
}

// derive creates the typed handle of a deferred stage over parent.
func derive[U, T any](parent *Stream[T], st *fuseStage) *Stream[U] {
	parent.noteConsumer()
	return &Stream[U]{env: parent.env, keyed: parent.keyed, parent: parent, stage: st}
}

// unbox converts an engine record back to its typed form. It panics on a
// payload of the wrong type, which indicates a bug in the lowering layer —
// typed plans never mix payload types on one edge.
func unbox[T any](r dataflow.Record) Keyed[T] {
	return Keyed[T]{Ts: r.Ts, Key: r.Key, Value: r.Value.(T)}
}

// Map derives a stream by applying f to every element. Timestamps and keys
// are preserved.
func Map[T, U any](s *Stream[T], name string, f func(T) U) *Stream[U] {
	return derive[U](s, &fuseStage{
		name: name,
		compose: func(down any) any {
			d := down.(emitFn[U])
			return emitFn[T](func(ts int64, key uint64, v T, out dataflow.Collector) {
				d(ts, key, f(v), out)
			})
		},
		entry: entryFor[T],
		direct: func() dataflow.Operator {
			var box dataflow.Boxer[U]
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
				r.Value = box.Box(f(r.Value.(T)))
				return r
			}}
		},
	})
}

// Filter derives a stream keeping elements for which f returns true.
func Filter[T any](s *Stream[T], name string, f func(T) bool) *Stream[T] {
	return derive[T](s, &fuseStage{
		name: name,
		compose: func(down any) any {
			d := down.(emitFn[T])
			return emitFn[T](func(ts int64, key uint64, v T, out dataflow.Collector) {
				if f(v) {
					d(ts, key, v, out)
				}
			})
		},
		entry: entryFor[T],
		direct: func() dataflow.Operator {
			return &dataflow.FilterOp{F: func(r dataflow.Record) bool {
				return f(r.Value.(T))
			}}
		},
	})
}

// entryFor binds a fused run's single unbox for head-stage input type T.
func entryFor[T any](em any) func(dataflow.Record, dataflow.Collector) {
	e := em.(emitFn[T])
	return func(r dataflow.Record, out dataflow.Collector) {
		e(r.Ts, r.Key, r.Value.(T), out)
	}
}

// Emitter receives the elements a FlatMap function produces. Emitted
// elements inherit the input record's timestamp and key unless EmitAt is
// used. It is passed by value and carries the downstream emit function bound
// once at lowering — per-record use allocates nothing.
type Emitter[U any] struct {
	ts   int64
	key  uint64
	out  dataflow.Collector
	emit emitFn[U]
}

// Emit sends one element downstream with the input's timestamp and key.
func (e Emitter[U]) Emit(v U) { e.emit(e.ts, e.key, v, e.out) }

// EmitAt sends one element downstream with an explicit timestamp; the key
// is still inherited from the input record.
func (e Emitter[U]) EmitAt(ts int64, v U) { e.emit(ts, e.key, v, e.out) }

// FlatMap derives a stream where f may emit any number of elements per
// input.
func FlatMap[T, U any](s *Stream[T], name string, f func(T, Emitter[U])) *Stream[U] {
	return derive[U](s, &fuseStage{
		name: name,
		compose: func(down any) any {
			d := down.(emitFn[U])
			return emitFn[T](func(ts int64, key uint64, v T, out dataflow.Collector) {
				f(v, Emitter[U]{ts: ts, key: key, out: out, emit: d})
			})
		},
		entry: entryFor[T],
		direct: func() dataflow.Operator {
			emit := emitBoxed[U]()
			return &dataflow.FlatMapOp{F: func(r dataflow.Record, out dataflow.Collector) {
				f(r.Value.(T), Emitter[U]{ts: r.Ts, key: r.Key, out: out, emit: emit})
			}}
		},
	})
}

// KeyBy re-keys every element with keyFn. The next shuffling transformation
// (ReduceByKey, WindowAggregate, JoinWindow) partitions by this key.
func KeyBy[T any](s *Stream[T], name string, keyFn func(T) uint64) *Stream[T] {
	return s.keyBy(name, func(r dataflow.Record) dataflow.Record {
		r.Key = keyFn(r.Value.(T))
		return r
	})
}

// keyBy appends the re-keying stage f, a map that sets every record's key.
// The next shuffling transformation partitions by this key.
func (s *Stream[T]) keyBy(name string, f func(dataflow.Record) dataflow.Record) *Stream[T] {
	s.noteConsumer()
	n := s.env.forward(s.lower(), name, func() dataflow.Operator { return &dataflow.MapOp{F: f} })
	return &Stream[T]{env: s.env, node: n, keyed: true}
}

// KeyByRecord re-keys every element with keyFn, which sees the full Keyed
// record — timestamp and currently stamped key included. Use it when the
// source already stamps a meaningful key; KeyBy is the value-only form.
func KeyByRecord[T any](s *Stream[T], name string, keyFn func(Keyed[T]) uint64) *Stream[T] {
	return s.keyBy(name, func(r dataflow.Record) dataflow.Record {
		r.Key = keyFn(unbox[T](r))
		return r
	})
}

// KeyByString re-keys every element by hashing the string keyFn extracts
// (FNV-1a, via the engine's KeyOf).
func KeyByString[T any](s *Stream[T], name string, keyFn func(T) string) *Stream[T] {
	return KeyBy(s, name, func(v T) uint64 { return dataflow.KeyOf(keyFn(v)) })
}

// KeyOf hashes an arbitrary string to a partitioning key — the same hash
// KeyByString applies, exposed for callers that pre-compute keys.
func KeyOf(s string) uint64 { return dataflow.KeyOf(s) }

// ReduceByKey aggregates float64 elements per key with the associative,
// commutative function f. In bounded execution it emits one element per key
// at the end; in continuous mode (emitEach) it emits every update. The
// optimizer inserts a combiner before the shuffle according to the
// environment's CombinerMode.
func ReduceByKey(s *Stream[float64], name string, f func(acc, v float64) float64, emitEach bool) *Stream[float64] {
	s.noteConsumer()
	env, up := s.env, s.lower()
	// Combiner insertion: pre-aggregate on the producer side of the hash
	// shuffle so the shuffle moves partial aggregates, not raw records.
	if env.combiner != CombinerOff {
		adaptive := env.combiner == CombinerAuto
		up = env.forward(up, name+"-combine", func() dataflow.Operator {
			return &dataflow.CombinerOp{F: f, FlushEvery: 1024, Adaptive: adaptive}
		})
	}
	n := env.graph.AddOperator(name, env.parallelism, func() dataflow.Operator {
		return &dataflow.KeyedReduceOp{F: f, EmitEach: emitEach}
	}, dataflow.Edge{From: up, Part: dataflow.HashPartition})
	return &Stream[float64]{env: env, node: n, keyed: true}
}

// JoinedPair is one match of a windowed equi-join: the left and right
// values that shared a key within one tumbling window.
type JoinedPair[L, R any] struct {
	WindowStart int64
	WindowEnd   int64
	Left        L
	Right       R
}

// JoinWindow equi-joins this stream (left) with other (right) on the
// element key within tumbling event-time windows of the given size. Both
// streams must be keyed (KeyBy first). The engine's join operates on
// float64 payloads, so both sides are Stream[float64]. Unlike the other
// operators, the lowering appends one re-typing map stage after the join;
// it sits on a forward edge, so chaining fuses it into the join subtask.
func JoinWindow(s *Stream[float64], name string, other *Stream[float64], size int64) *Stream[JoinedPair[float64, float64]] {
	s.noteConsumer()
	other.noteConsumer()
	env, left, right := s.env, s.lower(), other.lower()
	if !s.keyed || !other.keyed {
		env.fail(fmt.Errorf("streamline: JoinWindow %q requires both streams keyed (call KeyBy first)", name))
		return &Stream[JoinedPair[float64, float64]]{env: env, node: left}
	}
	joined := env.graph.AddOperator(name, env.parallelism, dataflow.NewWindowJoinOp(size),
		dataflow.Edge{From: left, Part: dataflow.HashPartition},
		dataflow.Edge{From: right, Part: dataflow.HashPartition},
	)
	// Rebox the engine's pair type into the typed pair on a chained edge.
	n := env.forward(joined, name+"-typed", func() dataflow.Operator {
		var box dataflow.Boxer[JoinedPair[float64, float64]]
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
			p := r.Value.(dataflow.JoinedPair)
			r.Value = box.Box(JoinedPair[float64, float64]{
				WindowStart: p.WindowStart,
				WindowEnd:   p.WindowEnd,
				Left:        p.Left,
				Right:       p.Right,
			})
			return r
		}}
	})
	return &Stream[JoinedPair[float64, float64]]{env: env, node: n, keyed: true}
}

// Union merges this stream with others of the same element type (no
// ordering guarantee).
func Union[T any](s *Stream[T], name string, others ...*Stream[T]) *Stream[T] {
	s.noteConsumer()
	// The others lower before s, so pending stages land in the plan in the
	// order they always have: the node IDs are part of the fingerprint.
	edges := make([]dataflow.Edge, 1+len(others))
	for i, o := range others {
		o.noteConsumer()
		edges[1+i] = dataflow.Edge{From: o.lower(), Part: dataflow.Rebalance}
	}
	edges[0] = dataflow.Edge{From: s.lower(), Part: dataflow.Rebalance}
	n := s.env.graph.AddOperator(name, s.env.parallelism, func() dataflow.Operator {
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { return r }}
	}, edges...)
	return &Stream[T]{env: s.env, node: n}
}

// Sink terminates the stream invoking f for every element.
func Sink[T any](s *Stream[T], name string, f func(Keyed[T])) {
	s.terminal(name, func() dataflow.Operator {
		return &dataflow.FuncSink{F: func(r dataflow.Record) { f(unbox[T](r)) }}
	})
}

// Results holds the records a Collect terminal gathered; read it after
// Env.Execute returns.
type Results[T any] struct {
	sink *dataflow.CollectSink
}

// Records returns everything collected so far, unboxed.
func (c *Results[T]) Records() []Keyed[T] {
	recs := c.sink.Records()
	out := make([]Keyed[T], len(recs))
	for i, r := range recs {
		out[i] = unbox[T](r)
	}
	return out
}

// Collect terminates the stream into an in-memory Results handle.
func Collect[T any](s *Stream[T], name string) *Results[T] {
	sink := &dataflow.CollectSink{}
	s.terminal(name, sink.Factory())
	return &Results[T]{sink: sink}
}
