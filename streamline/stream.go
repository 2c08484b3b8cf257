package streamline

import (
	"strings"

	"repro/internal/core"
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
// lowers to the untyped record plan, so the optimizer (chaining, combiner
// insertion, Cutty sharing) applies unchanged.
//
// Lowering is deferred for the stateless stages (Map, Filter, FlatMap): a
// run of adjacent stages fuses into one lowered operator whose composed
// closure keeps the value in its concrete type across stages — one unbox at
// chain entry, one box at chain exit, instead of a box/unbox pair per stage.
// The fused node's name concatenates the stage names with "+", so plan
// fingerprints stay deterministic; fusion never crosses KeyBy, window, join,
// union, sink, or exchange boundaries.
type Stream[T any] struct {
	env *Env

	// inner is the lowered engine stream. It is set at construction for
	// materialized streams (sources, shuffles) and memoized by lower() for
	// deferred stages.
	inner *core.Stream
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
// closures are built once at lowering — never per record.
type emitFn[T any] func(ts int64, key uint64, v T, out dataflow.Collector)

// boxEmit is the terminal emitFn of a fused run: it boxes the typed value
// into an engine record. One generic instantiation per element type, bound
// once at lowering.
func boxEmit[U any](ts int64, key uint64, v U, out dataflow.Collector) {
	out.Collect(dataflow.Data(ts, key, v))
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
	// direct is the stage-per-node lowering, used for runs of one: a lone
	// stage has nothing to fuse with and needs no composed closure.
	direct func(base *core.Stream) *core.Stream
}

// fusible is the type-erased view of a Stream[T] the fusion walk uses to
// cross element-type boundaries (a Map[T,U]'s parent is a Stream[T], its
// child a Stream[U]).
type fusible interface {
	noteConsumer()
	consumerCount() int
	lowerAny() *core.Stream
	// pendingRun returns the stream's deferred stage and parent, reporting
	// false once lowered or for materialized streams.
	pendingRun() (*fuseStage, fusible, bool)
}

func (s *Stream[T]) noteConsumer()      { s.consumers++ }
func (s *Stream[T]) consumerCount() int { return s.consumers }
func (s *Stream[T]) lowerAny() *core.Stream {
	return s.lower()
}

func (s *Stream[T]) pendingRun() (*fuseStage, fusible, bool) {
	if s.inner != nil || s.stage == nil {
		return nil, nil, false
	}
	return s.stage, s.parent, true
}

// lower materializes the stream into the engine plan, fusing the maximal run
// of pending single-consumer stages ending here into one operator. The
// result is memoized: every consumer of this handle shares the lowered node.
func (s *Stream[T]) lower() *core.Stream {
	if s.inner != nil {
		return s.inner
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
	cb := base.lowerAny()
	if len(stages) == 1 {
		s.inner = s.stage.direct(cb)
		return s.inner
	}
	var em any = emitFn[T](boxEmit[T])
	names := make([]string, len(stages))
	for i, st := range stages {
		em = st.compose(em)
		names[len(stages)-1-i] = st.name
	}
	head := stages[len(stages)-1]
	s.inner = cb.FlatMap(strings.Join(names, "+"), head.entry(em))
	return s.inner
}

// derive creates the typed handle of a deferred stage over parent.
func derive[U, T any](parent *Stream[T], st *fuseStage) *Stream[U] {
	parent.noteConsumer()
	return &Stream[U]{env: parent.env, parent: parent, stage: st}
}

// box converts a typed record to the engine representation.
func box[T any](k Keyed[T]) dataflow.Record {
	return dataflow.Data(k.Ts, k.Key, k.Value)
}

// unbox converts an engine record back to its typed form. It panics on a
// payload of the wrong type, which indicates a bug in the lowering layer —
// typed plans never mix payload types on one edge.
func unbox[T any](r dataflow.Record) Keyed[T] {
	return Keyed[T]{Ts: r.Ts, Key: r.Key, Value: r.Value.(T)}
}

// Inner exposes the untyped stream this handle lowers to (diagnostics and
// interop with internal/core builders). Calling it materializes the handle,
// so pending stages upstream fuse up to this point and later consumers build
// on the lowered node.
func (s *Stream[T]) Inner() *core.Stream { return s.lower() }

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
		direct: func(base *core.Stream) *core.Stream {
			return base.Map(name, func(r dataflow.Record) dataflow.Record {
				r.Value = f(r.Value.(T))
				return r
			})
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
		direct: func(base *core.Stream) *core.Stream {
			return base.Filter(name, func(r dataflow.Record) bool {
				return f(r.Value.(T))
			})
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
		direct: func(base *core.Stream) *core.Stream {
			return base.FlatMap(name, func(r dataflow.Record, out dataflow.Collector) {
				f(r.Value.(T), Emitter[U]{ts: r.Ts, key: r.Key, out: out, emit: boxEmit[U]})
			})
		},
	})
}

// KeyBy re-keys every element with keyFn. The next shuffling transformation
// (ReduceByKey, WindowAggregate, JoinWindow) partitions by this key.
func KeyBy[T any](s *Stream[T], name string, keyFn func(T) uint64) *Stream[T] {
	s.noteConsumer()
	inner := s.lower().KeyBy(name, func(r dataflow.Record) uint64 {
		return keyFn(r.Value.(T))
	})
	return &Stream[T]{env: s.env, inner: inner}
}

// KeyByRecord re-keys every element with keyFn, which sees the full Keyed
// record — timestamp and currently stamped key included. Use it when the
// source already stamps a meaningful key; KeyBy is the value-only form.
func KeyByRecord[T any](s *Stream[T], name string, keyFn func(Keyed[T]) uint64) *Stream[T] {
	s.noteConsumer()
	inner := s.lower().KeyBy(name, func(r dataflow.Record) uint64 {
		return keyFn(unbox[T](r))
	})
	return &Stream[T]{env: s.env, inner: inner}
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
	return &Stream[float64]{env: s.env, inner: s.lower().ReduceByKey(name, f, emitEach)}
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
	joined := s.lower().JoinWindow(name, other.lower(), size)
	// Rebox the engine's pair type into the typed pair on a chained edge.
	inner := joined.Map(name+"-typed", func(r dataflow.Record) dataflow.Record {
		p := r.Value.(dataflow.JoinedPair)
		r.Value = JoinedPair[float64, float64]{
			WindowStart: p.WindowStart,
			WindowEnd:   p.WindowEnd,
			Left:        p.Left,
			Right:       p.Right,
		}
		return r
	})
	return &Stream[JoinedPair[float64, float64]]{env: s.env, inner: inner}
}

// Union merges this stream with others of the same element type (no
// ordering guarantee).
func Union[T any](s *Stream[T], name string, others ...*Stream[T]) *Stream[T] {
	s.noteConsumer()
	rest := make([]*core.Stream, len(others))
	for i, o := range others {
		o.noteConsumer()
		rest[i] = o.lower()
	}
	return &Stream[T]{env: s.env, inner: s.lower().Union(name, rest...)}
}

// Sink terminates the stream invoking f for every element.
func Sink[T any](s *Stream[T], name string, f func(Keyed[T])) {
	s.noteConsumer()
	s.lower().Sink(name, func(r dataflow.Record) { f(unbox[T](r)) })
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
	s.noteConsumer()
	return &Results[T]{sink: s.lower().Collect(name)}
}
