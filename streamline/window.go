package streamline

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/dataflow"
	"repro/internal/window"
)

// Window describes a window shape (tumbling, sliding, session, ...) for
// WindowAggregate.
type Window = window.Spec

// Tumbling returns fixed, gap-free, non-overlapping windows of the given
// size (event-time ticks).
func Tumbling(size int64) Window { return window.Tumbling(size) }

// Sliding returns overlapping windows of the given size, starting every
// slide ticks.
func Sliding(size, slide int64) Window { return window.Sliding(size, slide) }

// Session returns data-driven session windows that close after gap ticks of
// inactivity per key.
func Session(gap int64) Window { return window.Session(gap) }

// SessionWithMaxDuration is Session with an upper bound on window length.
func SessionWithMaxDuration(gap, maxDur int64) Window {
	return window.SessionWithMaxDuration(gap, maxDur)
}

// CountTumbling returns windows of exactly n elements per key.
func CountTumbling(n int64) Window { return window.CountTumbling(n) }

// CountSliding returns n-element windows advancing every `every` elements.
func CountSliding(n, every int64) Window { return window.CountSliding(n, every) }

// Aggregate is a decomposable float64 aggregate function for windowed
// queries.
type Aggregate = *agg.FnF64

// Sum aggregates the window's values by addition.
func Sum() Aggregate { return agg.SumF64() }

// Count counts the window's elements.
func Count() Aggregate { return agg.CountF64() }

// Avg computes the arithmetic mean of the window's values.
func Avg() Aggregate { return agg.AvgF64() }

// Min computes the minimum of the window's values.
func Min() Aggregate { return agg.MinF64() }

// Max computes the maximum of the window's values.
func Max() Aggregate { return agg.MaxF64() }

// WindowedQuery pairs a window shape with an aggregate for WindowAggregate.
type WindowedQuery struct {
	Window Window
	Fn     Aggregate
}

// Query constructs a WindowedQuery.
func Query(w Window, fn Aggregate) WindowedQuery {
	return WindowedQuery{Window: w, Fn: fn}
}

// WindowResult is one fired window of one query: queries are numbered by
// their position in the WindowAggregate call, [Start, End) is the window
// span, Value the aggregate, and Count the number of elements aggregated.
type WindowResult = dataflow.WindowResult

// WindowAggregate runs one or more window queries over the keyed stream
// (KeyBy first). All queries registered in one call share slicing and
// pre-aggregation work per key through the Cutty engine — adding a query to
// an existing call is cheaper than a second WindowAggregate. Each element
// of the result stream is one fired window.
func WindowAggregate(s *Stream[float64], name string, queries ...WindowedQuery) *Stream[WindowResult] {
	s.noteConsumer()
	env, in := s.env, s.lower()
	switch {
	case len(queries) == 0:
		env.fail(fmt.Errorf("streamline: WindowAggregate %q requires at least one query", name))
		return &Stream[WindowResult]{env: env, node: in}
	case !s.keyed:
		env.fail(fmt.Errorf("streamline: WindowAggregate %q requires a keyed stream (call KeyBy first)", name))
		return &Stream[WindowResult]{env: env, node: in}
	}
	wq := make([]dataflow.WindowQuery, len(queries))
	for i, q := range queries {
		wq[i] = dataflow.WindowQuery{Spec: q.Window, Fn: q.Fn}
	}
	n := env.graph.AddOperator(name, env.parallelism, dataflow.NewWindowOp(wq...),
		dataflow.Edge{From: in, Part: dataflow.HashPartition})
	return &Stream[WindowResult]{env: env, node: n, keyed: true}
}
