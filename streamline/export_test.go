package streamline

import "repro/internal/dataflow"

// PlanOf returns the graph an Env has built so far and its chaining flag —
// the physical plan a run or a distributed worker would execute.
func PlanOf(e *Env) (*dataflow.Graph, bool) { return e.graph, e.chaining }
