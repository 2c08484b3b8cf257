// Package core holds the deprecated names the benchmark module still uses;
// package streamline builds the engine plan (a dataflow.Graph) itself.
package core

import (
	"time"

	"repro/internal/dataflow"
	"repro/internal/state"
)

// Environment is a read-only view of a streamline.Env's plan and the options
// a job built from it runs with.
//
// Deprecated: streamline.Env.Core returns it for benchmark/insitu.go and
// benchmark/dist.go, its last callers; it goes when they stop.
type Environment struct {
	graph    *dataflow.Graph
	chaining bool
	buildErr error
	backend  state.Backend
	every    time.Duration
}

// View returns the Environment of a plan and its options (streamline.Env.Core).
//
// Deprecated: see Environment.
func View(g *dataflow.Graph, chaining bool, buildErr error, backend state.Backend, every time.Duration) *Environment {
	return &Environment{graph: g, chaining: chaining, buildErr: buildErr, backend: backend, every: every}
}

// Graph returns the plan.
func (e *Environment) Graph() *dataflow.Graph { return e.graph }

// Chaining reports whether operator chaining is on.
func (e *Environment) Chaining() bool { return e.chaining }

// BuildErr returns the first pipeline construction error, if any.
func (e *Environment) BuildErr() error { return e.buildErr }

// Backend returns the checkpoint backend (nil when unset) and interval.
func (e *Environment) Backend() (state.Backend, time.Duration) { return e.backend, e.every }

// CombinerOp is the combiner the optimizer inserts before a hash shuffle.
//
// Deprecated: use dataflow.CombinerOp; benchmark/probes.go is the last user
// of this name.
type CombinerOp = dataflow.CombinerOp
