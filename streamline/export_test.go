package streamline

import (
	"repro/internal/clock"
	"repro/internal/dataflow"
)

// PlanOf returns the graph an Env has built so far and its chaining flag —
// the physical plan a run or a distributed worker would execute.
func PlanOf(e *Env) (*dataflow.Graph, bool) { return e.graph, e.chaining }

// SetClock makes every run of e read clk: its job's checkpoint interval and
// sources, and its supervisor's backoff and rejoin window.
func SetClock(e *Env, clk clock.Clock) { e.clk = clk }

// ChannelPoll is how long a Channel reader waits on an empty channel before
// it reports ReadIdle.
const ChannelPoll = channelPoll
