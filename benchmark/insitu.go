package main

import (
	"context"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/streamline"
)

// executor returns how to run env's job. End-to-end numbers always come
// from Env.Execute. That path attaches no metrics registry (Env.Metrics is
// wired into distributed runs only), so the traced run, which wants the
// engine's own counters in situ, runs the same lowered graph through the
// job constructor Env.Execute itself uses, with a registry attached.
func executor(env *streamline.Env, tr *Tracer) (*metrics.Registry, func(context.Context) error) {
	if tr == nil {
		return nil, env.Execute
	}
	reg := metrics.NewRegistry()
	return reg, func(ctx context.Context) error {
		c := env.Core()
		if err := c.BuildErr(); err != nil {
			return err
		}
		opts := []dataflow.JobOption{dataflow.WithChaining(c.Chaining()), dataflow.WithMetrics(reg)}
		if b, every := c.Backend(); b != nil {
			opts = append(opts, dataflow.WithCheckpointing(b, every))
		}
		return dataflow.NewJob(c.Graph(), opts...).Run(ctx)
	}
}

// edgeWatch tracks the highest occupancy the traced run's sampler saw on the
// exchange edges into the named consumer nodes.
type edgeWatch struct {
	gauges []*metrics.Gauge
	max    int64
}

func watchEdges(reg *metrics.Registry, consumers ...string) *edgeWatch {
	w := &edgeWatch{}
	if reg == nil {
		return w
	}
	for _, c := range consumers {
		w.gauges = append(w.gauges, reg.Gauge(fmt.Sprintf("edge.%s.0.queued_batches", c)))
	}
	return w
}

func (w *edgeWatch) sample(*phase) {
	for _, g := range w.gauges {
		if v := g.Value(); v > w.max {
			w.max = v
		}
	}
}

// counter reads a registry counter; the registries of every participant of a
// distributed run are summed.
func counter(regs []*metrics.Registry, name string) float64 {
	var n int64
	for _, r := range regs {
		if r != nil {
			n += r.Counter(name).Value()
		}
	}
	return float64(n)
}

// share is a/b, or 0 where the workload has no b.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
