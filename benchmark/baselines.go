package main

import (
	"fmt"
	"runtime"
)

// shortSeconds is the measured time of the traced run's single-thread
// baseline: long enough for a rate, short enough to keep the traced run
// inside its time cap.
const shortSeconds = 3

// measureFunc repeats a workload's measured phase, untraced, into r.
type measureFunc func(seconds float64, par int, r *Result) error

// baselines gives the traced run its two yardsticks. The measured phase runs
// again without the tracer, for as long: by how much the traced run's CPU
// time per record exceeds it is the tracing overhead. (CPU time, not rate:
// it is the one figure that also moves on the fixed-rate live workload.) Then
// it runs briefly at parallelism 1 on one thread: the single-thread baseline
// that shows what the second core buys. The untraced result is returned for
// callers that compare further runs with it.
func baselines(res *Result, cfg Config, measure measureFunc) (*Result, error) {
	un := newResult(res.Workload)
	if err := measure(cfg.Seconds, parallelism, un); err != nil {
		return nil, fmt.Errorf("untraced repeat: %w", err)
	}
	res.Layer["harness.tracing_overhead_share"] = res.Metrics["cpu_us_per_record"]/un.Metrics["cpu_us_per_record"] - 1

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := newResult(res.Workload)
	if err := measure(shortSeconds, 1, one); err != nil {
		return nil, fmt.Errorf("single-thread baseline: %w", err)
	}
	res.Layer["harness.par1_records_per_s"] = one.Metrics["records_per_s"]
	// The repeat is a full run and counts; the baseline is a yardstick: on one
	// thread the open-loop workload may refuse events, which says nothing
	// about the engine at the benchmark's load.
	res.Attempted += un.Attempted
	res.Failed += un.Failed
	return un, nil
}
