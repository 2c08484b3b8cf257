package transport

import "repro/internal/clock"

// WorkerClock runs a worker's dial pauses, its rejoin beat and its share of
// the job on clk.
func WorkerClock(clk clock.Clock) WorkerOption {
	return func(o *workerOpts) { o.clk = clk }
}
