package main

import (
	"context"
	"fmt"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/ref"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/streamline"
)

// The dist workload: the same engine across a coordinator and two workers
// over loopback TCP. The operator is a cheap keyed sum and the keys are
// nearly unique within a combiner window, so the adaptive combiner switches
// itself off and every record crosses an exchange edge, half of them a
// socket: the stager, the wire codec and TCP dominate. The workers run as
// goroutines of this process dialing the coordinator's real listener, so the
// wire is real and the load still comes from one process.
const (
	distKeys    = 65_536
	distWorkers = 2
)

// sumSink is the sink of the reduce workloads: it adds up the final per-key
// sums and, for the verify pass, keeps them.
type sumSink struct {
	results int64
	total   float64
	first   time.Time
	keep    map[uint64][]float64
}

func (s *sumSink) take(k streamline.Keyed[float64]) {
	if s.results == 0 {
		s.first = time.Now()
	}
	s.results++
	s.total += k.Value
	if s.keep != nil {
		s.keep[k.Key] = append(s.keep[k.Key], k.Value)
	}
}

func add(acc, v float64) float64 { return acc + v }

// distPipeline builds the workload's plan; coordinator and workers each call
// it, around the same Box.
func distPipeline(box *gen.Box, f gen.Func, par, workers int, sink *sumSink, tr *Tracer, root int, extra ...streamline.Option) *streamline.Env {
	opts := append([]streamline.Option{streamline.WithParallelism(par), streamline.WithWorkers(workers)}, extra...)
	env := streamline.New(opts...)
	src := streamline.From(env, "gen", gen.TimeBoxed(box, f, func(e gen.Event) float64 { return e.Val }, nil),
		streamline.WithSourceParallelism(par))
	keyFn := trace1(tr, "user.key", root, func(k streamline.Keyed[float64]) uint64 { return k.Key })
	keyed := streamline.KeyByRecord(src, "key", keyFn)
	sums := streamline.ReduceByKey(keyed, "sum", add, false)
	streamline.Sink(sums, "out", traceDo(tr, "user.sink", root, sink.take))
	return env
}

// distRun is one distributed execution of the plan and what it measured.
type distRun struct {
	sink    *sumSink
	startMs float64 // ExecuteDistributed call -> first record taken by a source
	regs    []*metrics.Registry
}

// distExecute runs the plan on a coordinator and `workers` in-process workers.
// With a tracer the workers report into registries the harness can read (the
// public RunWorker keeps its registry to itself); without one they go through
// the public entry point.
func distExecute(box *gen.Box, f gen.Func, par, workers int, keep bool, tr *Tracer, root int) (*distRun, error) {
	run := &distRun{sink: &sumSink{}}
	if keep {
		run.sink.keep = map[uint64][]float64{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Capacity 1: the coordinator announces its address once and must not
	// wait for the goroutine below to be scheduled.
	addrCh := make(chan string, 1)
	env := distPipeline(box, f, par, workers, run.sink, tr, root,
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	run.regs = []*metrics.Registry{env.Metrics()}
	errCh := make(chan error, workers)
	build := func(string, []string) (*streamline.Env, error) {
		return distPipeline(box, f, par, workers, &sumSink{}, tr, root), nil
	}
	worker := func(addr string, reg *metrics.Registry) error {
		if reg == nil {
			return streamline.RunWorker(ctx, addr, build)
		}
		return transport.RunWorker(ctx, addr, reg, func(p string, args []string) (*dataflow.Graph, bool, error) {
			e, err := build(p, args)
			if err != nil {
				return nil, false, err
			}
			return e.Core().Graph(), e.Core().Chaining(), e.Core().BuildErr()
		})
	}
	if workers > 0 {
		go func() {
			var addr string
			select {
			case addr = <-addrCh:
			case <-ctx.Done():
			}
			for i := 0; i < workers; i++ {
				if addr == "" {
					errCh <- ctx.Err()
					continue
				}
				var reg *metrics.Registry
				if tr != nil {
					reg = metrics.NewRegistry()
					run.regs = append(run.regs, reg)
				}
				go func() { errCh <- worker(addr, reg) }()
			}
		}()
	}
	sp := tr.Begin("ExecuteDistributed", root)
	called := time.Now()
	err := env.ExecuteDistributed(ctx)
	tr.End(sp)
	cancel() // a failed coordinator must not leave workers dialing
	for i := 0; i < workers; i++ {
		if werr := <-errCh; werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	if err != nil {
		return nil, err
	}
	run.startMs = float64(box.FirstNext().Sub(called)) / 1e6
	return run, nil
}

type distInputs struct {
	want ref.Sums
}

func distSetup(seed uint64) (distInputs, error) {
	f := gen.Uniform(seed, distKeys, 1, 1)
	in := distInputs{want: ref.Sums{}}
	for sub := 0; sub < parallelism; sub++ {
		for i := int64(0); i < verifyRecords/parallelism; i++ {
			e := f(sub, parallelism, i)
			in.want[e.Key] += e.Val
		}
	}
	return in, nil
}

func distMeasure(seed uint64, seconds float64, par, workers int, tr *Tracer, res *Result) error {
	f := gen.Uniform(seed, distKeys, 1, 1)
	box := gen.NewBox(par, -1, time.Duration(seconds*float64(time.Second)))
	root := tr.Begin("execute", -1)
	ph := beginPhase(box.Taken, nil)
	run, err := distExecute(box, f, par, workers, false, tr, root)
	if err != nil {
		return fmt.Errorf("timed run: %w", err)
	}
	st := ph.end()
	tr.End(root)
	taken := box.Taken()
	rate, err := rateAfterWarmup(st.Series, box.FirstNext(), box.LastEnd(), taken)
	if err != nil {
		return err
	}
	res.Metrics["records_per_s"] = rate
	res.Layer["transport.start_ms"] = run.startMs
	res.universal(st, taken)
	res.Counts["records"] = taken
	res.Counts["results"] = run.sink.results
	res.Attempted += taken
	// Conservation: every value is 1, so the final sums add up to the records
	// the readers handed over.
	res.fail(abs(int64(run.sink.total)-taken), "final sums add up to %.0f, but %d records were emitted", run.sink.total, taken)
	res.Units["records"] = float64(taken)
	res.Units["generated_records"] = float64(taken)
	res.Units["combiner_records"] = float64(taken)
	res.Units["state_keys"] = distKeys
	res.Units["exchange_records"] = float64(taken)
	res.Units["reduce_records"] = float64(taken)
	res.Units["results"] = float64(run.sink.results)
	if tr != nil {
		// The combiner is chained into the source subtask, whose counter is
		// the source node's; what it lets through is what the reduce takes in.
		out := counter(run.regs, "node.sum.records_in")
		res.Layer["core.combiner_pass_share"] = share(out, counter(run.regs, "node.gen.records_in"))
		res.Layer["transport.tx_bytes_per_record"] = share(
			counter(run.regs, "edge.sum.0.tx_bytes")+counter(run.regs, "edge.out.0.tx_bytes"), float64(taken))
		res.Units["wire_records"] = out / 2 // half of the hash edge's records stay inside their worker
	}
	return nil
}

func runDist(cfg Config, tr *Tracer) (*Result, error) {
	res := newResult("dist")
	in, setup, err := timeSetup(tr, func() (distInputs, error) { return distSetup(cfg.Seed) }, nil)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = setup

	sp := tr.Begin("verify", -1)
	run, err := distExecute(gen.NewBox(parallelism, verifyRecords/parallelism, 0), gen.Uniform(cfg.Seed, distKeys, 1, 1),
		parallelism, distWorkers, true, nil, -1)
	if err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}
	tr.End(sp)
	d := ref.CompareSums(in.want, run.sink.keep)
	res.Attempted += d.Expected
	res.fail(d.Failed(), "verify pass: %d missing, %d extra, %d wrong of %d keyed sums", d.Missing, d.Extra, d.Bad, d.Expected)

	if err := distMeasure(cfg.Seed, cfg.Seconds, parallelism, distWorkers, tr, res); err != nil {
		return nil, err
	}
	if tr != nil {
		un, err := baselines(res, cfg, func(seconds float64, par int, r *Result) error {
			return distMeasure(cfg.Seed, seconds, par, distWorkers, nil, r)
		})
		if err != nil {
			return nil, err
		}
		// The same plan with no workers is the in-process exchange: the ratio
		// of the two rates is what the sockets and the wire codec cost.
		local := newResult("dist")
		if err := distMeasure(cfg.Seed, shortSeconds, parallelism, 0, nil, local); err != nil {
			return nil, fmt.Errorf("in-process run: %w", err)
		}
		res.Failed += local.Failed
		res.Layer["transport.loopback_ratio"] = share(un.Metrics["records_per_s"], local.Metrics["records_per_s"])
	}
	return res, nil
}
