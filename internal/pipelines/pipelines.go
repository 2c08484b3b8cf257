// Package pipelines holds the named demo pipelines shared by the
// distributed binaries: cmd/streamline-coord builds one as the coordinator,
// and cmd/streamline-worker rebuilds the identical pipeline from the plan's
// pipeline name — the SPMD contract across separate processes. Every
// builder is deterministic for a fixed argument list, so the coordinator's
// plan fingerprint matches the workers' and distributed output is
// byte-identical to a single-process run of the same pipeline.
package pipelines

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"repro/streamline"
)

// The joined pipeline ships typed join pairs across the rebalance edge to
// its collector, so the generic instantiation must be wire-registered.
func init() { streamline.RegisterWireTypes(streamline.JoinedPair[float64, float64]{}) }

// Names lists the registered pipelines.
func Names() []string { return []string{"wordcount", "windowed", "fused", "joined"} }

// Build constructs the named pipeline with its argument list plus any extra
// environment options (the coordinator passes WithWorkers/WithListenAddr;
// workers pass none). It returns the environment and a render function
// producing the pipeline's deterministic, sorted text output — valid after
// execution completes.
func Build(name string, args []string, extra ...streamline.Option) (*streamline.Env, func() string, error) {
	switch name {
	case "wordcount":
		return buildWordcount(args, extra...)
	case "windowed":
		return buildWindowed(args, extra...)
	case "fused":
		return buildFused(args, extra...)
	case "joined":
		return buildJoined(args, extra...)
	}
	return nil, nil, fmt.Errorf("unknown pipeline %q (have %s)", name, strings.Join(Names(), ", "))
}

// RegisterAll registers every demo pipeline with streamline.RegisterPipeline,
// so a generic worker binary — streamline.RunWorker with a nil builder — can
// serve any of them.
func RegisterAll() {
	for _, name := range Names() {
		name := name
		streamline.RegisterPipeline(name, func(args []string) (*streamline.Env, error) {
			env, _, err := Build(name, args)
			return env, err
		})
	}
}

// buildWordcount is the distributed wordcount: a deterministic synthetic
// corpus split into words, counted per word behind a hash shuffle. The
// payload keeps the word text so the output is human-readable.
func buildWordcount(args []string, extra ...streamline.Option) (*streamline.Env, func() string, error) {
	fs := flag.NewFlagSet("wordcount", flag.ContinueOnError)
	lines := fs.Int("lines", 400, "number of synthetic input lines")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	opts := append([]streamline.Option{
		streamline.WithParallelism(2),
		streamline.WithPipelineRef("wordcount", args...),
	}, extra...)
	env := streamline.New(opts...)
	input := make([]string, *lines)
	vocab := map[uint64]string{}
	for i := range input {
		input[i] = fmt.Sprintf("alpha w%d beta w%d gamma w%d", i%17, i%29, (i*7)%61)
		for _, w := range strings.Fields(input[i]) {
			vocab[streamline.KeyOf(w)] = w
		}
	}
	src := streamline.From(env, "lines", streamline.Slice(input))
	words := streamline.FlatMap(src, "split", func(l string, em streamline.Emitter[string]) {
		for _, w := range strings.Fields(l) {
			em.Emit(w)
		}
	})
	keyed := streamline.KeyByString(words, "key", func(w string) string { return w })
	ones := streamline.Map(keyed, "one", func(string) float64 { return 1 })
	counts := streamline.ReduceByKey(ones, "count", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(counts, "out")
	render := func() string {
		ls := make([]string, 0, len(out.Records()))
		for _, r := range out.Records() {
			// The corpus is deterministic, so the key-to-word mapping is
			// recoverable on the render side; counting still runs keyed.
			ls = append(ls, fmt.Sprintf("%s=%g", vocab[r.Key], r.Value))
		}
		sort.Strings(ls)
		return strings.Join(ls, "\n") + "\n"
	}
	return env, render, nil
}

// buildFused is the stage-fusion guard: a genuine map→filter→map run that
// typed stage fusion collapses into one operator. Its fused node name is
// part of the plan fingerprint every distributed participant verifies, and
// its keyed sums must be byte-identical single-process and multi-process —
// so fusion lowering deterministically across processes is CI-checked, not
// assumed.
func buildFused(args []string, extra ...streamline.Option) (*streamline.Env, func() string, error) {
	fs := flag.NewFlagSet("fused", flag.ContinueOnError)
	events := fs.Int64("events", 8000, "number of generated events")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	opts := append([]streamline.Option{
		streamline.WithParallelism(2),
		streamline.WithPipelineRef("fused", args...),
	}, extra...)
	env := streamline.New(opts...)
	gen := streamline.Generator(*events, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 9), Value: float64(global % 223)}
	})
	src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
	scaled := streamline.Map(src, "scale", func(v float64) float64 { return v*3 + 1 })
	banded := streamline.Filter(scaled, "band", func(v float64) bool { return int64(v)%5 != 2 })
	final := streamline.Map(banded, "final", func(v float64) float64 { return v * 0.5 })
	keyed := streamline.KeyByRecord(final, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	out := streamline.Collect(sums, "out")
	render := func() string {
		ls := make([]string, 0, len(out.Records()))
		for _, r := range out.Records() {
			ls = append(ls, fmt.Sprintf("%d=%g", r.Key, r.Value))
		}
		sort.Strings(ls)
		return strings.Join(ls, "\n") + "\n"
	}
	return env, render, nil
}

// buildJoined is the keyed/windowed join guard: two deterministic generator
// streams equi-joined per key within tumbling windows. The join is a
// two-input keyed operator behind two hash edges, so the multi-process
// smoke diff covers runs tagged with their arrival edge (EdgeAware) — its
// pair set must be byte-identical single-process and multi-process.
func buildJoined(args []string, extra ...streamline.Option) (*streamline.Env, func() string, error) {
	fs := flag.NewFlagSet("joined", flag.ContinueOnError)
	events := fs.Int64("events", 4000, "number of generated events per side")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	opts := append([]streamline.Option{
		streamline.WithParallelism(2),
		streamline.WithPipelineRef("joined", args...),
	}, extra...)
	env := streamline.New(opts...)
	gen := func(stride int64) streamline.Source[float64] {
		return streamline.Generator(*events, func(sub, par int, i int64) streamline.Keyed[float64] {
			global := i*int64(par) + int64(sub)
			return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 5), Value: float64((global * stride) % 101)}
		})
	}
	left := streamline.From(env, "left", gen(3),
		streamline.WithSourceParallelism(2), streamline.WithWatermarkEvery(64))
	right := streamline.From(env, "right", gen(7),
		streamline.WithSourceParallelism(2), streamline.WithWatermarkEvery(64))
	lk := streamline.KeyByRecord(left, "lkey", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	rk := streamline.KeyByRecord(right, "rkey", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	pairs := streamline.JoinWindow(lk, "join", rk, 50)
	out := streamline.Collect(pairs, "out")
	render := func() string {
		dedup := map[string]struct{}{}
		for _, r := range out.Records() {
			p := r.Value
			dedup[fmt.Sprintf("%d [%d,%d) %g|%g", r.Key, p.WindowStart, p.WindowEnd, p.Left, p.Right)] = struct{}{}
		}
		ls := make([]string, 0, len(dedup))
		for l := range dedup {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		return strings.Join(ls, "\n") + "\n"
	}
	return env, render, nil
}

// buildWindowed is the distributed windowed aggregate: a deterministic
// generator keyed six ways feeding a tumbling sum and a sliding count.
// -pace throttles each source subtask to that many records per second —
// how the chaos smoke test keeps the job running long enough to kill a
// worker mid-flight. The render dedups window emissions, so a supervised
// run that replays a checkpoint suffix stays byte-identical to an
// unfaulted one.
func buildWindowed(args []string, extra ...streamline.Option) (*streamline.Env, func() string, error) {
	fs := flag.NewFlagSet("windowed", flag.ContinueOnError)
	events := fs.Int64("events", 6000, "number of generated events")
	pace := fs.Float64("pace", 0, "records/sec per source subtask (0: unpaced)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	opts := append([]streamline.Option{
		streamline.WithParallelism(2),
		streamline.WithPipelineRef("windowed", args...),
	}, extra...)
	env := streamline.New(opts...)
	var gen streamline.Source[float64] = streamline.Generator(*events, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 6), Value: 1}
	})
	if *pace > 0 {
		gen = streamline.Paced(gen, *pace)
	}
	src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	win := streamline.WindowAggregate(keyed, "win",
		streamline.Query(streamline.Tumbling(100), streamline.Sum()),
		streamline.Query(streamline.Sliding(200, 100), streamline.Count()))
	out := streamline.Collect(win, "out")
	render := func() string {
		dedup := map[string]struct{}{}
		for _, r := range out.Records() {
			dedup[fmt.Sprintf("%d q%d [%d,%d)=%g", r.Key, r.Value.QueryID, r.Value.Start, r.Value.End, r.Value.Value)] = struct{}{}
		}
		ls := make([]string, 0, len(dedup))
		for l := range dedup {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		return strings.Join(ls, "\n") + "\n"
	}
	return env, render, nil
}
