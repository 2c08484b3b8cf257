package dataflow_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/agg"
	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/state"
	"repro/internal/window"
)

// A job moves data in runs: sources gather them, chains hand them from
// operator to operator, the exchange ships them in batches. These tests hold
// the whole path to the one thing a run may not change — the result — against
// a reference that knows no runs: driveRecordAtATime below walks a source
// chain one record at a time in one goroutine, and plain maps over its output
// say what the keyed stages behind the exchange must produce.

// scriptSource replays a fixed script of data and watermark records. Its
// snapshot is the script position, so a restore resumes exactly. A
// checkpointed job runs on a manual clock that only its sources move: pauses
// names the positions where Next advances it by one checkpoint interval, so
// the job's ticker fires there and a trigger lands soon after. While hold
// reports true, the source holds after each watermark by emitting it again,
// advancing the clock each time: event time stays where it is and no operator
// has anything new to flush, but every repeat ends the source's run, so a
// trigger waiting for the source lands there — a checkpointed run holds until
// a checkpoint has completed however slow the machine is.
type scriptSource struct {
	recs   []dataflow.Record
	pos    int
	pauses map[int]bool
	hold   func() bool
	clk    *clock.Manual
}

// ckptInterval is the checkpoint interval of the jobs scriptSources drive.
const ckptInterval = time.Millisecond

func (s *scriptSource) Next() (dataflow.Record, bool) {
	if s.pos >= len(s.recs) {
		return dataflow.Record{}, false
	}
	if s.hold != nil && s.pos > 0 && s.recs[s.pos-1].Kind == dataflow.KindWatermark && s.hold() {
		s.clk.Advance(ckptInterval)
		runtime.Gosched()
		return s.recs[s.pos-1], true
	}
	if s.pauses[s.pos] {
		s.clk.Advance(ckptInterval)
		runtime.Gosched()
	}
	s.pos++
	return s.recs[s.pos-1], true
}

func (s *scriptSource) Snapshot() ([]byte, error) {
	return binary.AppendVarint(nil, int64(s.pos)), nil
}

func (s *scriptSource) Restore(blob []byte) error {
	pos, _ := binary.Varint(blob)
	s.pos = int(pos)
	return nil
}

// script is the share of source subtask sub of par in n data records over 8
// keys — the timestamps congruent to sub — with a watermark after every
// cadence of them. A record's timestamp modulo par names the subtask that
// produced it wherever the record ends up: no operator below changes
// timestamps, and a combiner's output carries one of its own inputs'.
func script(n, cadence, sub, par int) []dataflow.Record {
	var recs []dataflow.Record
	for i, c := sub, 0; i < n; i += par {
		recs = append(recs, dataflow.Data(int64(i), uint64(i%8), float64(i%5)))
		if c++; c%cadence == 0 {
			recs = append(recs, dataflow.Watermark(int64(i)))
		}
	}
	return recs
}

// The operator kinds a random source chain is drawn from.
const (
	opMap        = iota // rotates the key, doubles the value
	opDropRuns          // drops 128 consecutive timestamps in every 256: whole runs at every batch size
	opFlatMap           // emits each record 0, 1 or 2 times
	opCombiner          // always-on combiner, flushing through its collector
	opUniqueKeys        // key = timestamp: an adaptive combiner behind it turns itself off
	opAdaptive          // adaptive combiner
	numOpKinds
)

var opNames = [numOpKinds]string{"map", "dropRuns", "flatMap", "combiner", "uniqueKeys", "adaptive"}

func opFactory(kind int) dataflow.OperatorFactory {
	sum := func(acc, v float64) float64 { return acc + v }
	switch kind {
	case opMap:
		return func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
				return dataflow.Data(r.Ts, (r.Key+1)%8, r.Value.(float64)*2)
			}}
		}
	case opDropRuns:
		return func() dataflow.Operator {
			return &dataflow.FilterOp{F: func(r dataflow.Record) bool { return (r.Ts/128)%2 == 0 }}
		}
	case opFlatMap:
		return func() dataflow.Operator {
			return &dataflow.FlatMapOp{F: func(r dataflow.Record, out dataflow.Collector) {
				for c := int64(0); c < r.Ts%3; c++ {
					out.Collect(dataflow.Data(r.Ts, r.Key, r.Value.(float64)+float64(c)))
				}
			}}
		}
	case opCombiner:
		return func() dataflow.Operator { return &dataflow.CombinerOp{F: sum, FlushEvery: 5} }
	case opUniqueKeys:
		return func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
				return dataflow.Data(r.Ts, uint64(r.Ts), r.Value)
			}}
		}
	default:
		return func() dataflow.Operator { return &dataflow.CombinerOp{F: sum, Adaptive: true} }
	}
}

// driveRecordAtATime is the reference: the source chain driven one record at
// a time — every operator handed runs of one, each emission walked down the
// chain before the next — with no batch, no exchange and no second goroutine.
// It returns what left the chain, each watermark in its place among the data.
func driveRecordAtATime(t *testing.T, src dataflow.SourceFunc, chain []int) []dataflow.Record {
	t.Helper()
	var out sliceCollector
	ops := make([]dataflow.Operator, len(chain))
	colls := make([]dataflow.Collector, len(chain)+1)
	colls[len(chain)] = &out
	for i := len(chain) - 1; i >= 0; i-- {
		ops[i] = opFactory(chain[i])()
		if err := ops[i].Open(&dataflow.OpContext{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		colls[i] = hop{ops[i], colls[i+1]}
	}
	watermark := func(wm int64) {
		for i, op := range ops {
			op.OnWatermark(wm, colls[i+1])
		}
		out.Collect(dataflow.Watermark(wm))
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		switch r.Kind {
		case dataflow.KindWatermark:
			watermark(r.Ts)
		case dataflow.KindData:
			colls[0].Collect(r)
		}
	}
	watermark(math.MaxInt64)
	for i, op := range ops {
		op.Finish(colls[i+1])
	}
	return out.recs
}

type sliceCollector struct{ recs []dataflow.Record }

func (s *sliceCollector) Collect(r dataflow.Record) { s.recs = append(s.recs, r) }

type hop struct {
	op   dataflow.Operator
	next dataflow.Collector
}

func (h hop) Collect(r dataflow.Record) { dataflow.FeedOne(h.op, r, h.next) }

// runTap passes every run through and keeps a rendering of it. It heads its
// chain behind a hash edge, so the runs it is handed are the data of the
// batches its input channels carried, one run per batch.
type runTap struct {
	dataflow.Base
	taps *tapLog
	sub  int
}

// tapLog is what the tap subtasks of one job saw, by subtask.
type tapLog struct {
	mu   sync.Mutex
	runs map[int][][]string
}

func newTapLog() *tapLog { return &tapLog{runs: map[int][][]string{}} }

func (p *runTap) Open(ctx *dataflow.OpContext) error { p.sub = ctx.Subtask; return nil }

func (p *runTap) OnBatch(b []dataflow.Record, _ dataflow.Collector) []dataflow.Record {
	p.taps.mu.Lock()
	p.taps.runs[p.sub] = append(p.taps.runs[p.sub], render(b))
	p.taps.mu.Unlock()
	return b
}

func render(b []dataflow.Record) []string {
	out := make([]string, len(b))
	for i, r := range b {
		out[i] = fmt.Sprint(r.Ts, r.Key, r.Value)
	}
	return out
}

// sinks are the four ends of pipelineGraph.
type sinks struct {
	tap, reduce, window, join *dataflow.CollectSink
}

func newSinks() sinks {
	return sinks{&dataflow.CollectSink{}, &dataflow.CollectSink{}, &dataflow.CollectSink{}, &dataflow.CollectSink{}}
}

func (s sinks) all() []*dataflow.CollectSink {
	return []*dataflow.CollectSink{s.tap, s.reduce, s.window, s.join}
}

const (
	windowSize = 50
	joinSize   = 20
)

// pipelineGraph is par sources -> chain (forward edges: with chaining it runs
// inside the source subtask) -> four hash-partitioned consumers at par: a tap,
// a keyed sum, tumbling-window sums forwarded through a chained map, and the
// stream joined with itself — each into its own sink. It returns the sink
// nodes in sinks.all order.
func pipelineGraph(srcs []*scriptSource, chain []int, batch int, taps *tapLog, out sinks) (*dataflow.Graph, []*dataflow.Node) {
	par := len(srcs)
	g := dataflow.NewGraph("runs")
	g.BatchSize = batch
	n := g.AddSource("src", par, func(sub, _ int) dataflow.SourceFunc { return srcs[sub] })
	for i, kind := range chain {
		n = g.AddOperator(fmt.Sprintf("op%d-%s", i, opNames[kind]), par, opFactory(kind), dataflow.Edge{From: n, Part: dataflow.Forward})
	}
	hash := dataflow.Edge{From: n, Part: dataflow.HashPartition}
	end := func(name string, from *dataflow.Node, sink *dataflow.CollectSink) *dataflow.Node {
		return g.AddOperator(name, 1, sink.Factory(), dataflow.Edge{From: from, Part: dataflow.Rebalance})
	}
	sum := func(acc, v float64) float64 { return acc + v }

	tap := g.AddOperator("tap", par, func() dataflow.Operator { return &runTap{taps: taps} }, hash)
	red := g.AddOperator("sum", par, func() dataflow.Operator { return &dataflow.KeyedReduceOp{F: sum} }, hash)
	win := g.AddOperator("win", par, dataflow.NewWindowOp(dataflow.WindowQuery{Spec: window.Tumbling(windowSize), Fn: agg.SumF64()}), hash)
	val := g.AddOperator("winval", par, func() dataflow.Operator {
		return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
			wr := r.Value.(dataflow.WindowResult)
			return dataflow.Data(wr.Start, r.Key, wr.Value)
		}}
	}, dataflow.Edge{From: win, Part: dataflow.Forward})
	join := g.AddOperator("join", par, dataflow.NewWindowJoinOp(joinSize), hash, hash)
	return g, []*dataflow.Node{
		end("tap-out", tap, out.tap), end("sum-out", red, out.reduce),
		end("win-out", val, out.window), end("join-out", join, out.join),
	}
}

// expected is what the reference says the four sinks must hold, and what the
// channels into the tap must have carried.
type expected struct {
	// tap: per key and producer, the chain's emission order. Records of one
	// key from one producer cross every exchange on one channel; different
	// keys and different producers interleave freely.
	tap map[[2]uint64][]string
	// The keyed stages, as sorted multisets: different keys interleave.
	reduce, window, join []string
	// events[s] is producer s's reference output, watermarks in place.
	events [][]dataflow.Record
}

func byKeyAndProducer(recs []dataflow.Record, par int) map[[2]uint64][]string {
	m := map[[2]uint64][]string{}
	for _, r := range recs {
		k := [2]uint64{r.Key, uint64(r.Ts) % uint64(par)}
		m[k] = append(m[k], fmt.Sprint(r.Ts, r.Value))
	}
	return m
}

func sorted(recs []dataflow.Record) []string {
	out := render(recs)
	sort.Strings(out)
	return out
}

// reference drives every producer's share of the script through the chain a
// record at a time and derives the keyed stages' results from plain maps over
// what came out. No record is late (a channel's watermark trails its own
// records, and a subtask's is the minimum over its channels), so a window or
// join bucket holds exactly the records whose timestamp falls in it.
func reference(t *testing.T, n, cadence, par int, chain []int) expected {
	t.Helper()
	exp := expected{}
	var data []dataflow.Record
	for s := 0; s < par; s++ {
		ev := driveRecordAtATime(t, &scriptSource{recs: script(n, cadence, s, par)}, chain)
		exp.events = append(exp.events, ev)
		for _, r := range ev {
			if r.Kind == dataflow.KindData {
				data = append(data, r)
			}
		}
	}
	exp.tap = byKeyAndProducer(data, par)

	sums := map[uint64]float64{}
	wins := map[[2]int64]float64{}
	buckets := map[[2]int64][]float64{}
	for _, r := range data {
		v := r.Value.(float64)
		sums[r.Key] += v
		wins[[2]int64{int64(r.Key), r.Ts / windowSize * windowSize}] += v
		b := [2]int64{int64(r.Key), r.Ts / joinSize * joinSize}
		buckets[b] = append(buckets[b], v)
	}
	for k, v := range sums {
		exp.reduce = append(exp.reduce, fmt.Sprint(0, k, v))
	}
	for k, v := range wins {
		exp.window = append(exp.window, fmt.Sprint(k[1], uint64(k[0]), v))
	}
	for k, vs := range buckets {
		for _, l := range vs {
			for _, r := range vs {
				exp.join = append(exp.join, fmt.Sprint(k[1]+joinSize-1, uint64(k[0]),
					dataflow.JoinedPair{WindowStart: k[1], WindowEnd: k[1] + joinSize, Left: l, Right: r}))
			}
		}
	}
	sort.Strings(exp.reduce)
	sort.Strings(exp.window)
	sort.Strings(exp.join)
	return exp
}

// channelRuns is what the channel from producer s to tap subtask j of par
// must have carried at the given batch size, as the data run of each batch:
// the producer's records routed to j, in order, a batch shipping when it
// holds batch records and behind every watermark.
func (e expected) channelRuns(s, j, par, batch int) [][]string {
	var runs [][]string
	var staged []dataflow.Record
	ship := func() {
		if len(staged) > 0 {
			runs = append(runs, render(staged))
			staged = nil
		}
	}
	for _, r := range e.events[s] {
		if r.Kind != dataflow.KindData {
			ship()
			continue
		}
		group := state.KeyGroupFor(r.Key, state.DefaultNumKeyGroups)
		if state.SubtaskForGroup(group, state.DefaultNumKeyGroups, par) != j {
			continue
		}
		if staged = append(staged, r); len(staged) == batch {
			ship()
		}
	}
	ship()
	return runs
}

// check compares what the sinks hold (or, after a restore, held before the
// barrier plus what the restored run added) with the reference.
func (e expected) check(t *testing.T, name string, par int, got [4][]dataflow.Record) {
	t.Helper()
	if !reflect.DeepEqual(byKeyAndProducer(got[0], par), e.tap) {
		t.Fatalf("%s: the chain's output differs from the record-at-a-time reference", name)
	}
	for i, want := range [][]string{e.reduce, e.window, e.join} {
		stage := []string{"reduce", "window", "join"}[i]
		if len(want) == 0 {
			t.Fatalf("%s: empty reference for %s", name, stage)
		}
		if !reflect.DeepEqual(sorted(got[i+1]), want) {
			t.Fatalf("%s: %s results differ from the reference (%d records, want %d)", name, stage, len(got[i+1]), len(want))
		}
	}
}

func records(s sinks) (out [4][]dataflow.Record) {
	for i, sink := range s.all() {
		out[i] = sink.Records()
	}
	return out
}

func runJob(t *testing.T, g *dataflow.Graph, opts ...dataflow.JobOption) *dataflow.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job := dataflow.NewJob(g, opts...)
	if err := job.Run(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}
	return job
}

// TestRunsMatchRecordAtATime: for random source chains and watermark cadences
// that never line up with a batch size, at every batch size, chained and
// unchained, at parallelism 1 and 3, a job's four sinks hold what the
// record-at-a-time reference says — map, filter, flatmap and combiner chains
// by emission order per key, keyed reduce, window and join by value — and
// every channel into the tap carried exactly the batches the reference's
// output sequence cuts into. So does a run checkpointed at random points and
// restored from a snapshot it completed: what the sinks held at the barrier
// plus what the restored run adds.
func TestRunsMatchRecordAtATime(t *testing.T) {
	const n = 3000
	timeSeed := time.Now().UnixNano()
	t.Logf("clock seed %d", timeSeed)
	for _, seed := range []int64{1, 2, 3, timeSeed} {
		rng := rand.New(rand.NewSource(seed))
		// At most one combiner per chain: a restored combiner flushes in key
		// order, not first-seen order, which a second one behind it would
		// turn into different partial sums.
		chain := make([]int, 1+rng.Intn(4))
		combiners := 0
		for i := range chain {
			chain[i] = rng.Intn(numOpKinds)
			if chain[i] == opCombiner || chain[i] == opAdaptive {
				if combiners++; combiners > 1 {
					chain[i] = opMap
				}
			}
		}
		if seed == 1 {
			chain = []int{opUniqueKeys, opAdaptive, opFlatMap} // the combiner that decides to pass runs through whole
		}
		cadence := []int{3, 5, 10, 13, 50, 100}[rng.Intn(6)]
		for _, par := range []int{1, 3} {
			want := reference(t, n, cadence, par, chain)
			clk := clock.NewManual(time.Unix(0, 0))
			sources := func(pauses map[int]bool, hold func() bool) []*scriptSource {
				srcs := make([]*scriptSource, par)
				for s := range srcs {
					srcs[s] = &scriptSource{recs: script(n, cadence, s, par), pauses: pauses, hold: hold, clk: clk}
				}
				return srcs
			}
			pauses := map[int]bool{}
			for len(pauses) < 6 {
				pauses[rng.Intn(len(script(n, cadence, 0, par)))] = true
			}
			for _, batch := range []int{1, 2, 7, 64, 1024} {
				for _, chaining := range []bool{true, false} {
					name := fmt.Sprintf("seed %d chain %v cadence %d par %d batch %d chaining %v", seed, chain, cadence, par, batch, chaining)
					taps := newTapLog()
					out := newSinks()
					g, _ := pipelineGraph(sources(nil, nil), chain, batch, taps, out)
					runJob(t, g, dataflow.WithChaining(chaining))
					want.check(t, name, par, records(out))
					for j := 0; j < par; j++ {
						// A run comes from one channel: its first record's
						// timestamp names the producer.
						got := make([][][]string, par)
						for _, run := range taps.runs[j] {
							var ts int64
							fmt.Sscan(run[0], &ts)
							got[ts%int64(par)] = append(got[ts%int64(par)], run)
						}
						for s := 0; s < par; s++ {
							if !reflect.DeepEqual(got[s], want.channelRuns(s, j, par, batch)) {
								t.Fatalf("%s: channel %d->%d carried batches other than the reference's output cut at %d records and at watermarks", name, s, j, batch)
							}
						}
					}

					backend := state.NewMemoryBackend(0)
					noCheckpoint := func() bool { _, ok, _ := backend.Latest(); return !ok }
					out = newSinks()
					g, sinkNodes := pipelineGraph(sources(pauses, noCheckpoint), chain, batch, newTapLog(), out)
					job := runJob(t, g, dataflow.WithChaining(chaining), dataflow.WithCheckpointing(backend, ckptInterval), dataflow.WithClock(clk))
					want.check(t, name+" checkpointed", par, records(out))
					if job.CompletedCheckpoints() == 0 {
						t.Fatalf("%s: no checkpoint completed", name)
					}
					id := 1 + rng.Int63n(job.CompletedCheckpoints())
					snap, err := backend.Load(id)
					if err != nil {
						t.Fatal(err)
					}
					restored := newSinks()
					g2, _ := pipelineGraph(sources(nil, nil), chain, batch, newTapLog(), restored)
					runJob(t, g2, dataflow.WithChaining(chaining), dataflow.WithRestore(snap))
					all := records(restored)
					for i, node := range sinkNodes {
						held, _ := binary.Varint(snap.Get(state.SubtaskKey{OperatorID: node.ID}))
						all[i] = append(out.all()[i].Records()[:held], all[i]...)
					}
					want.check(t, fmt.Sprintf("%s restored from checkpoint %d of %d", name, id, job.CompletedCheckpoints()), par, all)
				}
			}
		}
	}
}

// BenchmarkSourceChain is what a record costs on the source side, in ns per
// record: a free generator, a map-filter-map chain fused into the source
// subtask, a hash edge, and a sink that does nothing, at parallelism 2 — the
// pipeline shape of the committed benchmark's dataflow.chain_ns and
// dataflow.exchange_ns probes.
func BenchmarkSourceChain(b *testing.B) {
	const par = 2
	g := dataflow.NewGraph("source-chain")
	n := g.AddSource("gen", par, func(sub, _ int) dataflow.SourceFunc {
		return &dataflow.GenSource{N: int64(b.N) / par, Gen: func(i int64) dataflow.Record {
			return dataflow.Data(i, uint64(i), float64(i))
		}}
	})
	for _, f := range []dataflow.OperatorFactory{
		func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { r.Value = r.Value.(float64) + 1; return r }}
		},
		func() dataflow.Operator {
			return &dataflow.FilterOp{F: func(r dataflow.Record) bool { return r.Key%16 != 0 }}
		},
		func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record { r.Key *= 31; return r }}
		},
	} {
		n = g.AddOperator(fmt.Sprintf("op%d", n.ID), par, f, dataflow.Edge{From: n, Part: dataflow.Forward})
	}
	g.AddOperator("sink", par, func() dataflow.Operator {
		return &dataflow.FuncSink{F: func(dataflow.Record) {}}
	}, dataflow.Edge{From: n, Part: dataflow.HashPartition})
	b.ReportAllocs()
	b.ResetTimer()
	if err := dataflow.NewJob(g).Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}
