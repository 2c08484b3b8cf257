package dataflow_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/state"
)

// The source side of a job gathers records into runs; these tests hold it to
// the loop it replaced. driveRecordAtATime below is that loop — one Next, one
// OnRecord hop per operator, per record — and lives on only here, as the
// reference.

// scriptSource replays a fixed script of data and watermark records. Its
// snapshot is the script position, so a restore resumes exactly; pauses makes
// Next wait at the given positions, which is where the checkpoint triggers of
// a running job land.
type scriptSource struct {
	recs   []dataflow.Record
	pos    int
	pauses map[int]bool
}

func (s *scriptSource) Next() (dataflow.Record, bool) {
	if s.pos >= len(s.recs) {
		return dataflow.Record{}, false
	}
	if s.pauses[s.pos] {
		time.Sleep(2 * time.Millisecond)
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

// script is n data records over 8 keys with a watermark after every cadence
// of them.
func script(n, cadence int) []dataflow.Record {
	var recs []dataflow.Record
	for i := 0; i < n; i++ {
		recs = append(recs, dataflow.Data(int64(i), uint64(i%8), float64(i%5)))
		if (i+1)%cadence == 0 {
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
		return func() dataflow.Operator { return &core.CombinerOp{F: sum, FlushEvery: 5} }
	case opUniqueKeys:
		return func() dataflow.Operator {
			return &dataflow.MapOp{F: func(r dataflow.Record) dataflow.Record {
				return dataflow.Data(r.Ts, uint64(r.Ts), r.Value)
			}}
		}
	default:
		return func() dataflow.Operator { return &core.CombinerOp{F: sum, Adaptive: true} }
	}
}

// driveRecordAtATime is the reference: the source chain driven one record at
// a time, exactly as the source loop did before it gathered runs.
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

func (h hop) Collect(r dataflow.Record) { h.op.OnRecord(r, h.next) }

// sourceChainGraph is source -> chain (forward edges, so it runs inside the
// source subtask) -> hash edge -> two pass-through subtasks -> sink.
func sourceChainGraph(src *scriptSource, chain []int, batch int, sink *dataflow.CollectSink) (*dataflow.Graph, *dataflow.Node) {
	g := dataflow.NewGraph("source-chain")
	g.BatchSize = batch
	n := g.AddSource("src", 1, func(int, int) dataflow.SourceFunc { return src })
	for i, kind := range chain {
		n = g.AddOperator(fmt.Sprintf("op%d-%s", i, opNames[kind]), 1, opFactory(kind), dataflow.Edge{From: n, Part: dataflow.Forward})
	}
	mid := g.AddOperator("mid", 2, func() dataflow.Operator {
		return &dataflow.FilterOp{F: func(dataflow.Record) bool { return true }}
	}, dataflow.Edge{From: n, Part: dataflow.HashPartition})
	sinkNode := g.AddOperator("sink", 1, sink.Factory(), dataflow.Edge{From: mid, Part: dataflow.Rebalance})
	return g, sinkNode
}

// perKey splits a sink's records by key. Records of one key cross every
// exchange on one channel, so their order is the chain's emission order; the
// two pass-through subtasks interleave different keys freely.
func perKey(recs []dataflow.Record) map[uint64][]string {
	m := map[uint64][]string{}
	for _, r := range recs {
		m[r.Key] = append(m[r.Key], fmt.Sprint(r.Ts, r.Value))
	}
	return m
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

// TestSourceRunsMatchRecordAtATime: for random source chains, batch sizes
// and watermark cadences that never line up with the batch size, a job's sink
// output equals the record-at-a-time reference — on the vectorized path and
// with it off — and so does the output of a run checkpointed at random points
// and restored from every snapshot it completed: what the sink held at the
// barrier plus what the restored run adds.
func TestSourceRunsMatchRecordAtATime(t *testing.T) {
	const n = 3000
	clock := time.Now().UnixNano()
	t.Logf("clock seed %d", clock)
	for _, seed := range []int64{1, 2, 3, clock} {
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
		recs := script(n, cadence)
		want := perKey(driveRecordAtATime(t, &scriptSource{recs: recs}, chain))
		pauses := map[int]bool{}
		for len(pauses) < 6 {
			pauses[rng.Intn(len(recs))] = true
		}
		for _, batch := range []int{1, 2, 7, 64} {
			name := fmt.Sprintf("seed %d chain %v cadence %d batch %d", seed, chain, cadence, batch)
			for _, vec := range []bool{true, false} {
				sink := &dataflow.CollectSink{}
				g, _ := sourceChainGraph(&scriptSource{recs: recs}, chain, batch, sink)
				runJob(t, g, dataflow.WithVectorizedChains(vec))
				if got := perKey(sink.Records()); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s vectorized=%v: sink output differs from the record-at-a-time reference", name, vec)
				}
			}

			backend := state.NewMemoryBackend(0)
			sink := &dataflow.CollectSink{}
			g, sinkNode := sourceChainGraph(&scriptSource{recs: recs, pauses: pauses}, chain, batch, sink)
			job := runJob(t, g, dataflow.WithCheckpointing(backend, 200*time.Microsecond))
			if got := perKey(sink.Records()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: checkpointed run's output differs from the reference", name)
			}
			if job.CompletedCheckpoints() == 0 {
				t.Fatalf("%s: no checkpoint completed", name)
			}
			for id := int64(1); id <= job.CompletedCheckpoints(); id++ {
				snap, err := backend.Load(id)
				if err != nil {
					t.Fatal(err)
				}
				held, _ := binary.Varint(snap.Get(state.SubtaskKey{OperatorID: sinkNode.ID}))
				restored := &dataflow.CollectSink{}
				g2, _ := sourceChainGraph(&scriptSource{recs: recs}, chain, batch, restored)
				runJob(t, g2, dataflow.WithRestore(snap))
				all := append(sink.Records()[:held], restored.Records()...)
				if got := perKey(all); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: checkpoint %d (sink held %d records): output before the barrier plus the restored run's differs from the reference", name, id, held)
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
