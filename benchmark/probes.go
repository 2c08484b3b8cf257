package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/gen"
	"repro/internal/core"
	"repro/internal/cutty"
	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/streamline"
)

// The layer probes time calls into each module's exported functions, from
// outside, at the shapes the workloads give them. Each returns per-unit costs
// the budget multiplies by how often a workload did that unit of work. They
// run single-threaded, so a cost is CPU time as well as wall time.

const (
	probeRecords = 200_000 // records through the source and chain probes
	probeKeys    = 500_000 // the checkpoint workload's state size
)

// probeSet collects per-layer metrics, recording one span per probe.
type probeSet struct {
	tr       *Tracer
	out      map[string]float64
	seed     uint64
	dir      string
	workload string // the traced workload, whose generator is the one probed
}

// timed runs f under a span and returns its wall time.
func (p *probeSet) timed(name string, f func()) time.Duration {
	sp := p.tr.Begin("probe."+name, -1)
	start := time.Now()
	f()
	d := time.Since(start)
	p.tr.End(sp)
	return d
}

func perUnit(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// runProbes measures every probed per-layer metric.
func runProbes(tr *Tracer, cfg Config, workload string) (map[string]float64, error) {
	dir, err := scratch(cfg, "probes")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &probeSet{tr: tr, out: map[string]float64{}, seed: cfg.Seed, dir: dir, workload: workload}
	for _, f := range []func() error{
		p.sources, p.chain, p.exchange, p.reduce, p.combiner, p.windowOp, p.cutty, p.mesh, p.state, p.instruments, p.generator,
	} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// sources drains the same events through each way of reading them: the raw
// segment log (range scan and tail), the typed Topic and JSONL sources, and a
// pre-filled live Channel.
func (p *probeSet) sources() error {
	f := gen.Uniform(p.seed, replayKeys, replayPerTick, 100)
	store, err := streamline.OpenTopicStore(filepath.Join(p.dir, "store"))
	if err != nil {
		return err
	}
	defer store.Close()
	tp, err := store.Store().Topic("events")
	if err != nil {
		return err
	}
	payloads := make([][]byte, probeRecords)
	events := make([]gen.Event, probeRecords)
	jsonl, err := os.Create(filepath.Join(p.dir, "events.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(jsonl)
	for i := range payloads {
		events[i] = f(0, 1, int64(i))
		if payloads[i], err = json.Marshal(events[i]); err != nil {
			return err
		}
		w.Write(payloads[i])
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := jsonl.Close(); err != nil {
		return err
	}

	var appendErr error
	d := p.timed("seglog.append", func() {
		for i, pl := range payloads {
			if _, err := tp.Append(events[i].Ts, events[i].Key, pl); err != nil {
				appendErr = err
				return
			}
		}
		appendErr = tp.Sync()
	})
	if appendErr != nil {
		return appendErr
	}
	p.out["seglog.append_ns"] = perUnit(d, probeRecords)
	view, err := tp.View()
	if err != nil {
		return err
	}
	var stored int64
	for _, s := range view.Segments {
		stored += s.Bytes
	}
	p.out["seglog.append_bytes_per_record"] = float64(stored) / probeRecords

	var n int
	var readErr error
	d = p.timed("seglog.range", func() {
		for _, s := range view.Segments {
			rr, err := tp.OpenRange(s.Path, 0, s.Bytes, -1)
			if err != nil {
				readErr = err
				return
			}
			for {
				_, ok, err := rr.Next()
				if err != nil || !ok {
					readErr = err
					break
				}
				n++
			}
			rr.Close()
		}
	})
	if readErr != nil || n != probeRecords {
		return fmt.Errorf("seglog range probe read %d of %d records: %v", n, probeRecords, readErr)
	}
	p.out["seglog.range_next_ns"] = perUnit(d, n)

	n = 0
	d = p.timed("seglog.tail", func() {
		tr, err := tp.ReadFrom(view.Oldest)
		if err != nil {
			readErr = err
			return
		}
		defer tr.Close()
		for {
			_, ok, err := tr.Next()
			if err != nil || !ok {
				readErr = err
				return
			}
			n++
		}
	})
	if readErr != nil || n != probeRecords {
		return fmt.Errorf("seglog tail probe read %d of %d records: %v", n, probeRecords, readErr)
	}
	p.out["seglog.tail_next_ns"] = perUnit(d, n)

	drain := func(name string, r streamline.Reader[gen.Event]) (float64, error) {
		n := 0
		d := p.timed(name, func() {
			for {
				_, st := r.Next()
				if st == streamline.ReadEnd {
					return
				}
				if st == streamline.ReadData {
					n++
				}
			}
		})
		if e, ok := r.(interface{ Err() error }); ok && e.Err() != nil {
			return 0, e.Err()
		}
		if n != probeRecords {
			return 0, fmt.Errorf("%s probe read %d of %d records", name, n, probeRecords)
		}
		return perUnit(d, n), nil
	}
	if p.out["streamline.topic_next_ns"], err = drain("streamline.topic", streamline.Topic[gen.Event](store, "events").Open(0, 1)); err != nil {
		return err
	}
	if p.out["streamline.jsonl_next_ns"], err = drain("streamline.jsonl", streamline.JSONL[gen.Event](jsonl.Name()).Open(0, 1)); err != nil {
		return err
	}
	ch := make(chan streamline.Keyed[gen.Event], probeRecords)
	for _, e := range events {
		ch <- keyedEvent(e)
	}
	close(ch)
	p.out["streamline.channel_next_ns"], err = drain("streamline.channel", streamline.Channel[gen.Event](ch).Open(0, 1))
	return err
}

// chain is Slice -> Map -> Filter -> Map -> no-op Sink at parallelism 1: one
// fused chain, no exchange.
func (p *probeSet) chain() error {
	const n = 1_000_000
	items := make([]float64, n)
	for i := range items {
		items[i] = float64(i % 100)
	}
	env := streamline.New(streamline.WithParallelism(1))
	s := streamline.From(env, "items", streamline.Slice(items))
	a := streamline.Map(s, "a", func(v float64) float64 { return v + 1 })
	b := streamline.Filter(a, "b", func(v float64) bool { return v >= 0 })
	c := streamline.Map(b, "c", func(v float64) float64 { return v * 2 })
	streamline.Sink(c, "out", func(streamline.Keyed[float64]) {})
	var err error
	d := p.timed("dataflow.chain", func() { err = env.Execute(context.Background()) })
	p.out["dataflow.chain_ns"] = perUnit(d, n)
	return err
}

// exchange runs generator -> no-op sink at parallelism 2 twice: over a hash
// edge, and over a forward edge, which chaining fuses away. The difference
// per record is staging, hash routing and the channel hop.
func (p *probeSet) exchange() error {
	const n = 1_000_000
	run := func(part dataflow.Partitioning) (time.Duration, error) {
		g := dataflow.NewGraph("exchange")
		src := g.AddSource("gen", parallelism, func(sub, par int) dataflow.SourceFunc {
			return &dataflow.GenSource{N: n / parallelism, Gen: func(i int64) dataflow.Record {
				return dataflow.Data(i, uint64(i)*0x9e3779b97f4a7c15, 1.0)
			}}
		})
		g.AddOperator("out", parallelism, func() dataflow.Operator { return &dataflow.FuncSink{F: func(dataflow.Record) {}} },
			dataflow.Edge{From: src, Part: part})
		var err error
		d := p.timed("dataflow.exchange."+part.String(), func() { err = dataflow.NewJob(g).Run(context.Background()) })
		return d, err
	}
	hash, err := run(dataflow.HashPartition)
	if err != nil {
		return err
	}
	fwd, err := run(dataflow.Forward)
	if err != nil {
		return err
	}
	// Wall time of a two-subtask job; both subtasks work the whole time.
	p.out["dataflow.exchange_ns"] = math.Max(0, perUnit(hash-fwd, n)) * parallelism
	return nil
}

// discard is a Collector that drops what operators emit.
type discard struct{ n int64 }

func (d *discard) Collect(dataflow.Record) { d.n++ }

// batches renders generated events as 64-record runs of keyed float64 data.
func batches(f gen.Func, n int) [][]dataflow.Record {
	out := make([][]dataflow.Record, 0, n/64)
	for i := 0; i+64 <= n; i += 64 {
		b := make([]dataflow.Record, 64)
		for j := range b {
			e := f(0, 1, int64(i+j))
			b[j] = dataflow.Data(e.Ts, e.Key, e.Val)
		}
		out = append(out, b)
	}
	return out
}

// reduce times KeyedReduceOp.OnBatch on 64-record runs of the checkpoint
// workload's key shape, after every key exists.
func (p *probeSet) reduce() error {
	z := gen.NewZipf(probeKeys, checkpointSkew)
	f := gen.WarmThenSkew(p.seed, z, probeKeys)
	op := &dataflow.KeyedReduceOp{F: add}
	if err := op.Open(&dataflow.OpContext{}); err != nil {
		return err
	}
	out := &discard{}
	for _, b := range batches(f, probeKeys) { // warm: every key once
		op.OnBatch(b, out)
	}
	skew := batches(func(sub, par int, i int64) gen.Event { return f(sub, par, i+probeKeys) }, probeRecords)
	d := p.timed("dataflow.reduce", func() {
		for _, b := range skew {
			op.OnBatch(b, out)
		}
	})
	p.out["dataflow.reduce_onbatch_ns"] = perUnit(d, len(skew)*64)
	return nil
}

// combiner times the adaptive combiner on the same shape; the budget's core
// row is built from it.
func (p *probeSet) combiner() error {
	z := gen.NewZipf(probeKeys, checkpointSkew)
	f := gen.WarmThenSkew(p.seed, z, probeKeys)
	op := &core.CombinerOp{F: add, FlushEvery: 1024, Adaptive: true}
	if err := op.Open(&dataflow.OpContext{}); err != nil {
		return err
	}
	out := &discard{}
	skew := batches(func(sub, par int, i int64) gen.Event { return f(sub, par, i+probeKeys) }, probeRecords)
	d := p.timed("core.combiner", func() {
		for _, b := range skew {
			op.OnBatch(b, out)
		}
	})
	p.out["core.combiner_onbatch_ns"] = perUnit(d, len(skew)*64)
	return nil
}

// windowOp is one window subtask of two, as in the job: it owns half the key
// groups, takes the windows-shaped records that hash to them in runs of up to
// 64, and sees a watermark after every 64 records of the stage, at the
// workload's 10 000 keys and at 100. The share of watermarks that closed any
// window is the useful share: every other sweep visited every key for nothing.
func (p *probeSet) windowOp() error {
	queries := make([]dataflow.WindowQuery, len(windowsQueries))
	for i, q := range engineQueries(windowsQueries) {
		queries[i] = dataflow.WindowQuery{Spec: q.Window, Fn: q.Fn}
	}
	owned := func(key uint64) bool {
		ng := state.DefaultNumKeyGroups
		return state.SubtaskForGroup(state.KeyGroupFor(key, ng), ng, parallelism) == 0
	}
	for _, shape := range []struct {
		keys, warm, n int
		suffix        string
	}{{windowsKeys, 120_000, 40_000, ""}, {100, 40_000, 120_000, "_100keys"}} {
		f := windowsGen(p.seed, gen.NewZipf(shape.keys, windowsSkew))
		op := dataflow.NewWindowOp(queries...)().(*dataflow.WindowOp)
		if err := op.Open(&dataflow.OpContext{Parallelism: parallelism}); err != nil {
			return err
		}
		out := &discard{}
		var maxTs int64
		run := make([]dataflow.Record, 0, 64)
		feed := func(from, n int64) (onBatch, onWM time.Duration, records, sweeps, useful int) {
			for i := from; i < from+n; i += 64 {
				run = run[:0]
				for j := i; j < i+64; j++ {
					e := f(0, 1, j)
					maxTs = max(maxTs, e.Ts)
					if owned(e.Key) {
						run = append(run, dataflow.Data(e.Ts, e.Key, e.Val))
					}
				}
				t0 := time.Now()
				op.OnBatch(run, out)
				t1 := time.Now()
				before := out.n
				op.OnWatermark(maxTs-windowsDisorder, out)
				onBatch += t1.Sub(t0)
				onWM += time.Since(t1)
				records += len(run)
				sweeps++
				if out.n > before {
					useful++
				}
			}
			return
		}
		feed(0, int64(shape.warm)) // let the keys appear and the first windows close
		var onBatch, onWM time.Duration
		var records, sweeps, useful int
		p.timed("dataflow.window"+shape.suffix, func() {
			onBatch, onWM, records, sweeps, useful = feed(int64(shape.warm), int64(shape.n))
		})
		p.out["dataflow.window_onbatch_ns"+shape.suffix] = perUnit(onBatch, records)
		p.out["dataflow.window_onwatermark_us"+shape.suffix] = perUnit(onWM, sweeps) / 1e3
		p.out["dataflow.watermark_useful_share"+shape.suffix] = float64(useful) / float64(sweeps)
	}
	return nil
}

// cutty drives one engine with the windows workload's queries at one
// element per 100 ms of event time: what a middling key sees.
func (p *probeSet) cutty() error {
	eng := cutty.New(func(engine.Result) {})
	for _, q := range engineQueries(windowsQueries) {
		if _, err := eng.AddQuery(engine.Query{Window: q.Window, Fn: q.Fn}); err != nil {
			return err
		}
	}
	const n = 100_000
	var onElem, onWM time.Duration
	p.timed("cutty.engine", func() {
		for i := int64(0); i < n; i++ {
			ts := i * 100
			t0 := time.Now()
			eng.OnWatermark(ts)
			eng.OnElement(ts, float64(i%100))
			t1 := time.Now()
			// The sweep's call: a watermark that brings no element with it.
			eng.OnWatermark(ts + 50)
			onElem += t1.Sub(t0)
			onWM += time.Since(t1)
		}
	})
	p.out["cutty.on_element_ns"] = perUnit(onElem, n)
	p.out["cutty.on_watermark_ns"] = perUnit(onWM, n)
	p.out["cutty.slices_per_engine"] = float64(eng.Slices())
	p.out["cutty.partials_per_engine"] = float64(eng.StoredPartials())
	var buf bytes.Buffer
	if err := eng.Snapshot(gob.NewEncoder(&buf)); err != nil {
		return err
	}
	p.out["cutty.snapshot_bytes_per_engine"] = float64(buf.Len())
	return nil
}

// mesh moves 64-record float64 batches between two meshes over loopback TCP:
// gob framing, the socket and the demultiplexer, without the engine around
// them.
func (p *probeSet) mesh() error {
	const nBatches = 4000
	g := dataflow.NewGraph("mesh")
	src := g.AddSource("gen", 1, func(int, int) dataflow.SourceFunc { return &dataflow.GenSource{} })
	sink := g.AddOperator("out", 1, func() dataflow.Operator { return &dataflow.FuncSink{F: func(dataflow.Record) {}} },
		dataflow.Edge{From: src, Part: dataflow.HashPartition})
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	la, err := listen()
	if err != nil {
		return err
	}
	lb, err := listen()
	if err != nil {
		la.Close()
		return err
	}
	a, b := transport.NewMesh(1, la, g, nil), transport.NewMesh(2, lb, g, nil)
	defer a.Close()
	defer b.Close()
	a.SetPeers(map[int]string{2: b.Addr()})
	ref := dataflow.ChannelRef{Node: sink.ID}
	in := b.Inbound(ref, 16)
	feeder := a.Outbound(ref, 2, 16)
	a.Start()
	batch := make([]dataflow.Record, 64)
	for i := range batch {
		batch[i] = dataflow.Data(int64(i), uint64(i), float64(i))
	}
	got := 0
	d := p.timed("transport.mesh", func() {
		go func() {
			for i := 0; i < nBatches; i++ {
				feeder <- batch
			}
		}()
		for got < nBatches*64 {
			select {
			case recs := <-in:
				got += len(recs)
			case <-a.Failed():
				return
			case <-b.Failed():
				return
			}
		}
	})
	if got < nBatches*64 {
		return fmt.Errorf("mesh probe: %v / %v", a.Err(), b.Err())
	}
	p.out["transport.mesh_ns"] = perUnit(d, got)
	return nil
}

// state times a float64 map cell at the checkpoint workload's half a million
// keys: point writes and reads, the copy-on-write capture a barrier blocks
// for, the encode that runs behind it, and the restore of every group.
func (p *probeSet) state() error {
	ks := state.NewKeyedState(state.DefaultNumKeyGroups, 0, state.DefaultNumKeyGroups)
	cell := state.RegisterMap(ks, "sum", state.GobCodec[float64]())
	d := p.timed("state.put", func() {
		for k := uint64(0); k < probeKeys; k++ {
			cell.Put(k, float64(k))
		}
	})
	p.out["state.put_ns"] = perUnit(d, probeKeys)
	var sum float64
	d = p.timed("state.get", func() {
		for k := uint64(0); k < probeKeys; k++ {
			v, _ := cell.Get(gen.Mix(k) % probeKeys)
			sum += v
		}
	})
	p.out["state.get_ns"] = perUnit(d, probeKeys)
	var cap *state.Captured
	d = p.timed("state.capture", func() { cap = ks.Capture() })
	p.out["state.capture_us"] = float64(d) / 1e3
	var blobs map[int][]byte
	var err error
	d = p.timed("state.encode", func() { blobs, err = cap.EncodeGroups() })
	cap.Release()
	if err != nil {
		return err
	}
	p.out["state.encode_ms"] = float64(d) / 1e6
	var size int
	for _, b := range blobs {
		size += len(b)
	}
	p.out["state.encode_bytes_per_key"] = float64(size) / probeKeys
	fresh := state.NewKeyedState(state.DefaultNumKeyGroups, 0, state.DefaultNumKeyGroups)
	restored := state.RegisterMap(fresh, "sum", state.GobCodec[float64]())
	d = p.timed("state.restore", func() {
		for g, b := range blobs {
			if err = fresh.RestoreGroup(g, b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if restored.Len() != probeKeys || sum == 0 {
		return fmt.Errorf("state probe restored %d of %d keys", restored.Len(), probeKeys)
	}
	p.out["state.restore_ms"] = float64(d) / 1e6
	return nil
}

// instruments times the registry's hot-path instruments: what telemetry
// costs per observation.
func (p *probeSet) instruments() error {
	const n = 5_000_000
	reg := metrics.NewRegistry()
	c, h := reg.Counter("c"), reg.Histogram("h")
	d := p.timed("metrics.counter", func() {
		for i := 0; i < n; i++ {
			c.Add(1)
		}
	})
	p.out["metrics.counter_add_ns"] = perUnit(d, n)
	d = p.timed("metrics.histogram", func() {
		for i := int64(0); i < n; i++ {
			h.Observe(i)
		}
	})
	p.out["metrics.histogram_observe_ns"] = perUnit(d, n)
	return nil
}

// generator times the traced workload's own source: what a record costs
// before the engine has it, for the budget's harness row. replay and live
// read a topic and a channel, which sources probes.
func (p *probeSet) generator() error {
	var f gen.Func
	switch p.workload {
	case "windows":
		f = windowsGen(p.seed, gen.NewZipf(windowsKeys, windowsSkew))
	case "dist":
		f = gen.Uniform(p.seed, distKeys, 1, 1)
	case "checkpoint":
		skewed := gen.WarmThenSkew(p.seed, gen.NewZipf(probeKeys, checkpointSkew), probeKeys)
		f = func(sub, par int, i int64) gen.Event { return skewed(sub, par, i+probeKeys) }
	default:
		return nil
	}
	r := gen.TimeBoxed(gen.NewBox(1, probeRecords, 0), f, func(e gen.Event) float64 { return e.Val }, nil).Open(0, 1)
	d := p.timed("harness.generator", func() {
		for {
			if _, st := r.Next(); st == streamline.ReadEnd {
				return
			}
		}
	})
	p.out["harness.generator_ns"] = perUnit(d, probeRecords)
	return nil
}
