package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/benchmark/gen"
	"repro/benchmark/ref"
	"repro/internal/metrics"
	"repro/streamline"
)

// The live workload: the paper's scenario. Set-up appends a history to a
// topic; the job replays it through Hybrid, hands off to a live channel, and
// runs keyed tumbling and sliding windows into a sink. The live side is the
// benchmark's one open loop: events are due on a fixed schedule, 50 000 a
// second, whether or not the engine keeps up; a full channel refuses the
// event (counted failed) and never blocks the sender. Sources are pull-based
// and back-pressured, so an unthrottled workload's rate is its sustainable
// rate; this one therefore runs at one fixed rate, about a third of what the
// window path sustains at this key count on two cores, and reports latency.
const (
	liveHistory     = 2_000_000
	liveKeys        = 1_000
	livePerTick     = 50 // events per event-time ms: event time advances in real time at liveRate
	liveRate        = 50_000
	liveChannel     = 100_000
	liveVerifyHist  = 100_000
	liveVerifyLive  = 50_000
	liveSettle      = 1000 // ms after the handoff before latency samples count
	liveSenderTick  = 250 * time.Microsecond
	liveWindow      = 100 // ms, the tumbling size and the sliding step
	liveLagTicks    = 1   // ms: events of one tick share a timestamp, a watermark at the tick would drop its stragglers
	liveSeedOffset  = 0x6c697665
	liveTopic       = "history"
	liveVerifyTopic = "verify"
)

var liveQueries = []ref.Query{
	{Size: liveWindow, Slide: liveWindow, Fn: ref.Sum},
	{Size: liveWindow, Slide: liveWindow, Fn: ref.Count},
	{Size: 10 * liveWindow, Slide: liveWindow, Fn: ref.Avg},
}

// liveGens returns the history generator and the live one; live event i
// carries a timestamp past everything in a history of n events.
func liveGens(seed uint64, n int64) (hist, live gen.Func, t0 int64) {
	hist = gen.Uniform(seed, liveKeys, livePerTick, 100)
	t0 = (n-1)/livePerTick + 1
	base := gen.Uniform(seed^liveSeedOffset, liveKeys, livePerTick, 100)
	live = func(sub, par int, i int64) gen.Event {
		e := base(sub, par, i)
		e.Ts += t0
		return e
	}
	return hist, live, t0
}

// tapSource is the live Channel connector with one observation added: when
// the engine first takes a live record, which is the handoff.
type tapSource struct {
	inner streamline.Source[gen.Event]
	first *atomic.Int64
}

func (s tapSource) Open(sub, par int) streamline.Reader[gen.Event] {
	return &tapReader{Reader: s.inner.Open(sub, par), first: s.first}
}

type tapReader struct {
	streamline.Reader[gen.Event]
	first *atomic.Int64
	seen  bool
}

func (r *tapReader) Next() (streamline.Keyed[gen.Event], streamline.ReadStatus) {
	k, st := r.Reader.Next()
	if st == streamline.ReadData && !r.seen {
		r.seen = true
		r.first.CompareAndSwap(0, time.Now().UnixNano())
	}
	return k, st
}

// latSample is one window result of the live era: its window end and when
// the sink saw it.
type latSample struct {
	end int64
	at  int64
}

// liveSink counts like windowSink and timestamps every result whose window
// ends after liveFrom.
type liveSink struct {
	windowSink
	liveFrom int64
	samples  []latSample
}

func (s *liveSink) take(k streamline.Keyed[streamline.WindowResult]) {
	s.windowSink.take(k)
	if k.Value.End > s.liveFrom {
		s.samples = append(s.samples, latSample{k.Value.End, time.Now().UnixNano()})
	}
}

// livePipeline builds the workload's plan.
func livePipeline(env *streamline.Env, store *streamline.TopicStore, topic string, ch <-chan streamline.Keyed[gen.Event],
	first *atomic.Int64, sink func(streamline.Keyed[streamline.WindowResult]), tr *Tracer, root int) {
	tsFn := trace1(tr, "user.timestamp", root, func(e gen.Event) int64 { return e.Ts })
	keyFn := trace1(tr, "user.key", root, func(e gen.Event) uint64 { return e.Key })
	valFn := trace1(tr, "user.map", root, func(e gen.Event) float64 { return e.Val })
	src := streamline.From(env, "events",
		streamline.Hybrid(streamline.Topic[gen.Event](store, topic), tapSource{streamline.Channel(ch), first}),
		streamline.WithTimestamps(tsFn), streamline.WithWatermarkLag(liveLagTicks))
	keyed := streamline.KeyBy(src, "key", keyFn)
	vals := streamline.Map(keyed, "val", valFn)
	res := streamline.WindowAggregate(vals, "win", engineQueries(liveQueries)...)
	streamline.Sink(res, "out", traceDo(tr, "user.sink", root, sink))
}

type liveInputs struct {
	history
	want map[ref.WinID]ref.WinVal
}

func liveSetup(cfg Config) (liveInputs, error) {
	hist, _, _ := liveGens(cfg.Seed, liveHistory)
	h, err := persistHistory(cfg, hist, topicSpec{liveTopic, liveHistory}, topicSpec{liveVerifyTopic, liveVerifyHist})
	if err != nil {
		return liveInputs{}, err
	}
	// Neither phase can drop a record: the history scan emits no watermark
	// before the handoff, and the live events of one subtask are in order.
	w := ref.NewWindows(liveQueries...)
	vh, vl, _ := liveGens(cfg.Seed, liveVerifyHist)
	for i := int64(0); i < liveVerifyHist; i++ {
		e := vh(0, 1, i)
		w.Add(e.Key, e.Ts, e.Val)
	}
	for i := int64(0); i < liveVerifyLive; i++ {
		e := vl(0, 1, i)
		w.Add(e.Key, e.Ts, e.Val)
	}
	return liveInputs{history: h, want: w.Results()}, nil
}

// nanosleep is the sender's sleep. time.Sleep parks the goroutine on a runtime
// timer, which this Go on Linux rounds up to the next millisecond: a 250 us
// tick would sleep 1 ms and make every burst late. The system call sleeps
// what it is asked to.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only costs one more pass of the sender's loop
}

func keyedEvent(e gen.Event) streamline.Keyed[gen.Event] {
	return streamline.Keyed[gen.Event]{Ts: e.Ts, Key: e.Key, Value: e}
}

// liveMeasure replays the history and then feeds the live schedule for
// seconds.
func liveMeasure(in liveInputs, cfg Config, seconds float64, par int, tr *Tracer, res *Result) error {
	_, live, t0 := liveGens(cfg.Seed, liveHistory)
	count := int64(seconds * liveRate)
	lastTs := t0 + (count-1)/livePerTick
	sched := gen.Schedule{Every: time.Second / liveRate, Count: count - 1, Tick: liveSenderTick, Sleep: nanosleep}

	ch := make(chan streamline.Keyed[gen.Event], liveChannel)
	ch <- keyedEvent(live(0, 1, 0)) // the engine taking this one is the handoff
	var first atomic.Int64
	var refused int64
	var lateness []time.Duration
	fed := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer close(fed)
		defer close(ch)
		for first.Load() == 0 {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
		sp := tr.Begin("feed", -1)
		lateness = sched.Run(time.Unix(0, first.Load()), func(i int64) {
			select {
			case ch <- keyedEvent(live(0, 1, i+1)):
			default:
				refused++
			}
		})
		tr.End(sp)
	}()

	sink := &liveSink{windowSink: windowSink{countQuery: 1}, liveFrom: t0,
		samples: make([]latSample, 0, int(seconds*float64(len(liveQueries)*liveKeys*1000/liveWindow))+liveKeys*16)}
	root := tr.Begin("execute", -1)
	env := streamline.New(streamline.WithParallelism(par))
	livePipeline(env, in.store, liveTopic, ch, &first, sink.take, tr, root)
	reg, execute := executor(env, tr)
	watch := watchEdges(reg, "win", "out")
	// The heap of the live phase is measured like its latency: from liveSettle
	// after the handoff. During the catch-up every window of the history is
	// open and the heap doubles from collection to collection, so its peak is
	// wherever the last collection happened to fall (between 108 and 131 MB
	// in ten runs of the same code), and that garbage then stays until the
	// next collection, seconds into the live phase. One collection at the start
	// of the window takes it out; replay reports the heap of data at rest.
	settled := false
	ph := beginPhase(nil, func(p *phase) {
		watch.sample(p)
		if h := first.Load(); !settled && h != 0 && time.Since(time.Unix(0, h)) >= liveSettle*time.Millisecond {
			settled = true
			runtime.GC()
			p.heapMB = p.heapMB[:0]
		}
	})
	called := time.Now()
	err := execute(ctx)
	cancel()
	<-fed
	if err != nil {
		return fmt.Errorf("timed run: %w", err)
	}
	st := ph.end()
	tr.End(root)

	handoff := time.Unix(0, first.Load())
	catchup := handoff.Sub(called).Seconds()
	sent := count - refused
	res.Metrics["catchup_s"] = catchup
	res.Metrics["records_per_s"] = liveHistory / catchup
	res.universal(st, liveHistory+sent)
	res.Counts["records"] = liveHistory + sent
	res.Counts["results"] = sink.results
	res.Attempted += liveHistory + count
	res.fail(refused, "%d of %d live events refused by a full channel", refused, count)
	res.fail(abs(sink.counted-(liveHistory+sent)), "window counts add up to %d, but %d events went in", sink.counted, liveHistory+sent)

	// Window-close latency: the first live event with Ts >= End was due
	// End-t0 ms after the handoff, since event time runs at the send rate.
	var lat []float64
	for _, s := range sink.samples {
		if s.end > t0+liveSettle && s.end <= lastTs-liveWindow {
			due := handoff.Add(time.Duration(s.end-t0) * time.Millisecond)
			lat = append(lat, float64(s.at-due.UnixNano())/1e6)
		}
	}
	res.Counts["latency_samples"] = int64(len(lat))
	p50, _ := percentile(lat, 0.50)
	p90, _ := percentile(lat, 0.90)
	p99, ok := percentile(lat, 0.99)
	if !ok {
		return fmt.Errorf("%d latency samples are too few for a p99", len(lat))
	}
	// Latencies spread almost evenly from 0 to 25 ms, the Channel reader's
	// idle poll: the two source subtasks share the live channel, and event
	// time waits for whichever of them last saw a record. The middle of a
	// flat distribution wanders: the median differed by 14% (quartile to
	// quartile) over one set of ten runs while this benchmark was written and
	// by 7% over another, so it is an informational per-layer figure; p90 and
	// p99 sit near the poll constant and differed by 3 to 7%.
	res.Metrics["latency_p90_ms"], res.Metrics["latency_p99_ms"] = p90, p99
	res.Layer["harness.latency_p50_ms"] = p50
	res.Counts["latency_p50_us"] = int64(p50 * 1000)
	lateMs := make([]float64, len(lateness))
	for i, d := range lateness {
		lateMs[i] = float64(d) / 1e6
	}
	if v, ok := percentile(lateMs, 0.5); ok {
		res.Counts["generator_late_p50_us"] = int64(v * 1000)
	}
	if v, ok := percentile(lateMs, 0.99); ok {
		res.Layer["harness.generator_late_p99_ms"] = v
		res.Counts["generator_late_p99_us"] = int64(v * 1000)
	}

	res.Units["records"] = float64(liveHistory + sent)
	res.Units["topic_records"] = liveHistory
	res.Units["channel_records"] = float64(sent)
	res.Units["chain_records"] = float64(liveHistory + sent)
	res.Units["exchange_records"] = float64(liveHistory + sent)
	res.Units["window_records"] = float64(liveHistory + sent)
	res.Units["sweeps"] = sweeps(sent)
	res.Units["results"] = float64(sink.results)
	res.Units["keys"] = liveKeys
	if reg != nil {
		regs := []*metrics.Registry{reg}
		res.Layer["dataflow.late_dropped_share"] = share(counter(regs, "node.win.records_dropped_late"), float64(liveHistory+sent))
		res.Layer["dataflow.queued_batches_max"] = float64(watch.max)
	}
	return nil
}

func runLive(cfg Config, tr *Tracer) (*Result, error) {
	res := newResult("live")
	in, setup, err := timeSetup(tr, func() (liveInputs, error) { return liveSetup(cfg) },
		func(in liveInputs) { in.discard() })
	if err != nil {
		return nil, err
	}
	defer in.discard()
	res.Metrics["setup_s"] = setup

	// Verify pass: the small history, then a live channel filled beforehand
	// and closed, so the job runs as fast as it can and ends.
	_, vl, _ := liveGens(cfg.Seed, liveVerifyHist)
	ch := make(chan streamline.Keyed[gen.Event], liveVerifyLive)
	for i := int64(0); i < liveVerifyLive; i++ {
		ch <- keyedEvent(vl(0, 1, i))
	}
	close(ch)
	vs := &windowSink{countQuery: 1, keep: map[ref.WinID][]ref.WinVal{}}
	var unused atomic.Int64
	env := streamline.New(streamline.WithParallelism(parallelism))
	livePipeline(env, in.store, liveVerifyTopic, ch, &unused, vs.take, nil, -1)
	sp := tr.Begin("verify", -1)
	if err := env.Execute(context.Background()); err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}
	tr.End(sp)
	d := ref.CompareWindows(in.want, vs.keep)
	res.Attempted += d.Expected
	res.fail(d.Failed(), "verify pass: %d missing, %d extra, %d wrong of %d window results", d.Missing, d.Extra, d.Bad, d.Expected)

	if err := liveMeasure(in, cfg, cfg.Seconds, parallelism, tr, res); err != nil {
		return nil, err
	}
	if tr != nil {
		if _, err := baselines(res, cfg, func(seconds float64, par int, r *Result) error {
			return liveMeasure(in, cfg, seconds, par, nil, r)
		}); err != nil {
			return nil, err
		}
	}
	return res, nil
}
