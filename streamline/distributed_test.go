package streamline_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/streamline"
)

// startWorkers launches n in-process workers over real loopback TCP once
// the coordinator address lands on addrCh. Each worker rebuilds the
// pipeline with its own build() call — the SPMD contract, exercised inside
// one test process. Worker n-1 runs under victimCtx so kill tests can take
// it down; wait() collects every worker's error.
func startWorkers(ctx context.Context, n int, addrCh <-chan string, victimCtx context.Context, build func() *streamline.Env) (wait func() []error) {
	errCh := make(chan error, n)
	go func() {
		var addr string
		select {
		case addr = <-addrCh:
		case <-ctx.Done():
			for i := 0; i < n; i++ {
				errCh <- ctx.Err()
			}
			return
		}
		for i := 0; i < n; i++ {
			wctx := ctx
			if victimCtx != nil && i == n-1 {
				wctx = victimCtx
			}
			go func(wctx context.Context) {
				errCh <- streamline.RunWorker(wctx, addr, func(string, []string) (*streamline.Env, error) {
					return build(), nil
				})
			}(wctx)
		}
	}()
	return func() []error {
		errs := make([]error, n)
		for i := range errs {
			errs[i] = <-errCh
		}
		return errs
	}
}

// --- Wordcount: distributed output must be byte-identical to local. ---

func wordcountLines() []string {
	lines := make([]string, 240)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha w%d beta w%d gamma w%d", i%17, i%29, (i*7)%61)
	}
	return lines
}

func buildWordcount(workers int, extra ...streamline.Option) (*streamline.Env, *streamline.Results[float64]) {
	opts := append([]streamline.Option{
		streamline.WithParallelism(2),
		streamline.WithWorkers(workers),
	}, extra...)
	env := streamline.New(opts...)
	src := streamline.From(env, "lines", streamline.Slice(wordcountLines()))
	words := streamline.FlatMap(src, "split", func(l string, em streamline.Emitter[string]) {
		for _, w := range strings.Fields(l) {
			em.Emit(w)
		}
	})
	keyed := streamline.KeyByString(words, "key", func(w string) string { return w })
	ones := streamline.Map(keyed, "one", func(string) float64 { return 1 })
	counts := streamline.ReduceByKey(ones, "count", func(acc, v float64) float64 { return acc + v }, false)
	return env, streamline.Collect(counts, "out")
}

// renderCounts renders sorted "key=count" lines — the byte-identity format
// the single-process and distributed runs are compared in.
func renderCounts(out *streamline.Results[float64]) string {
	lines := make([]string, 0, len(out.Records()))
	for _, r := range out.Records() {
		lines = append(lines, fmt.Sprintf("%d=%v", r.Key, r.Value))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestDistributedWordcountMatchesLocal(t *testing.T) {
	localEnv, localOut := buildWordcount(0)
	execute(t, localEnv.Execute)
	want := renderCounts(localOut)
	if want == "" {
		t.Fatal("local run produced no counts")
	}

	addrCh := make(chan string, 1)
	distEnv, distOut := buildWordcount(2,
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait := startWorkers(ctx, 2, addrCh, nil, func() *streamline.Env {
		env, _ := buildWordcount(2)
		return env
	})
	if err := distEnv.ExecuteDistributed(ctx); err != nil {
		t.Fatalf("distributed execute: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}
	if got := renderCounts(distOut); got != want {
		t.Fatalf("distributed wordcount diverged from local:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// --- Windowed aggregate: same byte-identity requirement. ---

func buildDistWindowed(par, workers int, perSec float64, extra ...streamline.Option) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
	opts := append([]streamline.Option{
		streamline.WithParallelism(par),
		streamline.WithWorkers(workers),
	}, extra...)
	env := streamline.New(opts...)
	gen := streamline.Generator(6000, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 6), Value: 1}
	})
	var src *streamline.Stream[float64]
	if perSec > 0 {
		src = streamline.From(env, "gen", streamline.Paced(gen, perSec), streamline.WithSourceParallelism(2))
	} else {
		src = streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
	}
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	win := streamline.WindowAggregate(keyed, "win",
		streamline.Query(streamline.Tumbling(100), streamline.Sum()),
		streamline.Query(streamline.Sliding(200, 100), streamline.Count()))
	return env, streamline.Collect(win, "out")
}

func renderWindows(outs ...*streamline.Results[streamline.WindowResult]) string {
	dedup := map[string]struct{}{}
	for _, out := range outs {
		for _, r := range out.Records() {
			dedup[fmt.Sprintf("%d q%d [%d,%d)=%v", r.Key, r.Value.QueryID, r.Value.Start, r.Value.End, r.Value.Value)] = struct{}{}
		}
	}
	lines := make([]string, 0, len(dedup))
	for l := range dedup {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestDistributedWindowedAggregateMatchesLocal(t *testing.T) {
	localEnv, localOut := buildDistWindowed(2, 0, 0)
	execute(t, localEnv.Execute)
	want := renderWindows(localOut)
	if want == "" {
		t.Fatal("local run produced no windows")
	}

	addrCh := make(chan string, 1)
	distEnv, distOut := buildDistWindowed(2, 2, 0,
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait := startWorkers(ctx, 2, addrCh, nil, func() *streamline.Env {
		env, _ := buildDistWindowed(2, 2, 0)
		return env
	})
	if err := distEnv.ExecuteDistributed(ctx); err != nil {
		t.Fatalf("distributed execute: %v", err)
	}
	for i, err := range wait() {
		if err != nil {
			t.Fatalf("worker %d: %v", i+1, err)
		}
	}
	if got := renderWindows(distOut); got != want {
		t.Fatalf("distributed windowed aggregate diverged from local:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// --- Kill a worker mid-checkpoint, restore at a different worker count. ---

func TestDistributedKillWorkerRestoreRescaled(t *testing.T) {
	localEnv, localOut := buildDistWindowed(2, 0, 0)
	execute(t, localEnv.Execute)
	want := renderWindows(localOut)

	backend, err := streamline.NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Crash run: keyed parallelism 2, two workers, paced so the kill lands
	// mid-stream; the victim worker dies as soon as a checkpoint persists.
	addrCh := make(chan string, 1)
	crashEnv, crashOut := buildDistWindowed(2, 2, 12_000,
		streamline.WithCheckpointing(backend, 20*time.Millisecond),
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	go func() {
		for {
			if _, ok, _ := backend.Latest(); ok {
				killVictim()
				return
			}
			select {
			case <-victimCtx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	wait := startWorkers(ctx, 2, addrCh, victimCtx, func() *streamline.Env {
		env, _ := buildDistWindowed(2, 2, 12_000,
			streamline.WithCheckpointing(backend, 20*time.Millisecond))
		return env
	})
	runErr := crashEnv.ExecuteDistributed(ctx)
	wait()
	snap, ok, err := backend.Latest()
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	if !ok {
		t.Skip("no checkpoint persisted before the kill on this machine")
	}
	if runErr == nil {
		t.Skip("job finished before the kill on this machine")
	}

	// Recovery: keyed parallelism 3, three workers — keyed state
	// redistributes across both rescales; counts stay exactly-once.
	addrCh2 := make(chan string, 1)
	resumeEnv, resumeOut := buildDistWindowed(3, 3, 0,
		streamline.WithStateBackend(backend),
		streamline.WithOnListen(func(a string) { addrCh2 <- a }))
	wait2 := startWorkers(ctx, 3, addrCh2, nil, func() *streamline.Env {
		env, _ := buildDistWindowed(3, 3, 0, streamline.WithStateBackend(backend))
		return env
	})
	if err := resumeEnv.ExecuteDistributedRestored(ctx, snap); err != nil {
		t.Fatalf("restored distributed run: %v", err)
	}
	for i, err := range wait2() {
		if err != nil {
			t.Fatalf("restored worker %d: %v", i+1, err)
		}
	}
	got := renderWindows(crashOut, resumeOut)
	if got != want {
		t.Fatalf("rescaled distributed recovery diverged from local:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// --- Topic source: splittable scan redistributes across worker counts. ---

func TestDistributedTopicSourceKillRestoreRescaled(t *testing.T) {
	history := mkEvents(4000, 5000)
	store := openTopicStore(t, streamline.WithSegmentBytes(16<<10))
	persistEvents(t, store, "history", history)

	build := func(srcPar, workers int, pace float64, extra ...streamline.Option) (*streamline.Env, *streamline.Results[streamline.WindowResult]) {
		opts := append([]streamline.Option{
			streamline.WithParallelism(2),
			streamline.WithWorkers(workers),
		}, extra...)
		env := streamline.New(opts...)
		var src streamline.Source[event] = streamline.Topic[event](store, "history", streamline.WithSplitSize(4096))
		if pace > 0 {
			src = streamline.Paced(src, pace)
		}
		stream := streamline.From(env, "events", src,
			streamline.WithSourceParallelism(srcPar),
			streamline.WithTimestamps(func(e event) int64 { return e.TsMs }))
		return env, buildHybridPipeline(env, stream)
	}

	refEnv, refOut := build(2, 0, 0)
	execute(t, refEnv.Execute)
	want := collectWindows(refOut)
	if len(want) == 0 {
		t.Fatal("reference run produced no windows")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backend := streamline.NewMemoryBackend(0)

	// Crash: source parallelism 4 across two workers, paced; kill one
	// worker after the first checkpoint lands.
	addrCh := make(chan string, 1)
	crashEnv, crashOut := build(4, 2, 9_000,
		streamline.WithCheckpointing(backend, 15*time.Millisecond),
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	go func() {
		for {
			if _, ok, _ := backend.Latest(); ok {
				killVictim()
				return
			}
			select {
			case <-victimCtx.Done():
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	wait := startWorkers(ctx, 2, addrCh, victimCtx, func() *streamline.Env {
		env, _ := build(4, 2, 9_000, streamline.WithCheckpointing(backend, 15*time.Millisecond))
		return env
	})
	runErr := crashEnv.ExecuteDistributed(ctx)
	wait()
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint persisted before the kill on this machine")
	}
	if runErr == nil {
		t.Skip("job finished before the kill on this machine")
	}

	// Recovery: source parallelism 2 across three workers — the remaining
	// splits redistribute across a different subtask count and worker set.
	addrCh2 := make(chan string, 1)
	resumeEnv, resumeOut := build(2, 3, 0,
		streamline.WithStateBackend(backend),
		streamline.WithOnListen(func(a string) { addrCh2 <- a }))
	wait2 := startWorkers(ctx, 3, addrCh2, nil, func() *streamline.Env {
		env, _ := build(2, 3, 0, streamline.WithStateBackend(backend))
		return env
	})
	if err := resumeEnv.ExecuteDistributedRestored(ctx, snap); err != nil {
		t.Fatalf("restored distributed run: %v", err)
	}
	for i, err := range wait2() {
		if err != nil {
			t.Fatalf("restored worker %d: %v", i+1, err)
		}
	}
	got := collectWindows(crashOut)
	for k, v := range collectWindows(resumeOut) {
		got[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("restored run produced %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v (exactly-once across the distributed split reassignment)", k, got[k], v)
		}
	}
}

// --- Cancel mid-checkpoint: everything unwinds, nothing leaks. ---

func TestDistributedCancelReleasesAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		backend := streamline.NewMemoryBackend(0)
		addrCh := make(chan string, 1)
		env, _ := buildDistWindowed(2, 2, 10_000,
			streamline.WithCheckpointing(backend, 10*time.Millisecond),
			streamline.WithOnListen(func(a string) { addrCh <- a }))
		ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
		wait := startWorkers(ctx, 2, addrCh, nil, func() *streamline.Env {
			e, _ := buildDistWindowed(2, 2, 10_000, streamline.WithCheckpointing(backend, 10*time.Millisecond))
			return e
		})
		_ = env.ExecuteDistributed(ctx) // cancelled mid-run; error expected
		wait()
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled distributed runs: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
