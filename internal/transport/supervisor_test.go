// Fault-injection tests for the supervised distributed runtime: a typed
// pipeline is driven through the transport.Supervisor directly, with the
// control plane wrapped in the chaos harness so the test can impose crashes,
// connection drops, and the hung-but-open blackhole that only heartbeat
// timeouts can detect. The external test package lets these tests build
// their graphs through the streamline layer, exactly as real jobs do.
package transport_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataflow"
	"repro/internal/transport"
	"repro/streamline"
)

// soakEnv builds the soak pipeline: a deterministic paced generator, keyed
// 31 ways, summed per key behind a hash shuffle. The reduce emits only at
// end of stream, so every record the sink sees belongs to the epoch that
// completed — the byte-identity invariant the soak test checks.
func soakEnv(events int64, perSec float64) (*streamline.Env, *streamline.Results[float64]) {
	env := streamline.New(streamline.WithParallelism(2))
	var gen streamline.Source[float64] = streamline.Generator(events, func(sub, par int, i int64) streamline.Keyed[float64] {
		global := i*int64(par) + int64(sub)
		return streamline.Keyed[float64]{Ts: global, Key: uint64(global % 31), Value: float64(global%7) + 1}
	})
	if perSec > 0 {
		gen = streamline.Paced(gen, perSec)
	}
	src := streamline.From(env, "gen", gen, streamline.WithSourceParallelism(2))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	return env, streamline.Collect(sums, "out")
}

func renderSums(out *streamline.Results[float64]) string {
	lines := make([]string, 0, len(out.Records()))
	for _, r := range out.Records() {
		lines = append(lines, fmt.Sprintf("%d=%v", r.Key, r.Value))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// soakBuild is the workers' SPMD rebuild of the identical pipeline.
func soakBuild(events int64, perSec float64) transport.BuildFunc {
	return func(string, []string) (*dataflow.Graph, bool, error) {
		env, _ := soakEnv(events, perSec)
		return env.Core().Graph(), env.Core().Chaining(), nil
	}
}

// TestSupervisorSoakSurvivesKills is the kill-and-recover soak: a supervised
// two-worker job absorbs three injected faults — a worker crash
// mid-checkpoint, a control-plane blackhole only heartbeat timeouts can
// detect, and a hard connection drop — and still produces output
// byte-identical to an unfaulted single-process run.
func TestSupervisorSoakSurvivesKills(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const events, pace = 24_000, 2_500.0 // ~4.8s of stream per source subtask

	localEnv, localOut := soakEnv(events, 0)
	if err := localEnv.Execute(ctx); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := renderSums(localOut)
	if want == "" {
		t.Fatal("reference run produced no sums")
	}

	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chLn := chaos.Wrap(rawLn)
	backend := streamline.NewMemoryBackend(0)
	supEnv, supOut := soakEnv(events, pace)
	cfg := transport.Config{
		Graph:             supEnv.Core().Graph(),
		Chaining:          supEnv.Core().Chaining(),
		Workers:           2,
		Backend:           backend,
		Interval:          10 * time.Millisecond,
		Listener:          chLn,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
	}
	sup, err := transport.NewSupervisor(cfg, transport.SupervisionPolicy{
		MaxRestarts:  12,
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   50 * time.Millisecond,
		RejoinWindow: 400 * time.Millisecond,
		MinWorkers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	killer := chaos.NewKiller()
	var wg sync.WaitGroup
	startWorker := func(name string) {
		wctx, wcancel := context.WithCancel(ctx)
		killer.RegisterCancel(name, wcancel)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wcancel()
			// The loop rejoins across supervised epochs; errors are expected
			// for killed workers and irrelevant to the output invariant.
			_ = transport.RunWorkerLoop(wctx, sup.Addr(), nil, soakBuild(events, pace),
				transport.WithWorkerDialPolicy(transport.DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 5 * time.Second}))
		}()
	}
	startWorker("w1")
	startWorker("w2")

	supErr := make(chan error, 1)
	go func() { supErr <- sup.Run(ctx) }()

	// waitCkpts blocks until the cumulative completed-checkpoint count
	// reaches n — proof the current epoch is alive and making progress, so
	// the next fault lands on a running job (and, with a 10ms interval,
	// almost certainly mid-assembly of the next checkpoint).
	waitCkpts := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for sup.CompletedCheckpoints() < n {
			select {
			case err := <-supErr:
				t.Fatalf("job finished before fault injection (checkpoints=%d, err=%v)", sup.CompletedCheckpoints(), err)
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for checkpoint %d (have %d)", n, sup.CompletedCheckpoints())
			}
		}
	}
	waitRestarts := func(n int) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for len(sup.Stats()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for restart %d (have %d)", n, len(sup.Stats()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Fault 1: crash a worker mid-checkpoint. No replacement appears, so the
	// recovery degrades onto the survivor after the rejoin window.
	waitCkpts(1)
	killer.Kill("w1")
	waitRestarts(1)
	waitCkpts(sup.CompletedCheckpoints() + 2)

	// Fault 2: blackhole every control connection — the process is gone from
	// the network but every TCP connection stays open. Detection must come
	// from the heartbeat timeout on both sides; the survivor then redials.
	chLn.Partition()
	waitRestarts(2)
	waitCkpts(sup.CompletedCheckpoints() + 2)

	// Fault 3: hard-drop the survivor's current control connection — the
	// crash-style failure, detected instantly as a read error.
	conns := chLn.Conns()
	conns[len(conns)-1].Drop()
	waitRestarts(3)

	if err := <-supErr; err != nil {
		t.Fatalf("supervised job failed despite restart budget: %v", err)
	}
	wg.Wait()

	stats := sup.Stats()
	if len(stats) < 3 {
		t.Fatalf("recorded %d restarts, want >= 3", len(stats))
	}
	sawHeartbeat, sawDegraded, sawCheckpointed := false, false, false
	for _, st := range stats {
		if strings.Contains(st.Cause, "heartbeat timeout") {
			sawHeartbeat = true
		}
		if st.Workers == 1 {
			sawDegraded = true
		}
		if st.Checkpoint > 0 {
			sawCheckpointed = true
		}
		if st.RestoredAt.IsZero() {
			// The attempt failed before its readiness barrier.
			if st.Downtime != 0 || st.Workers != 0 {
				t.Fatalf("restart %d never restored, yet reports %+v", st.Attempt, st)
			}
			continue
		}
		if st.Downtime <= 0 {
			t.Fatalf("restart %d has non-positive downtime %v", st.Attempt, st.Downtime)
		}
		if st.RestoredAt.Before(st.FailedAt) {
			t.Fatalf("restart %d restored before it failed: %+v", st.Attempt, st)
		}
	}
	if !sawHeartbeat {
		t.Fatalf("no restart was caused by a heartbeat timeout; causes: %+v", stats)
	}
	if !sawDegraded {
		t.Fatalf("no restart degraded onto the survivor; stats: %+v", stats)
	}
	if !sawCheckpointed {
		t.Fatalf("no restart resumed from a completed checkpoint; stats: %+v", stats)
	}

	if got := renderSums(supOut); got != want {
		t.Fatalf("soak output diverged from the unfaulted run (exactly-once violated):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// failingSource always reports an error at end of stream — the permanently
// broken input that must exhaust the supervisor's restart budget.
type failingSource struct{}

func (failingSource) Open(sub, par int) streamline.Reader[float64] { return &failingReader{} }

type failingReader struct{ i int64 }

func (r *failingReader) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	if r.i < 8 {
		r.i++
		return streamline.Keyed[float64]{Ts: r.i, Key: uint64(r.i % 3), Value: 1}, streamline.ReadData
	}
	return streamline.Keyed[float64]{}, streamline.ReadEnd
}
func (r *failingReader) Snapshot() ([]byte, error) { return nil, nil }
func (r *failingReader) Restore([]byte) error      { return nil }
func (r *failingReader) Err() error                { return errors.New("injected permanent source failure") }

func failingEnv() *streamline.Env {
	env := streamline.New(streamline.WithParallelism(1))
	src := streamline.From(env, "fail", failingSource{}, streamline.WithSourceParallelism(1))
	keyed := streamline.KeyByRecord(src, "key", func(k streamline.Keyed[float64]) uint64 { return k.Key })
	sums := streamline.ReduceByKey(keyed, "sum", func(acc, v float64) float64 { return acc + v }, false)
	streamline.Collect(sums, "out")
	return env
}

// TestSupervisorExhaustsRestartBudget: a permanent failure must not retry
// forever — after MaxRestarts failed recoveries the final error surfaces,
// wrapped with the budget, and the last epoch tells its workers not to
// rejoin.
func TestSupervisorExhaustsRestartBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	env := failingEnv()
	cfg := transport.Config{
		Graph:             env.Core().Graph(),
		Chaining:          env.Core().Chaining(),
		Workers:           1,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
	}
	sup, err := transport.NewSupervisor(cfg, transport.SupervisionPolicy{
		MaxRestarts:  2,
		BaseBackoff:  5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		RejoinWindow: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(string, []string) (*dataflow.Graph, bool, error) {
		e := failingEnv()
		return e.Core().Graph(), e.Core().Chaining(), nil
	}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		// After the final epoch the listener closes; a worker that raced the
		// terminal stop gives up via its dial budget, so either exit is fine.
		_ = transport.RunWorkerLoop(ctx, sup.Addr(), nil, build,
			transport.WithWorkerDialPolicy(transport.DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: time.Second}))
	}()

	runErr := sup.Run(ctx)
	if runErr == nil {
		t.Fatal("a permanently failing job must not report success")
	}
	if !strings.Contains(runErr.Error(), "restart budget (2) exhausted") {
		t.Fatalf("error %q does not surface the exhausted budget", runErr)
	}
	if !strings.Contains(runErr.Error(), "injected permanent source failure") {
		t.Fatalf("error %q does not carry the root cause", runErr)
	}
	if stats := sup.Stats(); len(stats) != 2 {
		t.Fatalf("recorded %d restarts, want exactly the budget's 2: %+v", len(stats), stats)
	}
	if n := sup.CompletedCheckpoints(); n != 0 {
		t.Fatalf("no backend was configured, yet %d checkpoints completed", n)
	}
	select {
	case <-workerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("worker loop did not exit after the terminal stop")
	}
}

// TestSurvivorRejoinsOnlyUnderSupervision: a worker that survives a peer's
// crash runs RunWorker once and learns from its error whether the job goes
// on. Under a supervised coordinator the error wraps ErrRejoin, so a loop
// redials; under an unsupervised one it does not, so a loop returns with
// the failed share instead of redialing a coordinator that has stopped.
// The plan's Supervised flag and the abort's Rejoin flag both gate it; a
// coordinator that sets both for an unsupervised job fails this test.
func TestSurvivorRejoinsOnlyUnderSupervision(t *testing.T) {
	for _, supervised := range []bool{false, true} {
		name := "unsupervised"
		if supervised {
			name = "supervised"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			const events, pace = 12_000, 2_500.0
			env, _ := soakEnv(events, pace)
			sup, err := transport.NewSupervisor(transport.Config{
				Graph:             env.Core().Graph(),
				Chaining:          env.Core().Chaining(),
				Workers:           2,
				Backend:           streamline.NewMemoryBackend(0),
				Interval:          10 * time.Millisecond,
				HeartbeatInterval: 20 * time.Millisecond,
				HeartbeatTimeout:  time.Second,
			}, transport.SupervisionPolicy{Unsupervised: !supervised, RejoinWindow: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			supErr := make(chan error, 1)
			go func() { supErr <- sup.Run(ctx) }()

			victimCtx, kill := context.WithCancel(ctx)
			defer kill()
			dial := transport.WithWorkerDialPolicy(transport.DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 5 * time.Second})
			survivorErr, victimDone := make(chan error, 1), make(chan struct{})
			go func() { survivorErr <- transport.RunWorker(ctx, sup.Addr(), nil, soakBuild(events, pace), dial) }()
			go func() {
				defer close(victimDone)
				_ = transport.RunWorker(victimCtx, sup.Addr(), nil, soakBuild(events, pace), dial)
			}()

			for sup.CompletedCheckpoints() == 0 {
				select {
				case err := <-supErr:
					t.Fatalf("job ended before the kill: %v", err)
				case <-ctx.Done():
					t.Fatal("no checkpoint completed")
				case <-time.After(2 * time.Millisecond):
				}
			}
			kill()
			var werr error
			select {
			case werr = <-survivorErr:
			case <-ctx.Done():
				t.Fatal("survivor did not return after its peer's crash")
			}
			if werr == nil {
				t.Fatal("survivor of a crashed epoch returned nil")
			}
			t.Logf("survivor: %v", werr)
			if got := errors.Is(werr, transport.ErrRejoin); got != supervised {
				t.Fatalf("survivor's error wraps ErrRejoin = %v under the %s coordinator, want %v: %v", got, name, supervised, werr)
			}
			cancel()
			<-victimDone
			if err := <-supErr; err == nil {
				t.Fatalf("%s run reported success after a worker crash", name)
			}
		})
	}
}
