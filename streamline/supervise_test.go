package streamline_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/streamline"
)

// flakySource fails its first `failures` attempts: each reader emits until
// failAt, then — once a checkpoint has actually completed, so the recovery
// genuinely resumes mid-stream instead of restarting from scratch — reports
// an injected error. The attempt counter is shared across epochs, exactly
// like a transient external fault that eventually clears.
type flakySource struct {
	total    int64
	failAt   int64
	failures int32
	attempts *atomic.Int32
	backend  streamline.Backend
}

func (f *flakySource) Open(sub, par int) streamline.Reader[float64] {
	attempt := f.attempts.Add(1) - 1
	return &flakyReader{total: f.total, failAt: f.failAt, fail: attempt < f.failures, backend: f.backend}
}

type flakyReader struct {
	pos, total, failAt int64
	fail               bool
	backend            streamline.Backend
	err                error
}

func (r *flakyReader) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	if r.fail && r.pos >= r.failAt {
		if _, ok, _ := r.backend.Latest(); ok {
			r.err = fmt.Errorf("injected transient failure at position %d", r.pos)
			return streamline.Keyed[float64]{}, streamline.ReadEnd
		}
		// No checkpoint to resume from yet; stall until one completes so the
		// failure always tests a mid-stream recovery.
		runtime.Gosched()
		return streamline.Keyed[float64]{}, streamline.ReadIdle
	}
	if r.pos >= r.total {
		return streamline.Keyed[float64]{}, streamline.ReadEnd
	}
	i := r.pos
	r.pos++
	return streamline.Keyed[float64]{Ts: i, Key: uint64(i % 5), Value: float64(i)}, streamline.ReadData
}

func (r *flakyReader) Snapshot() ([]byte, error) {
	buf := make([]byte, binary.MaxVarintLen64)
	return buf[:binary.PutVarint(buf, r.pos)], nil
}

func (r *flakyReader) Restore(blob []byte) error {
	pos, n := binary.Varint(blob)
	if n <= 0 {
		return errors.New("flakyReader: bad cursor")
	}
	r.pos = pos
	return nil
}

func (r *flakyReader) Err() error { return r.err }

// countingBackend counts the checkpoints persisted through it.
type countingBackend struct {
	streamline.Backend
	persisted atomic.Int64
}

func (b *countingBackend) Persist(snap *streamline.Snapshot) error {
	err := b.Backend.Persist(snap)
	if err == nil {
		b.persisted.Add(1)
	}
	return err
}

// skippingBackend reports, beside every Latest it returns, that it skipped
// an unreadable newer checkpoint — what a FileBackend does past a torn file.
type skippingBackend struct{ streamline.Backend }

func (b skippingBackend) Latest() (*streamline.Snapshot, bool, error) {
	snap, ok, err := b.Backend.Latest()
	return snap, ok, errors.Join(err, errors.New("skipped an unreadable newer checkpoint"))
}

// TestExecuteSupervisedLocalRecoversExactlyOnce: Execute under
// WithSupervision with zero workers restores from the newest checkpoint and
// re-executes in-process; the Collect sink must roll back to its
// checkpointed length so every source position lands in the output exactly
// once despite two mid-stream failures, and CompletedCheckpoints counts the
// checkpoints of every attempt. Both restarts must resume from a checkpoint
// also when the backend skipped a newer unreadable one on the way, and when
// the checkpoint directory still holds files of older formats — gob-era and
// checkpoint file format 1 — with ids above any the job reaches.
func TestExecuteSupervisedLocalRecoversExactlyOnce(t *testing.T) {
	for name, backend := range map[string]func(t *testing.T) streamline.Backend{
		"memory": func(*testing.T) streamline.Backend { return streamline.NewMemoryBackend(0) },
		"skipped newer checkpoint": func(*testing.T) streamline.Backend {
			return skippingBackend{streamline.NewMemoryBackend(0)}
		},
		"file beside older format": func(t *testing.T) streamline.Backend {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "chk-000000000099.gob"), []byte{0x0f, 0xff, 0x81}, 0o644); err != nil {
				t.Fatal(err)
			}
			// An empty checkpoint 98 of format version 1: header, version,
			// id, key groups, no entries, no groups, then its CRC-32C.
			v1 := append([]byte("STREAMLINE-CKPT\n"), 1, 0xc4, 0x01, 0, 0, 0)
			v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(v1, crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(filepath.Join(dir, "chk-000000000098.ckpt"), v1, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := streamline.NewFileBackend(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := b.Latest(); ok || err == nil || !strings.Contains(err.Error(), "older checkpoint format (version 1)") {
				t.Fatalf("before the run: Latest = %v, %v; want the version-1 file refused", ok, err)
			}
			return b
		},
	} {
		t.Run(name, func(t *testing.T) { recoversExactlyOnce(t, backend(t)) })
	}
}

func recoversExactlyOnce(t *testing.T, b streamline.Backend) {
	const total, failAt = 800, 600
	backend := &countingBackend{Backend: b}
	var attempts atomic.Int32
	src := &flakySource{total: total, failAt: failAt, failures: 2, attempts: &attempts, backend: backend}

	env := streamline.New(
		streamline.WithParallelism(1),
		streamline.WithCheckpointing(backend, 10*time.Millisecond),
		streamline.WithSupervision(5, 10*time.Millisecond, 50*time.Millisecond),
	)
	paced := streamline.Paced[float64](src, 4000)
	stream := streamline.From(env, "flaky", paced, streamline.WithSourceParallelism(1))
	out := streamline.Collect(stream, "out")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := env.Execute(ctx); err != nil {
		t.Fatalf("supervised local run: %v", err)
	}
	if got, want := env.CompletedCheckpoints(), backend.persisted.Load(); got != want {
		t.Fatalf("CompletedCheckpoints = %d, but %d checkpoints were persisted", got, want)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("source opened %d times, want 3 (two failures, one success)", got)
	}
	stats := env.RestartStats()
	if len(stats) != 2 {
		t.Fatalf("recorded %d restarts, want 2: %+v", len(stats), stats)
	}
	for _, st := range stats {
		if st.Checkpoint == 0 {
			t.Fatalf("restart %d resumed from scratch; the failure is gated on a completed checkpoint: %+v", st.Attempt, st)
		}
		if !strings.Contains(st.Cause, "injected transient failure") {
			t.Fatalf("restart %d cause %q does not carry the injected error", st.Attempt, st.Cause)
		}
	}

	recs := out.Records()
	if len(recs) != total {
		t.Fatalf("collected %d records, want exactly %d (exactly-once across restarts)", len(recs), total)
	}
	seen := make(map[int64]int, total)
	for _, r := range recs {
		seen[r.Ts]++
	}
	for i := int64(0); i < total; i++ {
		if seen[i] != 1 {
			t.Fatalf("position %d collected %d times, want exactly once", i, seen[i])
		}
	}
}

// brokenSource fails every attempt — the permanent fault that must exhaust
// the local supervision loop's restart budget.
type brokenSource struct{ attempts *atomic.Int32 }

func (b brokenSource) Open(sub, par int) streamline.Reader[float64] {
	b.attempts.Add(1)
	return &brokenReader{}
}

type brokenReader struct{ i int64 }

func (r *brokenReader) Next() (streamline.Keyed[float64], streamline.ReadStatus) {
	if r.i < 5 {
		r.i++
		return streamline.Keyed[float64]{Ts: r.i, Value: 1}, streamline.ReadData
	}
	return streamline.Keyed[float64]{}, streamline.ReadEnd
}
func (r *brokenReader) Snapshot() ([]byte, error) { return nil, nil }
func (r *brokenReader) Restore([]byte) error      { return nil }
func (r *brokenReader) Err() error                { return errors.New("injected permanent failure") }

// TestExecuteSupervisedLocalExhaustsBudget: the local supervision loop
// retries a permanent failure once and then surfaces it. Its backoff runs on
// the Env's clock: a manual one that moves by the policy's MaxBackoff
// whenever something waits on it, so the one restart's downtime is exactly
// that step.
func TestExecuteSupervisedLocalExhaustsBudget(t *testing.T) {
	const maxBackoff = 5 * time.Millisecond
	var attempts atomic.Int32
	env := streamline.New(
		streamline.WithParallelism(1),
		streamline.WithSupervision(1, time.Millisecond, maxBackoff),
	)
	stream := streamline.From(env, "broken", brokenSource{attempts: &attempts}, streamline.WithSourceParallelism(1))
	streamline.Collect(stream, "out")
	clk := clock.NewManual(time.Unix(0, 0))
	streamline.SetClock(env, clk)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	clk.Drive(maxBackoff, func() { err = env.Execute(ctx) })
	if err == nil {
		t.Fatal("a permanently failing job must not report success")
	}
	if !strings.Contains(err.Error(), "restart budget (1) exhausted") {
		t.Fatalf("error %q does not surface the exhausted budget", err)
	}
	if !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("error %q does not carry the root cause", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("source opened %d times, want 2 (initial + one restart)", got)
	}
	stats := env.RestartStats()
	if len(stats) != 1 {
		t.Fatalf("recorded %d restarts, want 1: %+v", len(stats), stats)
	}
	if stats[0].Downtime != maxBackoff {
		t.Fatalf("the restart's downtime on the Env's clock is %v, want the one %v step its backoff waited", stats[0].Downtime, maxBackoff)
	}
}

// TestExecuteSupervisedDistributedKillWorker: crash one of two workers
// mid-checkpoint under load; Execute under WithSupervision and WithWorkers
// restores the newest snapshot and degrades onto the surviving worker, and
// the output stays byte-identical to an unfaulted single-process run.
func TestExecuteSupervisedDistributedKillWorker(t *testing.T) {
	localEnv, localOut := buildDistWindowed(2, 0, 0)
	execute(t, localEnv.Execute)
	want := renderWindows(localOut)

	backend := streamline.NewMemoryBackend(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	addrCh := make(chan string, 1)
	supEnv, supOut := buildDistWindowed(2, 2, 4_000,
		streamline.WithCheckpointing(backend, 15*time.Millisecond),
		streamline.WithSupervision(6, 10*time.Millisecond, 50*time.Millisecond),
		streamline.WithHeartbeat(20*time.Millisecond, 500*time.Millisecond),
		streamline.WithRejoinWindow(500*time.Millisecond),
		streamline.WithOnListen(func(a string) { addrCh <- a }))
	victimCtx := killOnFirstCheckpoint(t, ctx, backend)
	wait := startWorkers(ctx, 2, addrCh, victimCtx, func() *streamline.Env {
		env, _ := buildDistWindowed(2, 2, 4_000, streamline.WithCheckpointing(backend, 15*time.Millisecond))
		return env
	})
	if err := supEnv.Execute(ctx); err != nil {
		t.Fatalf("supervised distributed run: %v", err)
	}
	wait() // the victim's error is the kill; the survivor exits nil

	stats := supEnv.RestartStats()
	if len(stats) == 0 {
		t.Skip("job finished before the kill on this machine")
	}
	if stats[0].Workers != 1 {
		t.Fatalf("first recovery ran with %d workers, want degradation onto the 1 survivor", stats[0].Workers)
	}
	for _, st := range stats {
		if st.Downtime <= 0 && !st.RestoredAt.IsZero() {
			t.Fatalf("restart %d has non-positive downtime: %+v", st.Attempt, st)
		}
	}
	if got := renderWindows(supOut); got != want {
		t.Fatalf("supervised recovery diverged from local run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunWorkerRegistryServesBothCoordinators: RunWorker with a nil builder
// rebuilds the pipeline the coordinator's plan names from the
// RegisterPipeline registry, with the plan's arguments, and the one entry
// point serves both coordinator kinds. Unsupervised, every worker returns
// nil when the job ends with its one epoch; supervised, the survivor of a
// killed peer rejoins the restarted epoch and returns nil when the job ends.
func TestRunWorkerRegistryServesBothCoordinators(t *testing.T) {
	streamline.RegisterPipeline("registry-windowed", func(args []string) (*streamline.Env, error) {
		pace, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return nil, err
		}
		env, _ := buildDistWindowed(2, 2, pace)
		return env, nil
	})
	localEnv, localOut := buildDistWindowed(2, 0, 0)
	execute(t, localEnv.Execute)
	want := renderWindows(localOut)

	t.Run("unsupervised", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		addrCh := make(chan string, 1)
		env, out := buildDistWindowed(2, 2, 0,
			streamline.WithPipelineRef("registry-windowed", "0"),
			streamline.WithOnListen(func(a string) { addrCh <- a }))
		wait := startWorkers(ctx, 2, addrCh, nil, nil)
		if err := env.Execute(ctx); err != nil {
			t.Fatalf("distributed run: %v", err)
		}
		for i, err := range wait() {
			if err != nil {
				t.Fatalf("worker %d returned %v at the end of an unsupervised job, want nil", i+1, err)
			}
		}
		if got := renderWindows(out); got != want {
			t.Fatalf("distributed run diverged from local run:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("supervised", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		backend := streamline.NewMemoryBackend(0)
		addrCh := make(chan string, 1)
		env, out := buildDistWindowed(2, 2, 4_000,
			streamline.WithPipelineRef("registry-windowed", "4000"),
			streamline.WithCheckpointing(backend, 15*time.Millisecond),
			streamline.WithSupervision(6, 10*time.Millisecond, 50*time.Millisecond),
			streamline.WithHeartbeat(20*time.Millisecond, 500*time.Millisecond),
			streamline.WithRejoinWindow(500*time.Millisecond),
			streamline.WithOnListen(func(a string) { addrCh <- a }))
		wait := startWorkers(ctx, 2, addrCh, killOnFirstCheckpoint(t, ctx, backend), nil)
		if err := env.Execute(ctx); err != nil {
			t.Fatalf("supervised distributed run: %v", err)
		}
		errs := wait()
		if len(env.RestartStats()) == 0 {
			t.Skip("job finished before the kill on this machine")
		}
		if errs[0] != nil {
			t.Fatalf("surviving worker returned %v at the end of a restarted job, want nil", errs[0])
		}
		if got := renderWindows(out); got != want {
			t.Fatalf("supervised recovery diverged from local run:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}
