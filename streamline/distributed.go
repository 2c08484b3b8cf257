package streamline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// WorkerEnvVar, when set in a process's environment, marks it as a
// self-spawned worker: Execute in that process runs the worker share against
// the coordinator at the variable's address instead of running the job, and
// exits when the share completes. Set automatically by WithSelfSpawn; never
// set it by hand unless you are building your own process manager.
const WorkerEnvVar = "STREAMLINE_WORKER"

// WithWorkers makes Execute split the job across n worker processes plus
// the coordinator (this process, which keeps all sinks and live local
// sources). n == 0 (the default) runs single-process.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithListenAddr sets the coordinator's control listen address for
// distributed runs (default: an ephemeral loopback port). Use a fixed
// address when workers are started externally, e.g. "127.0.0.1:7171".
func WithListenAddr(addr string) Option { return core.WithListenAddr(addr) }

// WithSelfSpawn makes a distributed Execute start its own workers by
// re-executing the current binary with WorkerEnvVar set. The re-executed
// process runs the same main, builds the same pipeline, and its Execute
// call becomes the worker share — after which the child process exits
// rather than returning into a main that expects results.
func WithSelfSpawn() Option { return core.WithSelfSpawn() }

// WithPipelineRef names the registered pipeline externally started generic
// workers (RunWorker with a nil builder) rebuild, with the arguments to
// rebuild it from. Unnecessary with WithSelfSpawn.
func WithPipelineRef(name string, args ...string) Option {
	return core.WithPipelineRef(name, args...)
}

// WithOnListen registers a callback invoked with the coordinator's bound
// control address once it is listening — the way to learn an ephemeral
// port so externally started workers (or test goroutines) can dial in.
func WithOnListen(f func(addr string)) Option { return core.WithOnListen(f) }

// WithSupervision makes Execute self-healing: on any failure — worker
// crash, lost or blackholed connection, local error — it reloads the newest
// completed checkpoint from the backend and relaunches the job, respawning
// workers (self-spawn mode) or re-placing the lost subtasks onto the
// workers that rejoin (graceful degradation); with zero workers it
// re-executes in this process. maxRestarts bounds the budget (0: default
// 5; negative: no restarts); the optional backoff durations are the base
// delay before the first restart (doubling per consecutive restart, with
// jitter) and the delay cap.
func WithSupervision(maxRestarts int, backoff ...time.Duration) Option {
	return core.WithSupervision(maxRestarts, backoff...)
}

// WithHeartbeat tunes distributed failure detection: coordinator and
// workers ping every interval and declare a control stream silent for the
// timeout a dead peer — including the hung-but-open TCP case a plain
// connection drop never reports. Defaults: 1s interval, 4s timeout.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return core.WithHeartbeat(interval, timeout)
}

// WithRejoinWindow bounds how long a supervised recovery waits for the full
// worker complement to redial before degrading onto the survivors
// (default 3s; self-spawn mode always respawns the full complement).
func WithRejoinWindow(d time.Duration) Option { return core.WithRejoinWindow(d) }

// RestartStat is one supervised restart attempt: cause, detect and restore
// instants, the Downtime between them (detect→restored MTTR), the recovered
// epoch's worker count, and the checkpoint it resumed from. An attempt that
// failed before it restored has zero restore instant, Downtime and workers.
type RestartStat = transport.RestartStat

// DialPolicy shapes worker dial/redial backoff (see transport.DialRetry).
type DialPolicy = transport.DialPolicy

// RegisterWireTypes registers custom record payload types for distributed
// runs. Every process of a job must register the same set before
// executing; builtin payloads (string, int, float64, ...) and the engine's
// window/join results are pre-registered.
func RegisterWireTypes(examples ...any) { transport.RegisterTypes(examples...) }

// Metrics returns the environment's metrics registry (created on first
// use). Distributed runs report into it: the coordinator process's per-node
// counters and per-edge transport gauges and counters
// ("edge.<name>.<i>.queued_batches", "edge.<name>.<i>.tx_bytes"), and the
// job's completed checkpoints ("job.checkpoints") and the duration of each
// from trigger to persisted ("job.checkpoint_nanos"). A run without workers
// attaches no registry yet.
func (e *Env) Metrics() *metrics.Registry {
	e.regOnce.Do(func() { e.reg = metrics.NewRegistry() })
	return e.reg
}

// ExecuteDistributed is Execute.
//
// Deprecated: Execute runs distributed whenever WithWorkers is set. The
// benchmark module's dist workload (benchmark/dist.go) is the only caller
// left; the alias goes with it.
func (e *Env) ExecuteDistributed(ctx context.Context) error { return e.Execute(ctx) }

// RestartStats returns one entry per restart attempt of the last supervised
// run, in order, so its length is the number of restarts the budget paid
// for. The Downtime of each entry is the detect→restored repair time; an
// attempt that failed before it restored has a zero RestoredAt and Downtime.
func (e *Env) RestartStats() []RestartStat { return e.restartStats }

// execute is Execute and ExecuteRestored (snap nil: from scratch). It
// routes on the Env's own options: a self-spawned child runs its worker
// share; otherwise the job runs in this process alone (zero workers) or
// as the coordinator of WithWorkers workers, supervised only under
// WithSupervision.
func (e *Env) execute(ctx context.Context, snap *Snapshot) error {
	if err := e.core.BuildErr(); err != nil {
		return err
	}
	if addr := os.Getenv(WorkerEnvVar); addr != "" {
		// Self-spawned child: this very code built the identical pipeline,
		// so the env itself is the build product. The share must not return
		// into a main that would print empty results. A rejoin-shaped exit
		// is clean — the supervising parent respawns a fresh process per
		// epoch rather than having children redial.
		err := transport.RunWorker(ctx, addr, e.Metrics(), func(string, []string) (*dataflow.Graph, bool, error) {
			return e.core.Graph(), e.core.Chaining(), nil
		})
		if err != nil && !errors.Is(err, transport.ErrRejoin) {
			fmt.Fprintln(os.Stderr, "streamline worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	supervised, maxRestarts, backoffBase, backoffMax := e.core.Supervision()
	workers := e.core.Workers()
	if workers <= 0 && !supervised {
		if snap != nil {
			return e.core.ExecuteRestored(ctx, snap)
		}
		return e.core.Execute(ctx)
	}
	pol := transport.SupervisionPolicy{
		Unsupervised: !supervised,
		MaxRestarts:  maxRestarts,
		BaseBackoff:  backoffBase,
		MaxBackoff:   backoffMax,
		RejoinWindow: e.core.RejoinWindow(),
	}
	backend, every := e.core.Backend()
	if workers <= 0 {
		// The graph re-executes in-process, so Collect sinks roll back to
		// their checkpointed length and exactly-once output holds across
		// restarts.
		sup := transport.NewLocalSupervisor(pol, backend, snap, e.core.ExecuteRestored)
		err := sup.Run(ctx)
		e.restartStats = sup.Stats()
		return err
	}
	pipeline, args := e.core.PipelineRef()
	hbInterval, hbTimeout := e.core.Heartbeat()
	sup, err := transport.NewSupervisor(transport.Config{
		Graph:             e.core.Graph(),
		Chaining:          e.core.Chaining(),
		Workers:           workers,
		Backend:           backend,
		Interval:          every,
		Restore:           snap,
		Pipeline:          pipeline,
		Args:              args,
		Registry:          e.Metrics(),
		ListenAddr:        e.core.ListenAddr(),
		HeartbeatInterval: hbInterval,
		HeartbeatTimeout:  hbTimeout,
	}, pol)
	if err != nil {
		return err
	}
	// Spawn/Reap run sequentially on the supervisor's goroutine: each epoch
	// respawns the full complement after waiting out the previous one.
	var procs []*exec.Cmd
	if e.core.SelfSpawn() {
		sup.Reap = func() {
			for _, c := range procs {
				c.Process.Kill()
				c.Wait()
			}
			procs = nil
		}
		sup.Spawn = func(_ context.Context, addr string, n int) error {
			for i := 0; i < n; i++ {
				cmd := exec.CommandContext(ctx, os.Args[0], os.Args[1:]...)
				cmd.Env = append(os.Environ(), WorkerEnvVar+"="+addr)
				cmd.Stderr = os.Stderr
				if err := cmd.Start(); err != nil {
					sup.Reap()
					return fmt.Errorf("spawn worker %d: %w", i+1, err)
				}
				procs = append(procs, cmd)
			}
			return nil
		}
	}
	if f := e.core.OnListen(); f != nil {
		f(sup.Addr())
	}
	runErr := sup.Run(ctx)
	e.core.NoteDistributedCheckpoints(sup.CompletedCheckpoints())
	e.restartStats = sup.Stats()
	// Children exit on their own once their share (or the abort) lands: Run
	// has closed every control connection by now, which unblocks them.
	for _, c := range procs {
		c.Wait()
	}
	return runErr
}

// Pipeline registry: generic worker processes (cmd/streamline-worker) have
// no main that builds the job, so pipelines register a named builder and
// the plan's pipeline name selects it.
var (
	pipelinesMu sync.RWMutex
	pipelines   = map[string]func(args []string) (*Env, error){}
)

// RegisterPipeline registers a named pipeline builder for generic workers.
// The builder must construct the pipeline exactly as the coordinator does
// for the same arguments — the plan fingerprint is verified before running.
func RegisterPipeline(name string, build func(args []string) (*Env, error)) {
	pipelinesMu.Lock()
	defer pipelinesMu.Unlock()
	pipelines[name] = build
}

// buildFromEnv adapts an Env-producing pipeline builder to the transport
// layer's graph-producing contract.
func buildFromEnv(build func(pipeline string, args []string) (*Env, error)) transport.BuildFunc {
	return func(pipeline string, args []string) (*dataflow.Graph, bool, error) {
		env, err := build(pipeline, args)
		if err != nil {
			return nil, false, err
		}
		if err := env.core.BuildErr(); err != nil {
			return nil, false, err
		}
		return env.core.Graph(), env.core.Chaining(), nil
	}
}

// RunWorker serves one worker's share of a distributed job, rebuilding the
// pipeline with build — nil means the RegisterPipeline registry, where the
// coordinator's plan names the pipeline. Under a supervised coordinator the
// worker redials and rejoins after every epoch restart; under an
// unsupervised one the job ends with its one epoch. It returns when the job
// completes (nil), fails terminally, or ctx is cancelled.
func RunWorker(ctx context.Context, coordAddr string, build func(pipeline string, args []string) (*Env, error), opts ...WorkerOption) error {
	if build == nil {
		build = registryBuilder
	}
	return transport.RunWorkerLoop(ctx, coordAddr, metrics.NewRegistry(), buildFromEnv(build), opts...)
}

// WorkerOption configures RunWorker.
type WorkerOption = transport.WorkerOption

// WithWorkerDialPolicy sets the backoff policy workers use to dial (and,
// under supervision, redial) the coordinator.
func WithWorkerDialPolicy(p DialPolicy) WorkerOption { return transport.WithWorkerDialPolicy(p) }

func registryBuilder(pipeline string, args []string) (*Env, error) {
	pipelinesMu.RLock()
	build, ok := pipelines[pipeline]
	pipelinesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pipeline %q not registered in this worker binary", pipeline)
	}
	return build(args)
}
