package streamline

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/transport"
)

// DefaultBatchSize is the exchange default, re-exported from the engine:
// records cross subtask boundaries in pooled batches of this many records.
const DefaultBatchSize = dataflow.DefaultBatchSize

// DefaultNumKeyGroups is the key-group count of plans that do not set
// WithNumKeyGroups — the granularity at which keyed state partitions,
// checkpoints and redistributes across rescales.
const DefaultNumKeyGroups = state.DefaultNumKeyGroups

// Env owns a pipeline under construction — the engine plan the typed
// operators lower onto — and its execution options. One Env builds one job.
type Env struct {
	graph       *dataflow.Graph
	parallelism int
	chaining    bool
	combiner    CombinerMode
	backend     state.Backend
	ckptEvery   time.Duration
	// buildErr is the first pipeline construction error; Execute returns it.
	buildErr error

	// job is the last local run; completed counts the checkpoints the runs
	// before it and every distributed run persisted (CompletedCheckpoints).
	job       *dataflow.Job
	completed int64

	// Distributed execution (WithWorkers and the options beside it).
	workers    int
	listenAddr string
	selfSpawn  bool
	pipeline   string
	pipeArgs   []string
	onListen   func(addr string)
	hbInterval time.Duration
	hbTimeout  time.Duration

	// supervise turns on WithSupervision; policy holds its budget, pacing
	// and rejoin window.
	supervise bool
	policy    transport.SupervisionPolicy

	// reg is the lazily created metrics registry (see Metrics); regOnce
	// guards its creation.
	reg     *metrics.Registry
	regOnce sync.Once

	// restartStats is the recovery trajectory of the last supervised run
	// (see RestartStats).
	restartStats []RestartStat

	clk clock.Clock // every run's job and supervisor clock; set by a test hook
}

// Option configures an Env at construction.
type Option func(*Env)

// CombinerMode controls automatic pre-aggregation before hash shuffles.
type CombinerMode uint8

const (
	// CombinerAuto samples the key distribution at runtime and enables
	// combining when it is profitable (the default).
	CombinerAuto CombinerMode = iota
	// CombinerOn always pre-aggregates.
	CombinerOn
	// CombinerOff never pre-aggregates (ablation baseline).
	CombinerOff
)

// Backend persists checkpoints for exactly-once recovery.
type Backend = state.Backend

// Snapshot is one completed checkpoint: every subtask's serialized state.
// Backends hand it back for recovery via Latest or Load.
type Snapshot = state.Snapshot

// WithParallelism sets the default operator parallelism. Zero (default)
// means "adapt to the architecture": the machine's CPU count, capped at 4.
func WithParallelism(p int) Option { return func(e *Env) { e.parallelism = p } }

// WithChaining toggles operator chaining (default on).
func WithChaining(on bool) Option { return func(e *Env) { e.chaining = on } }

// WithCombiner sets the combiner mode (default CombinerAuto).
func WithCombiner(m CombinerMode) Option { return func(e *Env) { e.combiner = m } }

// WithCheckpointing enables asynchronous barrier snapshots on the given
// backend at the given interval.
func WithCheckpointing(b Backend, every time.Duration) Option {
	return func(e *Env) { e.backend, e.ckptEvery = b, every }
}

// WithNumKeyGroups sets the plan's key-group count (default
// DefaultNumKeyGroups) — the unit of keyed-state partitioning and hash
// routing. Purely physical for results (identical at every value and any
// parallelism) but a plan constant for recovery: a checkpoint restores only
// into a plan with the same value. Pick it comfortably above the largest
// parallelism the job may ever rescale to and keep it.
func WithNumKeyGroups(n int) Option { return func(e *Env) { e.graph.NumKeyGroups = n } }

// WithBatchSize sets how many records the exchange layer stages per batch
// before shipping it across a subtask boundary (default 64). Bigger batches
// amortize channel hops and raise throughput; 1 degenerates to per-record
// exchange (the ablation baseline). Purely physical: the logical plan and
// its results are identical at every batch size.
func WithBatchSize(n int) Option { return func(e *Env) { e.graph.BatchSize = n } }

// NewMemoryBackend returns an in-memory checkpoint backend retaining the
// last `retain` snapshots (0 keeps all).
func NewMemoryBackend(retain int) Backend { return state.NewMemoryBackend(retain) }

// NewFileBackend returns a durable checkpoint backend persisting each
// snapshot as a file under dir (created if needed) — the backend to use
// when a job must survive process restarts or restore at a different
// parallelism in a new process. A file is in checkpoint format version 2,
// checksummed and synced to disk before Persist returns; a torn or corrupt
// newest file is skipped for the one before it. Checkpoints written before
// version 2 (version-1 chk-*.ckpt files and gob files, chk-*.gob) are
// refused with an "older checkpoint format" error: there is no converter,
// so such a job starts over, and its new checkpoints restore beside the old
// files whatever their ids.
func NewFileBackend(dir string) (Backend, error) { return state.NewFileBackend(dir) }

// New returns an empty pipeline environment.
func New(opts ...Option) *Env {
	e := &Env{graph: dataflow.NewGraph("streamline"), chaining: true}
	for _, o := range opts {
		o(e)
	}
	if e.parallelism <= 0 {
		// "adopted to ... the architecture": size to the machine.
		e.parallelism = min(runtime.NumCPU(), 4)
	}
	return e
}

// fail records a pipeline construction error; Execute returns the first.
func (e *Env) fail(err error) {
	if e.buildErr == nil {
		e.buildErr = err
	}
}

// Execute runs the pipeline to completion (bounded sources) or until the
// context is cancelled (unbounded sources). Where it runs is the Env's own
// configuration: in this process alone by default, across WithWorkers
// worker processes with this one as the coordinator, and self-healing under
// WithSupervision (see the package documentation). In a process spawned by
// WithSelfSpawn it runs that worker's share and exits.
func (e *Env) Execute(ctx context.Context) error { return e.execute(ctx, nil) }

// ExecuteRestored is Execute starting from a recovery snapshot: every
// operator and source subtask is handed its checkpointed state before
// processing. Rebuild the identical pipeline on a fresh Env — at any
// parallelism or worker count — then resume with the snapshot from the
// backend's Latest.
func (e *Env) ExecuteRestored(ctx context.Context, snap *Snapshot) error {
	return e.execute(ctx, snap)
}

// runLocal runs the plan in this process alone, from snap (nil: from
// scratch).
func (e *Env) runLocal(ctx context.Context, snap *Snapshot) error {
	opts := []dataflow.JobOption{dataflow.WithRestore(snap), dataflow.WithChaining(e.chaining), dataflow.WithClock(e.clk)}
	if e.backend != nil {
		opts = append(opts, dataflow.WithCheckpointing(e.backend, e.ckptEvery))
	}
	if e.job != nil {
		e.completed += e.job.CompletedCheckpoints()
	}
	e.job = dataflow.NewJob(e.graph, opts...)
	return e.job.Run(ctx)
}

// CompletedCheckpoints reports how many checkpoints this Env's runs
// persisted, every attempt of a supervised run and every distributed run
// included.
func (e *Env) CompletedCheckpoints() int64 {
	if e.job == nil {
		return e.completed
	}
	return e.completed + e.job.CompletedCheckpoints()
}

// Core returns a read-only view of the Env's plan and the options a job
// built from it runs with.
//
// Deprecated: the benchmark module (benchmark/insitu.go and
// benchmark/dist.go) and internal/bench's recover report still read the
// plan through it; the view goes when they stop.
func (e *Env) Core() *core.Environment {
	return core.View(e.graph, e.chaining, e.buildErr, e.backend, e.ckptEvery)
}
