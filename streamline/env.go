package streamline

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/state"
)

// DefaultBatchSize is the exchange default, re-exported from the engine:
// records cross subtask boundaries in pooled batches of this many records.
const DefaultBatchSize = dataflow.DefaultBatchSize

// DefaultNumKeyGroups is the key-group count of plans that do not set
// WithNumKeyGroups — the granularity at which keyed state partitions,
// checkpoints and redistributes across rescales.
const DefaultNumKeyGroups = state.DefaultNumKeyGroups

// Env owns a pipeline under construction and its execution options. It is a
// thin typed veneer over core.Environment; one Env builds one job.
type Env struct {
	core *core.Environment

	// reg is the lazily created metrics registry (see Metrics); regOnce
	// guards its creation.
	reg     *metrics.Registry
	regOnce sync.Once

	// restartStats is the recovery trajectory of the last supervised run
	// (see RestartStats).
	restartStats []RestartStat
}

// Option configures an Env at construction.
type Option = core.Option

// CombinerMode controls automatic pre-aggregation before hash shuffles.
type CombinerMode = core.CombinerMode

// Combiner modes, re-exported so pipelines need only this package.
const (
	// CombinerAuto samples the key distribution at runtime and enables
	// combining when it is profitable (the default).
	CombinerAuto = core.CombinerAuto
	// CombinerOn always pre-aggregates.
	CombinerOn = core.CombinerOn
	// CombinerOff never pre-aggregates (ablation baseline).
	CombinerOff = core.CombinerOff
)

// Backend persists checkpoints for exactly-once recovery.
type Backend = state.Backend

// Snapshot is one completed checkpoint: every subtask's serialized state.
// Backends hand it back for recovery via Latest or Load.
type Snapshot = state.Snapshot

// WithParallelism sets the default operator parallelism. Zero (default)
// means "adapt to the architecture": the machine's CPU count, capped at 4.
func WithParallelism(p int) Option { return core.WithParallelism(p) }

// WithChaining toggles operator chaining (default on).
func WithChaining(on bool) Option { return core.WithChaining(on) }

// WithCombiner sets the combiner mode (default CombinerAuto).
func WithCombiner(m CombinerMode) Option { return core.WithCombiner(m) }

// WithCheckpointing enables asynchronous barrier snapshots on the given
// backend at the given interval.
func WithCheckpointing(b Backend, every time.Duration) Option {
	return core.WithCheckpointing(b, every)
}

// WithNumKeyGroups sets the plan's key-group count (default
// DefaultNumKeyGroups) — the unit of keyed-state partitioning and hash
// routing. Purely physical for results (identical at every value and any
// parallelism) but a plan constant for recovery: a checkpoint restores only
// into a plan with the same value. Pick it comfortably above the largest
// parallelism the job may ever rescale to and keep it.
func WithNumKeyGroups(n int) Option { return core.WithNumKeyGroups(n) }

// WithBatchSize sets how many records the exchange layer stages per batch
// before shipping it across a subtask boundary (default 64). Bigger batches
// amortize channel hops and raise throughput; 1 degenerates to per-record
// exchange (the ablation baseline). Purely physical: the logical plan and
// its results are identical at every batch size.
func WithBatchSize(n int) Option { return core.WithBatchSize(n) }

// NewMemoryBackend returns an in-memory checkpoint backend retaining the
// last `retain` snapshots (0 keeps all).
func NewMemoryBackend(retain int) Backend { return state.NewMemoryBackend(retain) }

// NewFileBackend returns a durable checkpoint backend persisting each
// snapshot as a file under dir (created if needed) — the backend to use
// when a job must survive process restarts or restore at a different
// parallelism in a new process. A file is in checkpoint format version 1,
// checksummed and synced to disk before Persist returns; a torn or corrupt
// newest file is skipped for the one before it. Checkpoints written before
// version 1 (gob files, chk-*.gob) are refused with an "older checkpoint
// format" error: there is no converter, so such a job starts over, and its
// new checkpoints restore beside the old files whatever their ids.
func NewFileBackend(dir string) (Backend, error) { return state.NewFileBackend(dir) }

// New returns an empty pipeline environment.
func New(opts ...Option) *Env {
	return &Env{core: core.NewEnvironment(opts...)}
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

// CompletedCheckpoints reports how many checkpoints this Env's runs
// persisted, every attempt of a supervised run included.
func (e *Env) CompletedCheckpoints() int64 { return e.core.CompletedCheckpoints() }

// Core exposes the untyped lowering environment this Env builds onto —
// the escape hatch for diagnostics, plan inspection, and tests that
// compare typed plans against hand-built untyped ones.
func (e *Env) Core() *core.Environment { return e.core }
