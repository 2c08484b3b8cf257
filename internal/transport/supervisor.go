package transport

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/state"
)

// SupervisionPolicy bounds and paces a Supervisor's restarts.
type SupervisionPolicy struct {
	// Unsupervised runs the job once: no restart, the failure returned as
	// it is, and workers told that their failures end the job.
	Unsupervised bool
	// MaxRestarts is the restart budget: how many failed epochs may be
	// retried before the last error surfaces (default 5; negative: none).
	MaxRestarts int
	// BaseBackoff is the delay before the first restart, doubling per
	// consecutive restart up to MaxBackoff, with equal jitter (defaults
	// 100ms / 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RejoinWindow is how long a recovering epoch waits for the full
	// worker complement before degrading to whoever has rejoined
	// (default 3s). Only external workers degrade; self-spawn mode
	// respawns the full complement instead.
	RejoinWindow time.Duration
	// MinWorkers is the floor below which a degraded epoch will not start
	// (default 1): the rejoin window keeps waiting until at least this
	// many workers are connected.
	MinWorkers int
}

func (p SupervisionPolicy) withDefaults() SupervisionPolicy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 5
	}
	if p.MaxRestarts < 0 || p.Unsupervised {
		p.MaxRestarts = 0
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.RejoinWindow <= 0 {
		p.RejoinWindow = 3 * time.Second
	}
	if p.MinWorkers <= 0 {
		p.MinWorkers = 1
	}
	return p
}

// RestartStat records one restart attempt: from the instant the coordinator
// detected the failure to the instant the recovered epoch's producers were
// unleashed. Downtime is the detect→restored MTTR term. An attempt that
// failed before it passed its readiness barrier restored nothing: its
// RestoredAt, Downtime and Workers are zero.
type RestartStat struct {
	// Attempt is the 1-based restart number.
	Attempt int
	// Cause is the failure that ended the previous epoch.
	Cause string
	// FailedAt is when the coordinator first observed the failure;
	// RestoredAt is when the recovered epoch passed its readiness barrier.
	FailedAt   time.Time
	RestoredAt time.Time
	Downtime   time.Duration
	// Workers is the recovered epoch's worker count — smaller than the
	// original complement when the epoch degraded onto survivors.
	Workers int
	// Checkpoint is the snapshot id the epoch restored from (0: restarted
	// from scratch, no checkpoint had completed yet).
	Checkpoint int64
}

// Supervisor runs every job that is distributed, supervised or both. It
// owns a control listener that outlives epochs, runs the job as a sequence
// of epochs, and on failure reloads the last completed checkpoint from the
// backend and relaunches — respawning its workers (self-spawn
// mode, Spawn set) or re-placing the dead worker's subtasks onto whoever
// redials within the rejoin window (graceful degradation; restore works at
// any worker count). Restarts are spaced by capped exponential backoff with
// jitter and bounded by the policy's restart budget; an Unsupervised policy
// runs exactly one epoch. A local Supervisor (NewLocalSupervisor) runs the
// same restart loop over in-process attempts and binds no socket.
type Supervisor struct {
	cfg Config
	pol SupervisionPolicy
	ln  net.Listener
	// local, when set, runs one in-process attempt in place of an epoch.
	local func(ctx context.Context, restore *state.Snapshot) error

	// Spawn, when set, (re)launches the full worker complement dialing
	// addr — the self-spawn hook. It is invoked before every epoch's
	// gather; Reap, when set, first waits out the previous epoch's
	// processes so respawn never doubles the complement.
	Spawn func(ctx context.Context, addr string, n int) error
	Reap  func()

	ckpts *dataflow.Checkpoints // nil for a local Supervisor: its runs count their own
	mu    sync.Mutex
	stats []RestartStat
}

// NewSupervisor binds the control listener (or adopts cfg.Listener) so
// workers can dial before Run is entered.
func NewSupervisor(cfg Config, pol SupervisionPolicy) (*Supervisor, error) {
	ln, err := cfg.listen()
	if err != nil {
		return nil, err
	}
	ckpts := dataflow.NewCheckpoints(cfg.Graph, cfg.Backend, cfg.Registry)
	return &Supervisor{cfg: cfg, pol: pol.withDefaults(), ln: ln, ckpts: ckpts}, nil
}

// NewLocalSupervisor supervises a job that runs in this process alone: run
// executes one attempt from restore (nil: from scratch), and a restart
// resumes from the newest checkpoint in backend. It binds no socket and has
// no Addr.
func NewLocalSupervisor(pol SupervisionPolicy, backend state.Backend, restore *state.Snapshot, run func(ctx context.Context, restore *state.Snapshot) error) *Supervisor {
	return &Supervisor{cfg: Config{Backend: backend, Restore: restore}, pol: pol.withDefaults(), local: run}
}

// Addr returns the control-plane address workers dial (and redial).
func (s *Supervisor) Addr() string { return s.ln.Addr().String() }

// CompletedCheckpoints reports how many snapshots all epochs persisted.
func (s *Supervisor) CompletedCheckpoints() int64 {
	if s.ckpts == nil {
		return 0
	}
	return s.ckpts.Completed()
}

// Stats returns one entry per restart attempt, in order: an attempt is
// listed once it has restored or ended, so the entries agree with the
// restart budget.
func (s *Supervisor) Stats() []RestartStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RestartStat, len(s.stats))
	copy(out, s.stats)
	return out
}

// Run executes the job until global success (nil), a cancelled context, a
// failed unsupervised epoch, or an exhausted restart budget (the last
// epoch's error, wrapped).
func (s *Supervisor) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	try := s.runLocal
	if s.local == nil {
		RegisterTypes()
		try = s.epochs(ctx)
		defer s.ln.Close()
	}

	restore := s.cfg.Restore
	var lastErr error
	var failedAt time.Time
	for attempt := 0; ; attempt++ {
		// Each recovery resumes from the newest completed checkpoint —
		// possibly one persisted by the attempt that just failed.
		if attempt > 0 && s.cfg.Backend != nil {
			if snap, ok, err := s.cfg.Backend.Latest(); err == nil && ok {
				restore = snap
			}
		}
		// A recovery is complete the instant the new attempt's producers
		// run; record the trajectory then, or when the attempt ends if it
		// failed before it got that far.
		stat := RestartStat{Attempt: attempt, FailedAt: failedAt}
		recorded := attempt == 0 // the first run is no restart
		record := func() {
			if !recorded {
				recorded = true
				s.mu.Lock()
				s.stats = append(s.stats, stat)
				s.mu.Unlock()
			}
		}
		if attempt > 0 {
			stat.Cause = lastErr.Error()
			if restore != nil {
				stat.Checkpoint = restore.CheckpointID
			}
		}
		restored := func(workers int) {
			stat.Workers, stat.RestoredAt = workers, time.Now()
			stat.Downtime = stat.RestoredAt.Sub(stat.FailedAt)
			record()
		}
		var err error
		failedAt, err = try(ctx, attempt, restore, restored)
		record()
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || s.pol.Unsupervised {
			return err
		}
		if attempt >= s.pol.MaxRestarts {
			return fmt.Errorf("supervision: restart budget (%d) exhausted: %w", s.pol.MaxRestarts, err)
		}
		select {
		case <-time.After(backoffDelay(s.pol, attempt)):
		case <-ctx.Done():
			return err
		}
	}
}

// runLocal is one attempt of a local Supervisor; its producers count as
// running the moment it starts.
func (s *Supervisor) runLocal(ctx context.Context, _ int, restore *state.Snapshot, restored func(workers int)) (time.Time, error) {
	restored(0)
	err := s.local(ctx, restore)
	return time.Now(), err
}

// epochs starts the accept pump and returns the attempt function that runs
// one epoch over the connections it delivers. The pump outlives epochs:
// survivors and respawned workers redial the same address while the failed
// epoch is still unwinding.
func (s *Supervisor) epochs(ctx context.Context) func(context.Context, int, *state.Snapshot, func(int)) (time.Time, error) {
	conns := make(chan net.Conn)
	go func() { <-ctx.Done(); s.ln.Close() }()
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			select {
			case conns <- conn:
			case <-ctx.Done():
				conn.Close()
				return
			}
		}
	}()
	return func(ctx context.Context, attempt int, restore *state.Snapshot, restored func(int)) (time.Time, error) {
		if s.Spawn != nil {
			if s.Reap != nil && attempt > 0 {
				s.Reap()
			}
			if err := s.Spawn(ctx, s.Addr(), s.cfg.Workers); err != nil {
				return time.Now(), err
			}
		}
		// Degradation applies only to recovering epochs with external
		// workers: attempt 0 and self-spawn mode wait for full strength.
		workers, err := s.gather(ctx, conns, attempt > 0 && s.Spawn == nil)
		if err != nil {
			return time.Now(), err
		}
		defer closeWorkers(workers)
		ep := &epoch{
			cfg:           s.cfg,
			workers:       workers,
			restore:       restore,
			ckpts:         s.ckpts,
			supervised:    !s.pol.Unsupervised,
			rejoinOnAbort: attempt < s.pol.MaxRestarts,
			onStarted:     func() { restored(len(workers)) },
		}
		err = ep.run(ctx)
		return ep.failedAt, err
	}
}

// gather collects the epoch's worker connections from the accept pump. At
// full strength it waits for cfg.Workers hellos; a degraded gather returns
// whoever rejoined once the rejoin window expires, as long as the policy's
// MinWorkers floor is met. Connections whose hello never arrives or is
// malformed are dropped, not fatal — a half-dead worker must not kill the
// job its replacement is joining.
func (s *Supervisor) gather(ctx context.Context, conns chan net.Conn, degrade bool) ([]*wconn, error) {
	_, hbTimeout := s.cfg.heartbeat()
	var window <-chan time.Time
	if degrade {
		window = time.After(s.pol.RejoinWindow)
	}
	var ws []*wconn
	for len(ws) < s.cfg.Workers {
		var expired <-chan time.Time
		if degrade && len(ws) >= s.pol.MinWorkers {
			expired = window
		}
		select {
		case conn := <-conns:
			w, err := newWorkerConn(len(ws)+1, conn, hbTimeout)
			if err != nil {
				conn.Close()
				continue
			}
			ws = append(ws, w)
		case <-expired:
			return ws, nil
		case <-ctx.Done():
			closeWorkers(ws)
			return nil, ctx.Err()
		}
	}
	return ws, nil
}

// backoffDelay is the pause before restart attempt+1: capped exponential
// with equal jitter.
func backoffDelay(p SupervisionPolicy, attempt int) time.Duration {
	d := p.BaseBackoff << uint(attempt)
	if d <= 0 || d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
