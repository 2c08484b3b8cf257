package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/dataflow"
	"repro/internal/metrics"
)

// ErrRejoin marks a worker failure that is part of a supervised job's epoch
// restart rather than the end of the job: the coordinator's supervisor is
// about to run another epoch and this worker should redial. RunWorkerLoop
// (which streamline.RunWorker runs) does exactly that; callers driving
// RunWorker directly test for it with errors.Is.
var ErrRejoin = errors.New("transport: supervised epoch ended, worker should rejoin")

// BuildFunc rebuilds the pipeline graph inside a worker process. SPMD:
// the wire cannot carry operator closures, so the worker constructs the
// graph from code — from a pipeline registry keyed by the plan's pipeline
// name, or (self-spawned workers) by re-running the exact construction the
// parent ran. It returns the graph and the chaining flag, both of which
// must reproduce the coordinator's plan bit for bit.
type BuildFunc func(pipeline string, args []string) (*dataflow.Graph, bool, error)

// WorkerOption configures RunWorker / RunWorkerLoop (streamline.WorkerOption
// is this type).
type WorkerOption func(*workerOpts)

type workerOpts struct {
	dial DialPolicy
	clk  clock.Clock // dial pauses, the rejoin beat and the job's clock; set only by tests
}

// WithWorkerDialPolicy sets the backoff policy for dialing (and, under
// supervision, redialing) the coordinator.
func WithWorkerDialPolicy(p DialPolicy) WorkerOption {
	return func(o *workerOpts) { o.dial = p }
}

func resolveWorkerOpts(opts []WorkerOption) workerOpts {
	var o workerOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// RunWorker executes one worker's share of a distributed job: dial the
// coordinator (with retry/backoff), receive the plan, rebuild the graph,
// verify the fingerprint, run the assigned subtasks with a TCP mesh
// carrying the cross-participant edges, and stream checkpoint acks back.
// It returns when the share completes (nil), the coordinator aborts or
// disappears, or ctx is cancelled. Under a supervised coordinator, any
// failure that is part of an epoch restart wraps ErrRejoin. reg may be nil
// to disable metrics.
func RunWorker(ctx context.Context, coordAddr string, reg *metrics.Registry, build BuildFunc, opts ...WorkerOption) error {
	RegisterTypes()
	o := resolveWorkerOpts(opts)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	conn, err := DialRetry(ctx, o.clk, coordAddr, o.dial)
	if err != nil {
		return fmt.Errorf("worker: dial coordinator: %w", err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	var sendMu sync.Mutex
	// Until the plan arrives the write deadline is the dial policy's
	// conservative default; the plan's heartbeat timeout takes over after.
	wto := atomic.Int64{}
	wto.Store(int64(DefaultHeartbeatTimeout))
	send := func(msg ctrlMsg) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(time.Duration(wto.Load())))
		if err := enc.Encode(msg); err != nil {
			return err
		}
		return bw.Flush()
	}
	dec := gob.NewDecoder(conn)

	// The data listener binds before the graph exists so its address can
	// ride in the hello; the mesh adopts it once the plan arrives.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("worker: data listen: %w", err)
	}
	if err := send(ctrlMsg{Kind: ctrlHello, Addr: ln.Addr().String()}); err != nil {
		ln.Close()
		return fmt.Errorf("worker: hello: %w", err)
	}
	var planEnv ctrlMsg
	if err := dec.Decode(&planEnv); err != nil {
		ln.Close()
		return fmt.Errorf("worker: receive plan: %w", err)
	}
	if planEnv.Kind != ctrlPlan || planEnv.Plan == nil {
		ln.Close()
		return fmt.Errorf("worker: expected plan, got message kind %d", planEnv.Kind)
	}
	p := planEnv.Plan
	hbInterval, hbTimeout := p.HeartbeatInterval, p.HeartbeatTimeout
	if hbInterval <= 0 {
		hbInterval = DefaultHeartbeatInterval
	}
	if hbTimeout <= 0 {
		hbTimeout = DefaultHeartbeatTimeout
	}
	wto.Store(int64(hbTimeout))
	// noRejoin latches when the coordinator's stop says the job is over
	// (success, or a supervisor whose restart budget is exhausted).
	var noRejoin atomic.Bool

	// Refuse to run rather than exchange streams against a different plan:
	// a fingerprint mismatch means divergent binaries or arguments.
	abort := func(err error) error {
		_ = send(ctrlMsg{Kind: ctrlDone, Err: err.Error()})
		ln.Close()
		return err
	}
	g, chaining, err := build(p.Pipeline, p.Args)
	if err != nil {
		return abort(fmt.Errorf("worker: build pipeline %q: %w", p.Pipeline, err))
	}
	if fp := dataflow.SpecOf(g, chaining).Fingerprint(); fp != p.Fingerprint {
		return abort(fmt.Errorf("worker: plan fingerprint mismatch: local %.12s vs coordinator %.12s", fp, p.Fingerprint))
	}

	mesh := NewMesh(p.Self, ln, g, reg)
	defer mesh.Close()
	mesh.SetPeers(p.DataAddrs)

	triggers := make(chan int64, 16)
	acks := make(chan dataflow.Ack, 256)

	opts2 := []dataflow.JobOption{dataflow.WithChaining(chaining), dataflow.WithClock(o.clk)}
	if reg != nil {
		opts2 = append(opts2, dataflow.WithMetrics(reg))
	}
	if p.Restore != nil {
		opts2 = append(opts2, dataflow.WithRestore(p.Restore))
	}
	jb := dataflow.NewJob(g, opts2...)

	// Control reader: start opens the dial gate, triggers inject barriers,
	// stop (or a dropped connection) cancels the local share. Every Decode
	// sits under a read deadline refreshed by any control traffic — the
	// coordinator pings every interval, so a silent stream past the
	// timeout means the coordinator is gone or the path is blackholed.
	ctrlErr := make(chan error, 1)
	go func() {
		for {
			conn.SetReadDeadline(time.Now().Add(hbTimeout))
			var msg ctrlMsg
			if err := dec.Decode(&msg); err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					err = fmt.Errorf("heartbeat timeout (silent for %v)", hbTimeout)
				}
				ctrlErr <- fmt.Errorf("worker: coordinator connection lost: %w", err)
				cancel()
				return
			}
			switch msg.Kind {
			case ctrlStart:
				mesh.Start()
			case ctrlTrigger:
				select {
				case triggers <- msg.Ckpt:
				case <-ctx.Done():
					return
				}
			case ctrlStop:
				if !msg.Rejoin {
					noRejoin.Store(true)
				}
				if msg.Err != "" {
					ctrlErr <- fmt.Errorf("worker: stopped by coordinator: %s", msg.Err)
				} else {
					ctrlErr <- nil
				}
				cancel()
				return
			}
		}
	}()
	// Heartbeats to the coordinator; its reader deadline handles a dead us,
	// so send errors need no reaction here beyond stopping.
	go func() {
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := send(ctrlMsg{Kind: ctrlPing}); err != nil {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	// Ack pump: local subtask acknowledgements stream to the coordinator.
	go func() {
		for {
			select {
			case a := <-acks:
				if err := send(ctrlMsg{Kind: ctrlAck, Ack: &a}); err != nil {
					cancel()
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	// A broken data plane is a job failure even while control is healthy.
	go func() {
		select {
		case <-mesh.Failed():
			cancel()
		case <-ctx.Done():
		}
	}()

	runErr := jb.RunParticipant(ctx, &dataflow.Participation{
		Self:      p.Self,
		Placement: p.Placement,
		Transport: mesh,
		Triggers:  triggers,
		Acks:      acks,
		OnRunning: func() { _ = send(ctrlMsg{Kind: ctrlReady}) },
	})
	if runErr == nil {
		// Flush the remote Ends before reporting done.
		mesh.DrainOutbound()
	}
	// Prefer the specific cause over a bare context.Canceled.
	if merr := mesh.Err(); merr != nil && (runErr == nil || runErr == context.Canceled) {
		runErr = merr
	}
	select {
	case cerr := <-ctrlErr:
		if cerr != nil && (runErr == nil || runErr == context.Canceled) {
			runErr = cerr
		}
	default:
	}
	msg := ""
	if runErr != nil {
		msg = runErr.Error()
	}
	_ = send(ctrlMsg{Kind: ctrlDone, Err: msg})
	if runErr != nil && p.Supervised && !noRejoin.Load() && parent.Err() == nil {
		// The failure belongs to a supervised epoch and the coordinator did
		// not declare the job over: the caller's loop should redial. A
		// caller-cancelled context is this worker being shut down, never a
		// rejoin — checked via the parent, since our derived ctx is
		// cancelled on every exit path.
		runErr = fmt.Errorf("%w: %v", ErrRejoin, runErr)
	}
	return runErr
}

// RunWorkerLoop serves a supervised job across epochs: it runs RunWorker
// and redials the coordinator whenever the share ends with ErrRejoin — a
// worker that survived another worker's crash rejoins the recovered epoch.
// It returns when the job globally completes (nil), fails terminally, or
// ctx is cancelled. Under an unsupervised coordinator no failure wraps
// ErrRejoin, so it returns with its first share.
func RunWorkerLoop(ctx context.Context, coordAddr string, reg *metrics.Registry, build BuildFunc, opts ...WorkerOption) error {
	clk := resolveWorkerOpts(opts).clk
	for {
		err := RunWorker(ctx, coordAddr, reg, build, opts...)
		if err == nil || !errors.Is(err, ErrRejoin) {
			return err
		}
		// Give the supervisor a beat to tear the failed epoch down;
		// DialRetry's backoff absorbs the rest of its restart delay.
		if clock.Sleep(ctx, clk, 10*time.Millisecond) != nil {
			return err
		}
	}
}
