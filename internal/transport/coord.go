package transport

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/metrics"
	"repro/internal/state"
)

// Default control-plane liveness settings: both sides ping every interval
// and declare the peer dead after a silent timeout. The timeout is several
// intervals so one delayed ping never kills a healthy epoch.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultHeartbeatTimeout  = 4 * time.Second
)

// Config describes one distributed run from the coordinator's side.
type Config struct {
	// Graph is the job to execute; the coordinator is participant 0 and
	// runs every pinned chain (sinks, live sources) itself.
	Graph    *dataflow.Graph
	Chaining bool
	// Workers is how many worker processes the run expects; the
	// coordinator waits for exactly that many hellos before planning.
	Workers int
	// Backend + Interval enable periodic checkpointing; the coordinator
	// persists assembled snapshots (workers never touch the backend).
	Backend  state.Backend
	Interval time.Duration
	// Restore, when set, starts every participant from this snapshot.
	Restore *state.Snapshot
	// Pipeline/Args are forwarded to generic workers so they can rebuild
	// the graph from their pipeline registry.
	Pipeline string
	Args     []string
	// Registry receives coordinator-side metrics; nil disables them.
	Registry *metrics.Registry
	// ListenAddr is the control-plane listen address ("" = ephemeral
	// loopback port; read it back via Addr).
	ListenAddr string
	// Listener, when non-nil, is used as the control listener instead of
	// binding ListenAddr — the hook fault-injection tests use to interpose
	// a chaos wrapper between workers and the coordinator.
	Listener net.Listener
	// HeartbeatInterval/HeartbeatTimeout override the control-plane
	// liveness defaults (zero: DefaultHeartbeat*).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
}

// heartbeat resolves the liveness settings, defaulting the timeout to four
// intervals when only the interval is set.
func (c Config) heartbeat() (interval, timeout time.Duration) {
	interval, timeout = c.HeartbeatInterval, c.HeartbeatTimeout
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	if timeout <= 0 {
		timeout = 4 * interval
		if c.HeartbeatInterval <= 0 {
			timeout = DefaultHeartbeatTimeout
		}
	}
	return interval, timeout
}

// listen binds the control listener: the injected one, the configured
// address, or an ephemeral loopback port.
func (c Config) listen() (net.Listener, error) {
	if c.Listener != nil {
		return c.Listener, nil
	}
	addr := c.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coordinator listen: %w", err)
	}
	return ln, nil
}

// wconn is the coordinator's handle on one worker's control connection.
type wconn struct {
	i        int
	conn     net.Conn
	dec      *gob.Decoder
	bw       *bufio.Writer
	enc      *gob.Encoder
	mu       sync.Mutex
	wto      time.Duration // write deadline per control send
	dataAddr string
	// done is set by the epoch's event loop and read by the heartbeat
	// pinger, hence atomic.
	done atomic.Bool
}

// newWorkerConn wraps a freshly accepted control connection and consumes
// its hello, which must arrive within the heartbeat timeout — a connection
// that dials and goes silent must not wedge the gather phase.
func newWorkerConn(i int, conn net.Conn, hbTimeout time.Duration) (*wconn, error) {
	w := &wconn{i: i, conn: conn, dec: gob.NewDecoder(conn), bw: bufio.NewWriter(conn), wto: hbTimeout}
	w.enc = gob.NewEncoder(w.bw)
	conn.SetReadDeadline(time.Now().Add(hbTimeout))
	var hello ctrlMsg
	if err := w.dec.Decode(&hello); err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	if hello.Kind != ctrlHello {
		return nil, fmt.Errorf("expected hello, got message kind %d", hello.Kind)
	}
	w.dataAddr = hello.Addr
	return w, nil
}

// send writes one control message under a write deadline: a wedged peer
// errors out instead of blocking the abort or barrier path indefinitely,
// and the error surfaces as a peer failure at the caller.
func (w *wconn) send(msg ctrlMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wto > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.wto))
	}
	if err := w.enc.Encode(msg); err != nil {
		return err
	}
	return w.bw.Flush()
}

func closeWorkers(ws []*wconn) {
	for _, w := range ws {
		w.conn.Close()
	}
}

// event is one occurrence on a worker control connection.
type event struct {
	i   int
	msg ctrlMsg
	err error
}

// epoch is one execution attempt over an established set of worker control
// connections: plan distribution, readiness barrier, checkpoint loop, and
// teardown. A Supervisor runs a fresh epoch (with a fresh restore snapshot
// and possibly different workers) after every failure it may restart.
type epoch struct {
	cfg     Config
	workers []*wconn
	restore *state.Snapshot
	// ckpts is the job's checkpoint coordinator, which outlives epochs: it
	// keeps counting across restarts, and each epoch resumes its ids.
	ckpts *dataflow.Checkpoints
	// supervised rides in the plan: workers report failures as rejoinable.
	// rejoinOnAbort rides in the abort stop: whether another epoch follows.
	supervised    bool
	rejoinOnAbort bool
	// onStarted fires once the epoch's producers are unleashed (readiness
	// barrier passed) — the "restored" instant of the MTTR measurement.
	onStarted func()
	// failedAt is when the epoch first observed its failure.
	failedAt time.Time
}

// run executes the epoch to completion or first failure. The worker
// connections stay open on return (the caller owns their lifecycle); on
// the abort path workers are told to stop, with the rejoin flag telling
// them whether a supervisor will run another epoch.
func (ep *epoch) run(ctx context.Context) error {
	g := ep.cfg.Graph
	W := len(ep.workers)
	reg := ep.cfg.Registry
	hbInterval, hbTimeout := ep.cfg.heartbeat()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The coordinator's own data plane (participant 0).
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("coordinator data listen: %w", err)
	}
	mesh := NewMesh(0, dataLn, g, reg)
	defer mesh.Close()

	addrs := map[int]string{0: mesh.Addr()}
	for _, w := range ep.workers {
		addrs[w.i] = w.dataAddr
	}
	spec := core.SpecOf(g, ep.cfg.Chaining)
	fp := spec.Fingerprint()
	placement := dataflow.ComputePlacement(g, ep.cfg.Chaining, W)
	for _, w := range ep.workers {
		plan := &planMsg{
			Self:              w.i,
			Workers:           W,
			Spec:              spec,
			Fingerprint:       fp,
			Placement:         placement,
			DataAddrs:         addrs,
			Restore:           ep.restore,
			Pipeline:          ep.cfg.Pipeline,
			Args:              ep.cfg.Args,
			HeartbeatInterval: hbInterval,
			HeartbeatTimeout:  hbTimeout,
			Supervised:        ep.supervised,
		}
		if err := w.send(ctrlMsg{Kind: ctrlPlan, Plan: plan}); err != nil {
			return fmt.Errorf("coordinator: send plan to worker %d: %w", w.i, err)
		}
	}

	// One reader per worker funnels control messages into the main loop.
	// Every Decode sits under a read deadline refreshed by any traffic —
	// heartbeats included — so a hung-but-open connection surfaces as a
	// timeout instead of stalling the job forever.
	events := make(chan event, 16)
	for _, w := range ep.workers {
		go func(w *wconn) {
			for {
				w.conn.SetReadDeadline(time.Now().Add(hbTimeout))
				var msg ctrlMsg
				if err := w.dec.Decode(&msg); err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						err = fmt.Errorf("heartbeat timeout (silent for %v)", hbTimeout)
					}
					select {
					case events <- event{i: w.i, err: err}:
					case <-ctx.Done():
					}
					return
				}
				if msg.Kind == ctrlPing {
					continue
				}
				select {
				case events <- event{i: w.i, msg: msg}:
				case <-ctx.Done():
					return
				}
				if msg.Kind == ctrlDone {
					return
				}
			}
		}(w)
	}
	// Heartbeats to the workers: a send error needs no handling here — the
	// worker's reader deadline expires on its own, and this coordinator's
	// reader sees the broken connection first anyway.
	go func() {
		t := time.NewTicker(hbInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				for _, w := range ep.workers {
					if !w.done.Load() {
						_ = w.send(ctrlMsg{Kind: ctrlPing})
					}
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// The coordinator's local share of the job.
	triggers := make(chan int64, 16)
	acks := make(chan dataflow.Ack, 256)
	running := make(chan struct{})
	opts := []dataflow.JobOption{dataflow.WithChaining(ep.cfg.Chaining)}
	if reg != nil {
		opts = append(opts, dataflow.WithMetrics(reg))
	}
	if ep.restore != nil {
		opts = append(opts, dataflow.WithRestore(ep.restore))
	}
	jb := dataflow.NewJob(g, opts...)
	jobDone := make(chan error, 1)
	go func() {
		err := jb.RunParticipant(ctx, &dataflow.Participation{
			Self:      0,
			Placement: placement,
			Transport: mesh,
			Triggers:  triggers,
			Acks:      acks,
			OnRunning: func() { close(running) },
		})
		if err == nil {
			// Flush remote Ends before the run counts as locally done.
			mesh.DrainOutbound()
		}
		jobDone <- err
	}()

	// Readiness barrier: every worker registered its inbound channels and
	// so did the local participant; only then may producers dial and ship.
	// A participant may legitimately finish during this phase (it was
	// assigned no subtasks, or only instantly-completing ones) — ready
	// always precedes done on an ordered control stream, so done here just
	// counts toward completion.
	readyLeft := W
	localRunning := false
	localDone := false
	doneWorkers := 0
	var failure error
	fail := func(err error) {
		if failure == nil {
			failure = err
			ep.failedAt = time.Now()
		}
	}
	workerEvent := func(ev event) {
		switch {
		case ev.err != nil:
			if ep.workers[ev.i-1].done.Load() {
				return // post-done EOF is the worker exiting; benign
			}
			fail(fmt.Errorf("worker %d control connection lost: %w", ev.i, ev.err))
		case ev.msg.Kind == ctrlReady:
			readyLeft--
		case ev.msg.Kind == ctrlDone:
			ep.workers[ev.i-1].done.Store(true)
			doneWorkers++
			if ev.msg.Err != "" {
				fail(fmt.Errorf("worker %d: %s", ev.i, ev.msg.Err))
			}
		}
	}
	for (readyLeft > 0 || !localRunning) && failure == nil {
		select {
		case <-running:
			localRunning = true
			running = nil
		case ev := <-events:
			workerEvent(ev)
		case err := <-jobDone:
			localRunning = true
			localDone = true
			jobDone = nil
			if err != nil {
				fail(fmt.Errorf("local participant failed during startup: %w", err))
			}
		case <-ctx.Done():
			fail(ctx.Err())
		}
	}
	if failure == nil {
		mesh.Start()
		for _, w := range ep.workers {
			if w.done.Load() {
				continue
			}
			if err := w.send(ctrlMsg{Kind: ctrlStart}); err != nil {
				fail(fmt.Errorf("coordinator: start worker %d: %w", w.i, err))
				break
			}
		}
	}
	if failure == nil {
		ep.onStarted()
	}

	// Checkpoints: every subtask of the whole job acks into one snapshot,
	// at most one in flight.
	ep.ckpts.Resume(ep.restore)
	var tick <-chan time.Time
	if ep.cfg.Backend != nil && ep.cfg.Interval > 0 && failure == nil {
		t := time.NewTicker(ep.cfg.Interval)
		defer t.Stop()
		tick = t.C
	}
	offer := func(a dataflow.Ack) {
		if err := ep.ckpts.Offer(a); err != nil {
			fail(err)
		}
	}

	meshFailed := mesh.Failed()
	for failure == nil && !(localDone && doneWorkers == W) {
		select {
		case <-tick:
			id, ok := ep.ckpts.Begin()
			if !ok {
				continue // previous checkpoint still assembling
			}
			select {
			case triggers <- id:
			case <-ctx.Done():
				fail(ctx.Err())
			}
			for _, w := range ep.workers {
				if !w.done.Load() {
					// A send error will surface as a reader event.
					_ = w.send(ctrlMsg{Kind: ctrlTrigger, Ckpt: id})
				}
			}
		case a := <-acks:
			offer(a)
		case ev := <-events:
			if ev.err == nil && ev.msg.Kind == ctrlAck && ev.msg.Ack != nil {
				offer(*ev.msg.Ack)
				continue
			}
			workerEvent(ev)
		case err := <-jobDone:
			localDone = true
			jobDone = nil
			if err != nil {
				fail(err)
			}
		case <-meshFailed:
			meshFailed = nil // closed channel; fire once
			fail(mesh.Err())
		case <-ctx.Done():
			fail(ctx.Err())
		}
	}

	if failure != nil {
		cancel()
		for _, w := range ep.workers {
			if !w.done.Load() {
				_ = w.send(ctrlMsg{Kind: ctrlStop, Err: failure.Error(), Rejoin: ep.rejoinOnAbort})
			}
		}
		if !localDone {
			<-jobDone
		}
		return failure
	}
	// Global success: confirm completion (workers are already exiting on
	// their own; the stop is informational and errors are irrelevant).
	for _, w := range ep.workers {
		_ = w.send(ctrlMsg{Kind: ctrlStop})
	}
	return nil
}
