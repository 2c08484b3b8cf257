package dataflow

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/state"
)

// runParticipants executes graphs[i] as participant i (0 = coordinator) over
// a shared in-process ChanTransport, with the coordinator's checkpoint loop
// in miniature: every interval, begin a checkpoint on the job's Checkpoints,
// trigger every participant's sources with it, and offer it every ack. Each
// participant needs its own Graph instance (operator factories and sinks are
// per-job), all built identically — the SPMD contract. partCtx, when
// non-nil, supplies a private context for one participant (the kill tests
// cancel it).
func runParticipants(ctx context.Context, graphs []*Graph, backend state.Backend, interval time.Duration, restore *state.Snapshot, partCtx func(i int) context.Context) []error {
	workers := len(graphs) - 1
	placement := ComputePlacement(graphs[0], true, workers)
	tr := NewChanTransport()
	acks := make(chan Ack, 256)
	triggers := make([]chan int64, len(graphs))
	errs := make([]error, len(graphs))
	running := make(chan struct{}, len(graphs))

	cctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	var wg sync.WaitGroup
	for i := range graphs {
		triggers[i] = make(chan int64, 4)
		opts := []JobOption{WithChaining(true)}
		if restore != nil {
			opts = append(opts, WithRestore(restore))
		}
		jb := NewJob(graphs[i], opts...)
		wg.Add(1)
		go func(i int, jb *Job) {
			defer wg.Done()
			pctx := cctx
			if partCtx != nil {
				if c := partCtx(i); c != nil {
					pctx = c
				}
			}
			errs[i] = jb.RunParticipant(pctx, &Participation{
				Self:      i,
				Placement: placement,
				Transport: tr,
				Triggers:  triggers[i],
				Acks:      acks,
				OnRunning: func() { running <- struct{}{} },
			})
			if errs[i] != nil {
				// Any participant failing aborts the whole job, exactly as
				// the real coordinator treats a lost worker.
				cancelAll()
			}
		}(i, jb)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	if backend != nil && interval > 0 {
		go func() {
			for n := 0; n < len(graphs); n++ {
				select {
				case <-running:
				case <-done:
					return
				case <-cctx.Done():
					return
				}
			}
			ckpts := NewCheckpoints(graphs[0], backend, nil, nil)
			ckpts.Resume(restore)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					id, ok := ckpts.Begin()
					if !ok {
						continue
					}
					for i := range triggers {
						select {
						case triggers[i] <- id:
						case <-done:
							return
						case <-cctx.Done():
							return
						}
					}
				case a := <-acks:
					ckpts.Offer(a)
				case <-done:
					return
				case <-cctx.Done():
					return
				}
			}
		}()
	}
	<-done
	return errs
}

// pinSink marks the named node pinned so placement keeps it on the
// coordinator participant — what core's sink constructors do automatically.
func pinSink(g *Graph, name string) {
	for _, n := range g.Nodes() {
		if n.Name == name {
			n.Pinned = true
		}
	}
}

// TestParticipantsMatchSingleProcess splits the recovery pipeline across a
// coordinator and two workers over the in-process transport and requires
// results identical to the single-job run — distribution must be purely
// physical.
func TestParticipantsMatchSingleProcess(t *testing.T) {
	const n = 6000
	refSink := &CollectSink{}
	run(t, buildRecoveryGraph(n, 0, refSink))
	want := collectWindows(t, refSink)
	if len(want) == 0 {
		t.Fatalf("reference run produced no windows")
	}

	distSink := &CollectSink{}
	graphs := make([]*Graph, 3)
	for i := range graphs {
		sink := &CollectSink{}
		if i == 0 {
			sink = distSink
		}
		graphs[i] = buildRecoveryGraph(n, 0, sink)
		pinSink(graphs[i], "sink")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, err := range runParticipants(ctx, graphs, nil, 0, nil, nil) {
		if err != nil {
			t.Fatalf("participant %d failed: %v", i, err)
		}
	}
	got := collectWindows(t, distSink)
	if len(got) != len(want) {
		t.Fatalf("distributed run produced %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v", k, got[k], v)
		}
	}
}

// TestParticipantRescaleRecovery kills one worker participant of a
// checkpointing three-participant run and restores the snapshot into a
// four-participant job whose keyed operator also rescaled 2 -> 3 — keyed
// state redistributes by key group across both the new parallelism and the
// new worker count, preserving exactly-once window sums.
func TestParticipantRescaleRecovery(t *testing.T) {
	const n = 6000
	refSink := &CollectSink{}
	run(t, buildRecoveryGraph(n, 0, refSink))
	want := collectWindows(t, refSink)

	backend := state.NewMemoryBackend(0)
	crashSink := &CollectSink{}
	crashGraphs := make([]*Graph, 3)
	for i := range crashGraphs {
		sink := &CollectSink{}
		if i == 0 {
			sink = crashSink
		}
		crashGraphs[i] = buildRecoveryGraphAt(n, 10_000, sink, 2)
		pinSink(crashGraphs[i], "sink")
	}
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	// Kill worker 2 as soon as the first checkpoint lands.
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
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := runParticipants(ctx, crashGraphs, backend, 15*time.Millisecond, nil, func(i int) context.Context {
		if i == 2 {
			return victimCtx
		}
		return nil
	})
	snap, ok, _ := backend.Latest()
	if !ok {
		t.Skip("no checkpoint completed before the kill on this machine")
	}
	failed := false
	for _, err := range errs {
		failed = failed || err != nil
	}
	if !failed {
		t.Skip("job finished before the kill on this machine")
	}

	resumeSink := &CollectSink{}
	resumeGraphs := make([]*Graph, 4)
	for i := range resumeGraphs {
		sink := &CollectSink{}
		if i == 0 {
			sink = resumeSink
		}
		resumeGraphs[i] = buildRecoveryGraphAt(n, 0, sink, 3)
		pinSink(resumeGraphs[i], "sink")
	}
	for i, err := range runParticipants(ctx, resumeGraphs, nil, 0, snap, nil) {
		if err != nil {
			t.Fatalf("restored participant %d failed: %v", i, err)
		}
	}
	got := collectWindows(t, crashSink)
	for k, v := range collectWindows(t, resumeSink) {
		got[k] = v
	}
	if len(got) != len(want) {
		t.Fatalf("restored run produced %d windows, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %+v = %v, want %v (exactly-once across the rescaled restore)", k, got[k], v)
		}
	}
}
