package transport

import (
	"context"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"repro/internal/clock"
)

// helloConn is a control connection whose peer has sent its hello.
func helloConn(t *testing.T) net.Conn {
	ours, theirs := net.Pipe()
	go gob.NewEncoder(theirs).Encode(ctrlMsg{Kind: ctrlHello, Addr: "127.0.0.1:1"})
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	return ours
}

// TestDegradedGatherReturnsAtRejoinWindow: a recovering epoch that one of
// its two workers rejoined returns with that one exactly when RejoinWindow
// has passed on the supervisor's clock. One nanosecond before, it is still
// gathering and takes a second worker that arrives then.
func TestDegradedGatherReturnsAtRejoinWindow(t *testing.T) {
	const window = 3 * time.Second
	type result struct {
		workers int
		err     error
		at      time.Duration // on the supervisor's clock, from the gather's start
	}
	start := func() (*clock.Manual, chan net.Conn, chan result) {
		clk := clock.NewManual(time.Unix(0, 0))
		s := &Supervisor{cfg: Config{Workers: 2, Clock: clk}, pol: SupervisionPolicy{RejoinWindow: window}.withDefaults()}
		conns, res := make(chan net.Conn), make(chan result, 1)
		go func() {
			ws, err := s.gather(context.Background(), conns, true)
			closeWorkers(ws)
			res <- result{len(ws), err, clk.Now().Sub(time.Unix(0, 0))}
		}()
		conns <- helloConn(t) // the one worker that rejoins
		return clk, conns, res
	}

	clk, _, res := start()
	clk.Advance(window)
	select {
	case r := <-res:
		if r.err != nil || r.workers != 1 || r.at != window {
			t.Fatalf("degraded gather returned %d workers, err %v, at %v; want 1 worker at %v", r.workers, r.err, r.at, window)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("degraded gather did not return at the rejoin window")
	}

	clk, conns, res := start()
	clk.Advance(window - 1)
	select {
	case r := <-res:
		t.Fatalf("degraded gather returned %d workers at %v, before the %v rejoin window", r.workers, r.at, window)
	case conns <- helloConn(t):
	}
	if r := <-res; r.err != nil || r.workers != 2 {
		t.Fatalf("gather returned %d workers, err %v; want both", r.workers, r.err)
	}
}
