package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestConfigHeartbeatDefaults(t *testing.T) {
	if i, to := (Config{}).heartbeat(); i != DefaultHeartbeatInterval || to != DefaultHeartbeatTimeout {
		t.Fatalf("zero config = (%v, %v), want defaults (%v, %v)", i, to, DefaultHeartbeatInterval, DefaultHeartbeatTimeout)
	}
	if i, to := (Config{HeartbeatInterval: 50 * time.Millisecond}).heartbeat(); i != 50*time.Millisecond || to != 200*time.Millisecond {
		t.Fatalf("interval-only config = (%v, %v), want (50ms, 200ms)", i, to)
	}
	if i, to := (Config{HeartbeatInterval: time.Second, HeartbeatTimeout: 3 * time.Second}).heartbeat(); i != time.Second || to != 3*time.Second {
		t.Fatalf("explicit config = (%v, %v), want (1s, 3s)", i, to)
	}
}

func TestBackoffDelayCappedExponentialWithJitter(t *testing.T) {
	pol := SupervisionPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}.withDefaults()
	for attempt := 0; attempt < 20; attempt++ {
		want := pol.BaseBackoff << uint(attempt)
		if want <= 0 || want > pol.MaxBackoff {
			want = pol.MaxBackoff
		}
		for trial := 0; trial < 32; trial++ {
			d := backoffDelay(pol, attempt)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: delay %v outside equal-jitter band [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestDialRetrySucceedsAfterCoordinatorAppears: the first dial finds
// nothing listening and DialRetry pauses; the listener binds during the
// pause, and the retry after it connects.
func TestDialRetrySucceedsAfterCoordinatorAppears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening yet: the first dial must fail and retry

	const base = 5 * time.Millisecond
	clk := clock.NewManual(time.Unix(0, 0))
	type result struct {
		conn net.Conn
		err  error
	}
	res := make(chan result, 1)
	go func() {
		conn, err := DialRetry(context.Background(), clk, addr, DialPolicy{BaseDelay: base, MaxWait: 5 * time.Second})
		res <- result{conn, err}
	}()
	clk.BlockUntil(1) // the first attempt failed: DialRetry pauses
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("the address was taken meanwhile: %v", err)
	}
	defer ln2.Close()
	clk.Advance(base) // the first pause is at most BaseDelay
	r := <-res
	if r.err != nil {
		t.Fatalf("DialRetry: %v", r.err)
	}
	r.conn.Close()
}

// TestDialRetryExhaustsBudget: against a dead address DialRetry keeps
// pausing and retrying until MaxWait has passed on its clock, and not before.
func TestDialRetryExhaustsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	pol := DialPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, MaxWait: 100 * time.Millisecond}
	clk := clock.NewManual(time.Unix(0, 0))
	start := clk.Now()
	clk.Drive(time.Millisecond, func() {
		_, err = DialRetry(context.Background(), clk, addr, pol)
	})
	if err == nil {
		t.Fatal("dialing a dead address must fail once the budget is spent")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("error %q does not mention the exhausted retry budget", err)
	}
	if spent := clk.Now().Sub(start); spent < pol.MaxWait || spent > pol.MaxWait+pol.MaxDelay {
		t.Fatalf("a budget of %v was exhausted after %v of its clock", pol.MaxWait, spent)
	}
}

// TestDialRetryHonorsContext: a cancellation ends the pause between two
// attempts at once; the clock never moves.
func TestDialRetryHonorsContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	clk := clock.NewManual(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := DialRetry(ctx, clk, addr, DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 30 * time.Second})
		res <- err
	}()
	clk.BlockUntil(1)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled dial returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not end the pause")
	}
}
