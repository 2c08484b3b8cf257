package transport

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
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

func TestDialRetrySucceedsAfterCoordinatorAppears(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening yet: the first dials must fail and retry

	ready := make(chan net.Listener, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			close(ready)
			return
		}
		ready <- ln2
	}()
	conn, err := DialRetry(context.Background(), addr, DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 5 * time.Second})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	conn.Close()
	if ln2, ok := <-ready; ok {
		ln2.Close()
	} else {
		t.Fatal("late listener failed to bind")
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = DialRetry(context.Background(), addr, DialPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond, MaxWait: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("dialing a dead address must fail once the budget is spent")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("error %q does not mention the exhausted retry budget", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget of 100ms took %v to exhaust", elapsed)
	}
}

func TestDialRetryHonorsContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := DialRetry(ctx, addr, DialPolicy{BaseDelay: 5 * time.Millisecond, MaxWait: 30 * time.Second}); err == nil {
		t.Fatal("cancelled dial must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}
