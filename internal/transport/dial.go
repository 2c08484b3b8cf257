package transport

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/clock"
)

// DialPolicy shapes DialRetry's capped exponential backoff. The zero value
// picks sane defaults; set MaxWait to bound how long a peer may take to
// appear (workers racing a coordinator that has not bound its listener yet,
// mesh writers racing a peer that is still registering inbound channels).
type DialPolicy struct {
	// BaseDelay is the first retry delay (default 25ms). Each subsequent
	// retry doubles it up to MaxDelay, with equal jitter: the actual sleep
	// is uniformly drawn from [delay/2, delay), so a fleet of workers
	// restarting together does not reconverge on the listener in lockstep.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry delay (default 1s).
	MaxDelay time.Duration
	// MaxWait bounds the total time spent dialing and waiting (default
	// 10s). The last error is returned once the budget is exhausted.
	MaxWait time.Duration
}

func (p DialPolicy) withDefaults() DialPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.MaxWait <= 0 {
		p.MaxWait = 10 * time.Second
	}
	return p
}

// DialRetry dials addr over TCP, retrying any dial failure (connection
// refused, name resolution hiccups, listener not yet bound) with capped
// exponential backoff plus jitter until the policy's MaxWait budget or the
// context expires. It is the one dial helper every transport component
// shares: the worker binary's initial dial, self-spawned workers, supervised
// rejoins, and mesh peer connections. The budget and pauses run on clk.
func DialRetry(ctx context.Context, clk clock.Clock, addr string, p DialPolicy) (net.Conn, error) {
	p = p.withDefaults()
	clk = clock.Or(clk)
	deadline := clk.Now().Add(p.MaxWait)
	var d net.Dialer
	delay := p.BaseDelay
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err())
		}
		if !clk.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: dial %s: retries exhausted after %v: %w", addr, p.MaxWait, err)
		}
		// Equal jitter: half deterministic, half uniform.
		sleep := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		if until := deadline.Sub(clk.Now()); sleep > until {
			sleep = until
		}
		if err := clock.Sleep(ctx, clk, sleep); err != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}
