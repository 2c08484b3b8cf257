// Package chaos is the fault-injection harness for the distributed
// runtime's soak tests and recovery benchmarks. It wraps net.Listener /
// net.Conn so tests can impose the failure modes the transport's failure
// model claims to survive — connection drops, added latency, and the nasty
// one, the hung-but-open connection (blackhole): reads see silence until
// their deadline, writes succeed into the void, exactly what a partitioned
// or wedged peer looks like to TCP. A Killer kills in-process workers by
// name (context cancellation).
package chaos

import (
	"context"
	"net"
	"os"
	"sync"
	"time"
)

// Listener wraps an accept loop, handing out fault-injectable Conns and
// remembering them so a test can reach into the currently open set — e.g.
// Partition, which blackholes everything accepted so far.
type Listener struct {
	net.Listener

	mu    sync.Mutex
	conns []*Conn
}

// Wrap decorates ln; every accepted connection is returned as a *Conn.
func Wrap(ln net.Listener) *Listener { return &Listener{Listener: ln} }

// Accept returns the next connection wrapped for fault injection.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := newConn(c)
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// Conns returns every connection accepted so far, in accept order (closed
// ones included).
func (l *Listener) Conns() []*Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Conn, len(l.conns))
	copy(out, l.conns)
	return out
}

// Partition blackholes every connection accepted so far: from the peers'
// point of view the listener's process just fell off the network, while
// every TCP connection stays open. Only heartbeat timeouts can detect it.
func (l *Listener) Partition() {
	for _, c := range l.Conns() {
		c.Blackhole()
	}
}

// Conn is a net.Conn with switchable fault modes.
type Conn struct {
	net.Conn

	mu        sync.Mutex
	blackhole chan struct{} // non-nil once blackholed; closed never
	delay     time.Duration
	readDL    time.Time // tracked so blackholed reads honor deadlines
}

func newConn(c net.Conn) *Conn { return &Conn{Conn: c} }

// Blackhole switches the connection to hung-but-open: subsequent reads
// block (honoring any read deadline, returning a timeout error when it
// expires) and writes claim success while discarding the data. Idempotent.
func (c *Conn) Blackhole() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blackhole == nil {
		c.blackhole = make(chan struct{})
	}
}

// Delay makes every subsequent read wait d before touching the wire —
// coarse latency injection, enough to exercise deadline headroom.
func (c *Conn) Delay(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delay = d
}

// Drop closes the underlying connection — the crash-style failure.
func (c *Conn) Drop() { c.Conn.Close() }

func (c *Conn) faults() (chan struct{}, time.Duration, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blackhole, c.delay, c.readDL
}

func (c *Conn) Read(p []byte) (int, error) {
	hole, delay, dl := c.faults()
	if hole != nil {
		// Silence until the read deadline; without one, until the peer or
		// the test closes the conn (the close makes the blocked read's
		// successor fail fast rather than hang the harness).
		var expire <-chan time.Time
		if !dl.IsZero() {
			t := time.NewTimer(time.Until(dl))
			defer t.Stop()
			expire = t.C
		}
		select {
		case <-expire:
			return 0, os.ErrDeadlineExceeded
		case <-hole: // never closed; keeps the select shape uniform
			return 0, net.ErrClosed
		}
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	hole, _, _ := c.faults()
	if hole != nil {
		return len(p), nil // swallowed by the void
	}
	return c.Conn.Write(p)
}

// SetReadDeadline tracks the deadline so blackholed reads can honor it,
// then forwards to the real connection.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// Killer kills in-process worker loops by name: each is registered with
// the cancel function of its context.
type Killer struct {
	mu      sync.Mutex
	cancels map[string]context.CancelFunc
}

// NewKiller returns an empty Killer.
func NewKiller() *Killer {
	return &Killer{cancels: map[string]context.CancelFunc{}}
}

// RegisterCancel makes name killable by cancelling its context.
func (k *Killer) RegisterCancel(name string, cancel context.CancelFunc) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.cancels[name] = cancel
}

// Kill terminates the named victim; unknown names are a no-op (the victim
// already died of natural causes).
func (k *Killer) Kill(name string) {
	k.mu.Lock()
	cancel := k.cancels[name]
	delete(k.cancels, name)
	k.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
