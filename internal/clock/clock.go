// Package clock is the runtime's one source of control-plane time: the
// Channel connector's idle poll, a followed topic's tail back-off, pacing,
// the checkpoint interval, a segment's age, the fsync interval and age-based
// retention, supervisor backoff, the rejoin window, the dial retry and the
// worker loop's rejoin beat all read it. Results depend on event time, never
// on this clock; it only decides when the runtime looks again.
//
// Real, the zero-size default, reads the time package. Manual is a clock a
// test advances by hand: the test waits until the code under test is waiting
// (BlockUntil) and then moves time to the boundary it wants to check
// (Advance), so a timing test neither sleeps nor bounds anything by a
// wall-clock margin. A nil Clock means Real everywhere (Or). There is no
// public option that sets a clock: a Job takes one from
// dataflow.WithClock, and the Env, the segment log and the supervisor's
// workers take theirs from test hooks.
//
// No per-record loop reads the clock. Its busiest reader is the Channel
// connector, which arms its one timer only when its channel is empty; the
// segment log reads it once per appended run, not per record.
//
// What stays on real time: socket read and write deadlines, with the
// heartbeat ping tickers that refresh them (a manual ping ticker against a
// real read deadline would fail a healthy worker; both move when the sockets
// are replaced by a simulated network); the chaos harness (internal/chaos),
// the benchmark module, internal/bench and the commands under cmd/, which
// measure or inject real time. The fan-in sweep's random start is not time
// and is not this package's concern.
package clock

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Clock tells the time and makes timers and tickers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Ticker
}

// Timer is a one-shot timer with the semantics of time.Timer since Go 1.23:
// after Stop or Reset returns, no value from before the call is received.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Ticker delivers ticks every period and drops those its reader missed, as
// time.Ticker does.
type Ticker interface {
	C() <-chan time.Time
	Stop()
	Reset(d time.Duration)
}

// Or returns c, or Real when c is nil.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// Reset arms the timer *t for d, making it from c (nil: Real) on first use,
// and returns its channel: one timer per waiter that waits again and again,
// so a wait allocates nothing on Real.
func Reset(c Clock, t *Timer, d time.Duration) <-chan time.Time {
	if *t == nil {
		*t = Or(c).NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return (*t).C()
}

// Sleep waits d on c (nil: Real) and returns nil, or returns ctx's error as
// soon as ctx is done.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	t := Or(c).NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Real is the wall clock of the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

// realTimer and realTicker hold one pointer each, so an interface holds them
// without an allocation of its own.
type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time   { return r.t.C }
func (r realTicker) Stop()                 { r.t.Stop() }
func (r realTicker) Reset(d time.Duration) { r.t.Reset(d) }

// Manual is a clock that moves only when Advance moves it. Its timers and
// tickers fire inside Advance, in deadline order (ties in the order they
// became pending), each receiving the clock's time at its deadline. Safe for
// concurrent use.
type Manual struct {
	mu      sync.Mutex
	cond    sync.Cond // signalled whenever pending changes
	now     time.Time
	pending []*waiter // armed timers and tickers, in the order they became pending
}

// NewManual returns a manual clock that reads start until advanced.
func NewManual(start time.Time) *Manual {
	m := &Manual{now: start}
	m.cond.L = &m.mu
	return m
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// NewTimer implements Clock. A timer of d <= 0 fires at once.
func (m *Manual) NewTimer(d time.Duration) Timer {
	w := &waiter{m: m, c: make(chan time.Time, 1)}
	m.mu.Lock()
	m.arm(w, d)
	m.mu.Unlock()
	return (*manualTimer)(w)
}

// NewTicker implements Clock. It panics if d <= 0, as time.NewTicker does.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive interval for NewTicker")
	}
	w := &waiter{m: m, c: make(chan time.Time, 1), period: d}
	m.mu.Lock()
	m.arm(w, d)
	m.mu.Unlock()
	return (*manualTicker)(w)
}

// Advance moves the clock forward by d, firing every timer and tick due by
// then in deadline order. A tick whose reader has not taken the previous one
// is dropped.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(d)
}

func (m *Manual) advance(d time.Duration) {
	end := m.now.Add(d)
	for {
		w := m.earliest()
		if w == nil || w.when.After(end) {
			break
		}
		m.now = w.when
		select {
		case w.c <- m.now:
		default:
		}
		if w.period > 0 {
			w.when = w.when.Add(w.period)
		} else {
			m.disarm(w)
		}
	}
	m.now = end
}

// BlockUntil waits until at least n timers and tickers are pending: armed
// and not yet fired or stopped. A test calls it to know that the code under
// test has reached the wait it is about to end. It reads no wall clock.
func (m *Manual) BlockUntil(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) < n {
		m.cond.Wait()
	}
}

// Drive runs f and, for as long as it runs, advances the clock by step
// whenever a timer or ticker is pending, yielding the processor between
// steps. A test uses it for code whose waits it does not count one by one,
// or to let a cancelled job leave a wait on the clock; it returns when f
// does.
func (m *Manual) Drive(step time.Duration, f func()) {
	done := false // guarded by m.mu
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		m.mu.Lock()
		defer m.mu.Unlock()
		for {
			for !done && len(m.pending) == 0 {
				m.cond.Wait()
			}
			if done {
				return
			}
			m.advance(step)
			m.mu.Unlock()
			runtime.Gosched()
			m.mu.Lock()
		}
	}()
	defer func() {
		m.mu.Lock()
		done = true
		m.cond.Broadcast()
		m.mu.Unlock()
		<-exited
	}()
	f()
}

// waiter is a pending timer (period 0) or ticker.
type waiter struct {
	m      *Manual
	c      chan time.Time
	when   time.Time
	period time.Duration
	armed  bool
}

// arm (re)schedules w at now+d; a timer due already fires at once.
func (m *Manual) arm(w *waiter, d time.Duration) {
	if d <= 0 && w.period == 0 {
		m.disarm(w)
		w.c <- m.now // drained by the caller, so there is room
		return
	}
	w.when = m.now.Add(d)
	if !w.armed {
		w.armed = true
		m.pending = append(m.pending, w)
		m.cond.Broadcast()
	}
}

func (m *Manual) disarm(w *waiter) {
	if !w.armed {
		return
	}
	w.armed = false
	for i, p := range m.pending {
		if p == w {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.cond.Broadcast()
}

func (m *Manual) earliest() *waiter {
	var first *waiter
	for _, w := range m.pending {
		if first == nil || w.when.Before(first.when) {
			first = w
		}
	}
	return first
}

// stop disarms w and drops a value it delivered but nobody received, and
// reports whether w was still pending.
func (w *waiter) stop() bool {
	was := w.armed
	w.m.disarm(w)
	select {
	case <-w.c:
	default:
	}
	return was
}

type manualTimer waiter

func (t *manualTimer) C() <-chan time.Time { return t.c }

func (t *manualTimer) Stop() bool {
	w := (*waiter)(t)
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	return w.stop()
}

func (t *manualTimer) Reset(d time.Duration) bool {
	w := (*waiter)(t)
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	was := w.stop()
	w.m.arm(w, d)
	return was
}

type manualTicker waiter

func (t *manualTicker) C() <-chan time.Time { return t.c }

func (t *manualTicker) Stop() {
	w := (*waiter)(t)
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	w.stop()
}

func (t *manualTicker) Reset(d time.Duration) {
	if d <= 0 {
		panic("clock: non-positive interval for Ticker.Reset")
	}
	w := (*waiter)(t)
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	w.stop()
	w.period = d
	w.m.arm(w, d)
}
