package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

var epoch = time.Unix(1_000_000, 0)

// fired reports the value c holds, if any, without waiting.
func fired(c <-chan time.Time) (time.Time, bool) {
	select {
	case at := <-c:
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestManualTimerFiresAtItsDeadline(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(10 * time.Millisecond)
	m.Advance(10*time.Millisecond - 1)
	if _, ok := fired(tm.C()); ok {
		t.Fatal("timer fired 1ns before its deadline")
	}
	m.Advance(1)
	at, ok := fired(tm.C())
	if !ok || !at.Equal(epoch.Add(10*time.Millisecond)) {
		t.Fatalf("timer at its deadline: fired=%v at %v, want %v", ok, at, epoch.Add(10*time.Millisecond))
	}
	if tm.Stop() {
		t.Fatal("Stop of a fired timer reported it pending")
	}
}

func TestManualFiresEachAtItsDeadline(t *testing.T) {
	m := NewManual(epoch)
	// One Advance past every deadline: each timer receives the time of its
	// own deadline, not the end of the advance.
	timers := []Timer{m.NewTimer(3 * time.Second), m.NewTimer(time.Second), m.NewTimer(2 * time.Second), m.NewTimer(time.Second)}
	m.Advance(5 * time.Second)
	for i, want := range []time.Duration{3, 1, 2, 1} {
		at, ok := fired(timers[i].C())
		if !ok || !at.Equal(epoch.Add(want*time.Second)) {
			t.Fatalf("timer %d: fired=%v at %v, want %vs", i, ok, at.Sub(epoch), int(want))
		}
	}
	if !m.Now().Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("Now = %v after advancing 5s", m.Now().Sub(epoch))
	}
}

func TestManualStopAndResetDropStaleValues(t *testing.T) {
	m := NewManual(epoch)
	tm := m.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer reported it idle")
	}
	m.Advance(2 * time.Second)
	if _, ok := fired(tm.C()); ok {
		t.Fatal("a stopped timer fired")
	}
	tm.Reset(time.Second)
	m.Advance(time.Second) // fires, nobody receives
	tm.Reset(time.Second)
	if _, ok := fired(tm.C()); ok {
		t.Fatal("Reset left the value of the previous deadline in the channel")
	}
	m.Advance(time.Second)
	if at, ok := fired(tm.C()); !ok || !at.Equal(epoch.Add(4*time.Second)) {
		t.Fatalf("reset timer: fired=%v at %v", ok, at.Sub(epoch))
	}
	if _, ok := fired(m.NewTimer(0).C()); !ok {
		t.Fatal("a timer of 0 did not fire at once")
	}
}

func TestManualTickerDropsMissedTicks(t *testing.T) {
	m := NewManual(epoch)
	tk := m.NewTicker(time.Second)
	defer tk.Stop()
	m.Advance(5 * time.Second) // five ticks due, the reader takes none
	at, ok := fired(tk.C())
	if !ok || !at.Equal(epoch.Add(time.Second)) {
		t.Fatalf("first tick: fired=%v at %v, want the first deadline", ok, at.Sub(epoch))
	}
	if _, ok := fired(tk.C()); ok {
		t.Fatal("the ticker queued a missed tick")
	}
	m.Advance(time.Second)
	if at, ok := fired(tk.C()); !ok || !at.Equal(epoch.Add(6*time.Second)) {
		t.Fatalf("next tick: fired=%v at %v, want 6s", ok, at.Sub(epoch))
	}
	tk.Reset(3 * time.Second)
	m.Advance(3*time.Second - 1)
	if _, ok := fired(tk.C()); ok {
		t.Fatal("a reset ticker ticked before its new period")
	}
	m.Advance(1)
	if _, ok := fired(tk.C()); !ok {
		t.Fatal("a reset ticker did not tick at its new period")
	}
}

// TestManualBlockUntil: goroutines that wait on a timer and a ticker are
// seen pending before the test advances, and the fired timer no longer is.
func TestManualBlockUntil(t *testing.T) {
	m := NewManual(epoch)
	woke := make(chan time.Time)
	go func() {
		tm := m.NewTimer(time.Minute)
		woke <- <-tm.C()
	}()
	tk := m.NewTicker(time.Hour)
	defer tk.Stop()
	m.BlockUntil(2)
	m.Advance(time.Minute)
	if at := <-woke; !at.Equal(epoch.Add(time.Minute)) {
		t.Fatalf("waiter woke at %v, want 1m", at.Sub(epoch))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) != 1 {
		t.Fatalf("%d pending after the timer fired, want the ticker alone", len(m.pending))
	}
}

// TestManualDrive: a goroutine that waits on one timer after another is
// carried through all of them, and Drive returns with f.
func TestManualDrive(t *testing.T) {
	m := NewManual(epoch)
	var woke []time.Time
	m.Drive(time.Second, func() {
		for i := 0; i < 3; i++ {
			woke = append(woke, <-m.NewTimer(time.Second).C())
		}
	})
	for i, at := range woke {
		if want := epoch.Add(time.Duration(i+1) * time.Second); !at.Equal(want) {
			t.Fatalf("wait %d ended at %v, want %v", i, at.Sub(epoch), want.Sub(epoch))
		}
	}
	if len(woke) != 3 {
		t.Fatalf("%d waits ended, want 3", len(woke))
	}
}

// TestSleep: Sleep returns once its time has passed on the clock, and at
// once with the context's error when the context ends first.
func TestSleep(t *testing.T) {
	m := NewManual(epoch)
	woke := make(chan error)
	go func() { woke <- Sleep(context.Background(), m, time.Second) }()
	m.BlockUntil(1)
	m.Advance(time.Second)
	if err := <-woke; err != nil {
		t.Fatalf("Sleep over its whole time returned %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { woke <- Sleep(ctx, m, time.Second) }()
	m.BlockUntil(1)
	cancel()
	if err := <-woke; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Sleep returned %v", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) != 0 {
		t.Fatalf("a cancelled Sleep left its timer pending")
	}
}

func TestOrDefaultsToReal(t *testing.T) {
	if _, ok := Or(nil).(Real); !ok {
		t.Fatal("Or(nil) is not Real")
	}
	m := NewManual(epoch)
	if Or(m) != Clock(m) {
		t.Fatal("Or replaced a set clock")
	}
}

// TestRealTimerAllocatesNothingOnReset: a reader that keeps one timer and
// resets it per wait adds no allocation per wait.
func TestRealTimerAllocatesNothingOnReset(t *testing.T) {
	tm := Real{}.NewTimer(time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Hour)
		tm.Stop()
	}); n != 0 {
		t.Fatalf("Reset+Stop of a Real timer allocates %v times", n)
	}
}
