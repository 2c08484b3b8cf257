package gen

import (
	"math"
	"testing"
	"time"

	"repro/streamline"
)

func TestGeneratorsArePureFunctionsOfSeedSubtaskIndex(t *testing.T) {
	z := NewZipf(1000, 1.1)
	for name, mk := range map[string]func(seed uint64) Func{
		"uniform":    func(s uint64) Func { return Uniform(s, 100, 10, 100) },
		"disordered": func(s uint64) Func { return Disordered(s, z, 10, 20, 0.01, 200) },
		"warm":       func(s uint64) Func { return WarmThenSkew(s, z, 1000) },
	} {
		a, b, other := mk(3), mk(3), mk(4)
		same, differ := true, false
		for i := int64(0); i < 5000; i++ {
			if a(1, 2, i) != b(1, 2, i) {
				same = false
			}
			if a(1, 2, i) != other(1, 2, i) || a(0, 2, i) != a(1, 2, i) {
				differ = true
			}
		}
		if !same || !differ {
			t.Errorf("%s: same seed equal=%v, other seed or subtask differs=%v", name, same, differ)
		}
	}
}

func TestZipfFollowsItsLaw(t *testing.T) {
	const n, s, draws = 100, 1.2, 400_000
	z := NewZipf(n, s)
	counts := make([]int, n)
	for i := int64(0); i < draws; i++ {
		counts[z.Rank(Draw(1, 0, i, 0))]++
	}
	var norm float64
	for k := 1; k <= n; k++ {
		norm += 1 / math.Pow(float64(k), s)
	}
	for _, k := range []int{0, 1, 9, 49} {
		want := draws / math.Pow(float64(k+1), s) / norm
		if got := float64(counts[k]); math.Abs(got-want) > 5*math.Sqrt(want)+1 {
			t.Errorf("rank %d drawn %v times, expected about %.0f", k, got, want)
		}
	}
}

func TestDisorderedKeepsOnTimeRecordsWithinTheLag(t *testing.T) {
	const disorder, perTick = 20, 10
	f := Disordered(5, NewZipf(50, 1.1), perTick, disorder, 0.05, 200)
	var late int
	for i := int64(0); i < 100_000; i++ {
		e, base := f(0, 1, i), i/perTick
		if LateByDesign(5, 0.05, 0, i) {
			late++
			if base > 2*disorder+400 && e.Ts > base-disorder-200 {
				t.Fatalf("record %d marked late carries ts %d, base %d", i, e.Ts, base)
			}
		} else if e.Ts > base || e.Ts <= base-disorder {
			t.Fatalf("on-time record %d carries ts %d outside (%d, %d]", i, e.Ts, base-disorder, base)
		}
	}
	if late < 4000 || late > 6000 {
		t.Fatalf("%d of 100000 records late, want about 5%%", late)
	}
}

func TestWarmThenSkewTouchesEveryKeyOnce(t *testing.T) {
	const keys = 1000
	f := WarmThenSkew(1, NewZipf(keys, 1.2), keys)
	seen := map[uint64]int{}
	for sub := 0; sub < 2; sub++ {
		for i := int64(0); i < keys/2; i++ {
			seen[f(sub, 2, i).Key]++
		}
	}
	if len(seen) != keys {
		t.Fatalf("warm phase touched %d of %d keys", len(seen), keys)
	}
}

func drain(r streamline.Reader[float64], n int) []streamline.Keyed[float64] {
	var out []streamline.Keyed[float64]
	for len(out) < n {
		k, st := r.Next()
		if st != streamline.ReadData {
			break
		}
		out = append(out, k)
	}
	return out
}

func TestReaderStopsAtItsLimitAndRestoresItsCursor(t *testing.T) {
	val := func(e Event) float64 { return e.Val }
	f := Uniform(1, 100, 10, 100)
	box := NewBox(2, 3000, 0)
	src := TimeBoxed(box, f, val, func(sub int, i int64) bool { return i%10 == 0 })
	r := src.Open(1, 2)
	first := drain(r, 1000)
	blob, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rest := drain(r, 1<<30)
	if len(first)+len(rest) != 3000 || box.Taken() != 3000 || box.Late() != 300 {
		t.Fatalf("read %d+%d records, cursor %d, late %d", len(first), len(rest), box.Taken(), box.Late())
	}
	if box.FirstSnapshot().IsZero() || box.FirstNext().IsZero() || box.LastEnd().IsZero() {
		t.Fatal("marks not set")
	}

	box2 := NewBox(2, 3000, 0)
	r2 := TimeBoxed(box2, f, val, func(sub int, i int64) bool { return i%10 == 0 }).Open(1, 2)
	if err := r2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	again := drain(r2, 1<<30)
	if len(again) != len(rest) {
		t.Fatalf("restored reader read %d records, want %d", len(again), len(rest))
	}
	for i := range again {
		if again[i] != rest[i] {
			t.Fatalf("restored record %d differs", i)
		}
	}
	if box2.Late() != 300 {
		t.Fatalf("restored late count %d, want 300", box2.Late())
	}
	if err := r2.Restore([]byte{1}); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

func TestReaderStopsAtItsDeadline(t *testing.T) {
	box := NewBox(1, -1, 30*time.Millisecond)
	r := TimeBoxed(box, Uniform(1, 10, 1, 1), func(e Event) float64 { return e.Val }, nil).Open(0, 1)
	start := time.Now()
	n := len(drain(r, 1<<40))
	if el := time.Since(start); el < 30*time.Millisecond || el > 2*time.Second {
		t.Fatalf("ran %v", el)
	}
	if int64(n) != box.Taken() || n == 0 {
		t.Fatalf("read %d, box says %d", n, box.Taken())
	}
}

// fakeClock lets a test decide how long every sleep really takes.
type fakeClock struct {
	now   time.Time
	stall map[int]time.Duration // extra time the n-th sleep oversleeps
	n     int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.stall[c.n])
	c.n++
}

func TestScheduleTimesEveryEventFromWhenItWasDue(t *testing.T) {
	start := time.Unix(1000, 0)
	// The third sleep oversleeps by 10 ms: a descheduled sender.
	clock := &fakeClock{now: start, stall: map[int]time.Duration{2: 10 * time.Millisecond}}
	s := Schedule{Every: time.Millisecond, Count: 50, Tick: time.Millisecond, Now: clock.Now, Sleep: clock.Sleep}
	var sent []int64
	late := s.Run(start, func(i int64) { sent = append(sent, i) })
	if len(sent) != 50 || len(late) != 50 {
		t.Fatalf("sent %d events, %d latenesses", len(sent), len(late))
	}
	for i, v := range sent {
		if v != int64(i) {
			t.Fatalf("event %d sent as %d-th", v, i)
		}
	}
	// Events 0..2 go out on time. The stall ends at 13 ms: events 3..13 are
	// overdue then and go out in one burst, each late by its own amount.
	for i := 0; i <= 2; i++ {
		if late[i] != 0 {
			t.Fatalf("event %d late by %v before the stall", i, late[i])
		}
	}
	for i := 3; i <= 13; i++ {
		if want := time.Duration(13-i) * time.Millisecond; late[i] != want {
			t.Fatalf("event %d late by %v, want %v", i, late[i], want)
		}
	}
	// The schedule does not slip: later events are on time again.
	for i := 14; i < 50; i++ {
		if late[i] != 0 {
			t.Fatalf("event %d late by %v after the stall", i, late[i])
		}
	}
}
