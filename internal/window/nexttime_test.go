package window

import (
	"math"
	"math/rand"
	"testing"
)

// cloneAssigner copies an assigner through its checkpoint codec, so a probe
// can advance time on the copy without disturbing the stream under test.
func cloneAssigner(t *testing.T, spec Spec, a Assigner) Assigner {
	t.Helper()
	c := spec.Factory()
	if _, err := c.(Checkpointable).ReadState(a.(Checkpointable).AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestNextTimeContract pins the contract the event-time timer index is built
// on, for every built-in assigner and after every element of a random
// in-order stream: OnTime(NextTime()-1) is a no-op, OnTime(NextTime()) closes
// something, time-measured windows always announce a finite deadline while
// one is open, and the end-of-stream watermark closes whatever is left.
func TestNextTimeContract(t *testing.T) {
	cases := []struct {
		spec  Spec
		timed bool // every open window has a finite deadline
	}{
		{Tumbling(10), true},
		{Sliding(30, 10), true},
		{Session(8), true},
		{SessionWithMaxDuration(8, 20), true},
		{TimeOrCount(25, 4), true},
		{CountTumbling(5), false},
		{CountSliding(6, 2), false},
		{Punctuation(func(v float64) bool { return v < 0.2 }), false},
		{Delta(0.5), false},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			a := c.spec.Factory()
			if nt := a.NextTime(); nt != math.MaxInt64 {
				t.Fatalf("fresh assigner announces a deadline: %d", nt)
			}
			stream := &Recorder{}
			ts := int64(0)
			for pos := int64(0); pos < 300; pos++ {
				ts += rng.Int63n(12) // equal timestamps and gaps past every window size
				a.OnTime(ts, stream)
				a.OnElement(ts, pos, rng.Float64(), stream)
				open := len(stream.Opens) - len(stream.Closes)
				nt := a.NextTime()
				if nt <= ts {
					t.Fatalf("pos %d: deadline %d not after the element at %d", pos, nt, ts)
				}
				if c.timed && open > 0 && nt == math.MaxInt64 {
					t.Fatalf("pos %d: %d windows open but no deadline announced", pos, open)
				}

				probe, rec := cloneAssigner(t, c.spec, a), &Recorder{}
				probe.OnTime(nt-1, rec)
				if len(rec.Opens)+len(rec.Closes) != 0 || probe.NextTime() != nt {
					t.Fatalf("pos %d: OnTime(%d) below the deadline %d acted: %+v, deadline now %d",
						pos, nt-1, nt, rec, probe.NextTime())
				}
				probe.OnTime(nt, rec)
				switch {
				case nt != math.MaxInt64 && len(rec.Closes) == 0:
					t.Fatalf("pos %d: OnTime at the deadline %d closed nothing", pos, nt)
				case nt == math.MaxInt64 && len(rec.Closes) != open:
					t.Fatalf("pos %d: end of stream closed %d of %d open windows", pos, len(rec.Closes), open)
				}
			}
		})
	}
}
