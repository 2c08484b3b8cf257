package window

import (
	"math"
	"math/rand"
	"testing"
)

// checkpointSpecs enumerates every checkpointable assigner family.
func checkpointSpecs() []Spec {
	return []Spec{
		Tumbling(10),
		Sliding(20, 5),
		Session(7),
		CountTumbling(6),
		CountSliding(8, 4),
		Punctuation(func(v float64) bool { return v < 0 }),
		Delta(5),
		SessionWithMaxDuration(6, 25),
		TimeOrCount(15, 7),
	}
}

// Save/Load equivalence: running events straight through an assigner yields
// the same window extents as running a prefix, snapshotting the assigner,
// loading into a fresh instance, and running the suffix.
func TestAssignerCheckpointEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, spec := range checkpointSpecs() {
		for trial := 0; trial < 5; trial++ {
			n := 80 + rng.Intn(120)
			elems := make([]Element, n)
			var ts int64
			for i := range elems {
				ts += rng.Int63n(6)
				elems[i] = Element{Ts: ts, V: float64(rng.Intn(21) - 10)}
			}
			events := Interleave(elems, math.MaxInt64)
			straight := Drive(spec, events)

			// Split run with snapshot/restore at a random event boundary.
			cut := 1 + rng.Intn(len(events)-1)
			a1 := spec.Factory()
			ctx := &oracleCtx{opens: map[int64]int64{}}
			var pos int64
			feed := func(a Assigner, evs []Event) {
				for _, ev := range evs {
					switch ev.Kind {
					case ElementEvent:
						ctx.boundary = pos
						a.OnElement(ev.Elem.Ts, pos, ev.Elem.V, ctx)
						ctx.ts = append(ctx.ts, ev.Elem.Ts)
						pos++
					case WatermarkEvent:
						ctx.boundary = pos
						a.OnTime(ev.WM, ctx)
					}
				}
			}
			feed(a1, events[:cut])
			ck, ok := a1.(Checkpointable)
			if !ok {
				t.Fatalf("%s: assigner not checkpointable", spec.Name)
			}
			// Behind a prefix and before a suffix: ReadState takes exactly
			// the bytes AppendState wrote.
			blob := append(ck.AppendState([]byte("prefix")), "suffix"...)
			a2 := spec.Factory()
			rest, err := a2.(Checkpointable).ReadState(blob[len("prefix"):])
			if err != nil || string(rest) != "suffix" {
				t.Fatalf("%s: read = %q, %v; want the suffix left", spec.Name, rest, err)
			}
			feed(a2, events[cut:])
			split := ctx.out

			if len(split) != len(straight) {
				t.Fatalf("%s trial %d (cut %d): %d extents straight, %d split",
					spec.Name, trial, cut, len(straight), len(split))
			}
			for i := range straight {
				if split[i] != straight[i] {
					t.Fatalf("%s trial %d: extent %d = %+v, want %+v",
						spec.Name, trial, i, split[i], straight[i])
				}
			}
		}
	}
}

// TestReadStateRejectsGarbage: no input and a truncated encoding are
// refused, never read as some state.
func TestReadStateRejectsGarbage(t *testing.T) {
	for _, spec := range checkpointSpecs() {
		ck := spec.Factory().(Checkpointable)
		blob := ck.AppendState(nil)
		for name, in := range map[string][]byte{"empty": nil, "truncated": blob[:len(blob)-1]} {
			if _, err := spec.Factory().(Checkpointable).ReadState(in); err == nil {
				t.Errorf("%s: %s accepted", spec.Name, name)
			}
		}
	}
}
