package core_test

import (
	"context"
	"testing"

	"repro/streamline"
)

func TestJoinWindowThroughCore(t *testing.T) {
	env := streamline.New(streamline.WithParallelism(2))
	gen := func(name string, n, step int64, v float64) *streamline.Stream[float64] {
		return byKey(streamline.From(env, name, streamline.Generator(n, func(sub, par int, i int64) streamline.Keyed[float64] {
			return streamline.Keyed[float64]{Ts: i * step, Key: uint64(i % 3), Value: v}
		}), streamline.WithSourceParallelism(1)))
	}
	impressions := gen("imps", 90, 1, 1)
	costs := gen("costs", 30, 3, 2)

	out := streamline.Collect(streamline.JoinWindow(impressions, "join", costs, 30), "out")
	execute(t, env)

	// Per window [w, w+30) and key k: lefts = 10 (30 ts, every 3rd key),
	// rights = #i with i*3 in window and i%3==k.
	count := 0
	for _, k := range out.Records() {
		if p := k.Value; p.Left != 1 || p.Right != 2 {
			t.Fatalf("bad pair %+v", p)
		}
		count++
	}
	// Exact expectation: 3 windows x 3 keys; lefts per (w,k) = 10;
	// rights per (w,k): i in [w/3,(w+30)/3) with i%3==k -> 10/3 ≈ 3 or 4.
	want := 0
	for w := int64(0); w < 90; w += 30 {
		for k := uint64(0); k < 3; k++ {
			l, rr := 0, 0
			for i := int64(0); i < 90; i++ {
				if i >= w && i < w+30 && uint64(i%3) == k {
					l++
				}
			}
			for i := int64(0); i < 30; i++ {
				if i*3 >= w && i*3 < w+30 && uint64(i%3) == k {
					rr++
				}
			}
			want += l * rr
		}
	}
	if count != want {
		t.Fatalf("joined %d pairs, want %d", count, want)
	}
}

func TestJoinWindowRequiresKeyed(t *testing.T) {
	env := streamline.New()
	streamline.JoinWindow(records(env, "a", 10), "j", records(env, "b", 10), 10)
	if err := env.Execute(context.Background()); err == nil {
		t.Fatalf("unkeyed join must fail at build")
	}
}
