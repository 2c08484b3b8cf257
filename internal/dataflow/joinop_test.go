package dataflow

import (
	"math"
	"testing"
)

type collectList struct {
	recs []Record
}

func (c *collectList) Collect(r Record) { c.recs = append(c.recs, r) }

func TestWindowJoinOpBasic(t *testing.T) {
	op := &WindowJoinOp{Size: 10}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	out := &collectList{}
	// Window [0,10): key 1 left {1,2}, right {10}; key 2 left {3}, right none.
	op.OnBatchEdge(0, []Record{Data(1, 1, 1.0)}, out)
	op.OnBatchEdge(0, []Record{Data(2, 1, 2.0)}, out)
	op.OnBatchEdge(1, []Record{Data(3, 1, 10.0)}, out)
	op.OnBatchEdge(0, []Record{Data(4, 2, 3.0)}, out)
	if len(out.recs) != 0 {
		t.Fatalf("join fired before watermark")
	}
	op.OnWatermark(10, out)
	if len(out.recs) != 2 {
		t.Fatalf("got %d pairs, want 2: %+v", len(out.recs), out.recs)
	}
	for _, r := range out.recs {
		p := r.Value.(JoinedPair)
		if p.Right != 10 || p.WindowStart != 0 || p.WindowEnd != 10 {
			t.Fatalf("pair %+v", p)
		}
	}
}

func TestWindowJoinOpSeparateWindows(t *testing.T) {
	op := &WindowJoinOp{Size: 10}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	out := &collectList{}
	op.OnBatchEdge(0, []Record{Data(5, 1, 1.0)}, out)
	op.OnBatchEdge(1, []Record{Data(15, 1, 2.0)}, out) // different window: no join
	op.Finish(out)
	if len(out.recs) != 0 {
		t.Fatalf("cross-window values joined: %+v", out.recs)
	}
}

func TestWindowJoinOpSnapshotRestore(t *testing.T) {
	op := &WindowJoinOp{Size: 10}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	out := &collectList{}
	op.OnBatchEdge(0, []Record{Data(1, 7, 1.0)}, out)
	op.OnBatchEdge(1, []Record{Data(2, 7, 5.0)}, out)
	groups := captureGroups(t, op)
	restored := &WindowJoinOp{Size: 10}
	if err := restored.Open(&OpContext{RestoreGroups: groups}); err != nil {
		t.Fatal(err)
	}
	restored.OnBatchEdge(1, []Record{Data(3, 7, 6.0)}, out)
	restored.OnWatermark(math.MaxInt64, out)
	if len(out.recs) != 2 { // 1x5 and 1x6
		t.Fatalf("got %d pairs after restore: %+v", len(out.recs), out.recs)
	}
}

func TestWindowJoinEndToEnd(t *testing.T) {
	// Left: clicks (value=1) for keys 0..2; right: costs (value=key).
	g := NewGraph("join")
	left := g.AddSource("left", 1, SliceSource(func() []Record {
		var recs []Record
		for i := 0; i < 60; i++ {
			recs = append(recs, Data(int64(i), uint64(i%3), float64(1)))
		}
		return recs
	}()))
	right := g.AddSource("right", 1, SliceSource(func() []Record {
		var recs []Record
		for i := 0; i < 30; i++ {
			recs = append(recs, Data(int64(i*2), uint64(i%3), float64(i%3)))
		}
		return recs
	}()))
	join := g.AddOperator("join", 2, NewWindowJoinOp(20),
		Edge{From: left, Part: HashPartition},
		Edge{From: right, Part: HashPartition},
	)
	sink := &CollectSink{}
	g.AddOperator("sink", 1, sink.Factory(), Edge{From: join, Part: Rebalance})
	run(t, g)

	// Expected: per window [w, w+20) and key k: lefts = #i in window with
	// i%3==k; rights likewise from the right schedule; pairs = |L|*|R|.
	type wk struct {
		start int64
		key   uint64
	}
	want := map[wk]int{}
	for w := int64(0); w < 60; w += 20 {
		for k := uint64(0); k < 3; k++ {
			l, r := 0, 0
			for i := 0; i < 60; i++ {
				if int64(i) >= w && int64(i) < w+20 && uint64(i%3) == k {
					l++
				}
			}
			for i := 0; i < 30; i++ {
				ts := int64(i * 2)
				if ts >= w && ts < w+20 && uint64(i%3) == k {
					r++
				}
			}
			if l*r > 0 {
				want[wk{w, k}] = l * r
			}
		}
	}
	got := map[wk]int{}
	for _, rec := range sink.Records() {
		p := rec.Value.(JoinedPair)
		got[wk{p.WindowStart, rec.Key}]++
	}
	if len(got) != len(want) {
		t.Fatalf("got %d window-keys, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("window %+v: %d pairs, want %d", k, got[k], n)
		}
	}
}

func TestJoinSnapshotRoundTripEmpty(t *testing.T) {
	op := &WindowJoinOp{Size: 5}
	if err := op.Open(&OpContext{}); err != nil {
		t.Fatal(err)
	}
	groups := captureGroups(t, op)
	restored := &WindowJoinOp{Size: 5}
	if err := restored.Open(&OpContext{RestoreGroups: groups}); err != nil {
		t.Fatal(err)
	}
	out := &collectList{}
	restored.Finish(out)
	if len(out.recs) != 0 {
		t.Fatalf("empty op snapshot produced windows: %+v", out.recs)
	}
	if restored.wins.Len() != 0 {
		t.Fatalf("empty op snapshot restored %d keys", restored.wins.Len())
	}
}
