package dataflow

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/agg"
	"repro/internal/window"
)

// runCapture ends a chain and keeps what the driver handed it, in order: the
// timestamps and keys of every run, and every watermark but the closing one.
// One subtask, read after the job: no lock.
type runCapture struct {
	Base
	runs [][]Record
	wms  []int64
	// dataAtWM[i] is how many records had arrived when wms[i] did.
	dataAtWM []int
	seen     int
}

func (c *runCapture) OnBatch(b []Record, _ Collector) []Record {
	c.runs = append(c.runs, append([]Record{}, b...))
	c.seen += len(b)
	return nil
}

func (c *runCapture) OnWatermark(wm int64, _ Collector) {
	c.wms = append(c.wms, wm)
	c.dataAtWM = append(c.dataAtWM, c.seen)
}

// TestWatermarkBurstCrossesChainInBoundedRuns: one watermark closes a window
// for each of 450 keys in a single WindowOp.OnWatermark call, 56 times the
// batch size. The operators chained behind it must see those results in runs
// of at most the batch size, in the order the window operator emitted them
// (ascending key), and all of them before they see the watermark.
func TestWatermarkBurstCrossesChainInBoundedRuns(t *testing.T) {
	const keys, batch = 450, 8
	g := NewGraph("burst")
	g.BatchSize = batch
	src := g.AddSource("src", 1, func(int, int) SourceFunc {
		// Every key once in window [0,10), then one record far ahead: the
		// source's only watermark before the end follows it.
		return &GenSource{N: keys + 1, WatermarkEvery: keys + 1, Gen: func(i int64) Record {
			if i == keys {
				return Data(100, 0, 1.0)
			}
			return Data(i%10, uint64(i), 1.0)
		}}
	})
	win := g.AddOperator("win", 1, NewWindowOp(WindowQuery{Spec: window.Tumbling(10), Fn: agg.SumF64()}),
		Edge{From: src, Part: HashPartition})
	val := g.AddOperator("val", 1, func() Operator {
		return &MapOp{F: func(r Record) Record { return Data(r.Ts, r.Key, r.Value.(WindowResult).Value) }}
	}, Edge{From: win, Part: Forward})
	cap := &runCapture{}
	g.AddOperator("cap", 1, func() Operator { return cap }, Edge{From: val, Part: Forward})
	run(t, g)

	if len(cap.wms) == 0 || cap.wms[0] != 100 {
		t.Fatalf("watermarks seen downstream = %v, want 100 first", cap.wms)
	}
	if cap.dataAtWM[0] != keys {
		t.Fatalf("%d window results were downstream when the watermark that fired them arrived, want all %d", cap.dataAtWM[0], keys)
	}
	next := uint64(0)
	burstRuns := 0
	for _, r := range cap.runs {
		if len(r) > batch {
			t.Fatalf("downstream was handed a run of %d records, batch size is %d", len(r), batch)
		}
		for _, rec := range r {
			if next < keys && rec.Key != next {
				t.Fatalf("result %d downstream has key %d: not the window operator's emission order", next, rec.Key)
			}
			next++
		}
		if next <= keys {
			burstRuns++
		}
	}
	if burstRuns < keys/batch {
		t.Fatalf("the burst arrived in %d runs, want at least %d", burstRuns, keys/batch)
	}
	if next != keys+1 {
		t.Fatalf("downstream saw %d results, want %d", next, keys+1)
	}
}

// splitEmit emits each record of the first half of a run three times through
// its collector and returns the second half.
type splitEmit struct{ Base }

func (splitEmit) OnBatch(b []Record, out Collector) []Record {
	half := len(b) / 2
	for _, r := range b[:half] {
		for i := 0; i < 3; i++ {
			out.Collect(r)
		}
	}
	return b[half:]
}

// TestCollectedGoesDownstreamBeforeReturned: what an operator collects through
// out during OnBatch reaches the next operator before the run it returns, the
// part still in the collector when the call returns included.
func TestCollectedGoesDownstreamBeforeReturned(t *testing.T) {
	const n, batch = 64, 4
	g := NewGraph("order")
	g.BatchSize = batch
	src := g.AddSource("src", 1, func(int, int) SourceFunc {
		return &GenSource{N: n, WatermarkEvery: n, Gen: func(i int64) Record { return Data(i, 0, 1.0) }}
	})
	split := g.AddOperator("split", 1, func() Operator { return splitEmit{} }, Edge{From: src, Part: Forward})
	cap := &runCapture{}
	g.AddOperator("cap", 1, func() Operator { return cap }, Edge{From: split, Part: Forward})
	run(t, g)

	var got, want []int64
	for _, r := range cap.runs {
		if len(r) > batch {
			t.Fatalf("downstream was handed a run of %d records, batch size is %d", len(r), batch)
		}
		for _, rec := range r {
			got = append(got, rec.Ts)
		}
	}
	for lo := int64(0); lo < n; lo += batch {
		want = append(want, lo, lo, lo, lo+1, lo+1, lo+1, lo+2, lo+3)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("downstream order:\n got %v\nwant %v", fmt.Sprint(got), fmt.Sprint(want))
	}
}
