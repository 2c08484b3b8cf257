package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // 1..1000, unsorted
	}
	if v, ok := percentile(s, 0.50); !ok || v != 500 {
		t.Fatalf("p50 = %v, %v", v, ok)
	}
	if v, ok := percentile(s, 0.99); !ok || v != 990 {
		t.Fatalf("p99 = %v, %v", v, ok)
	}
	// Ten samples lie beyond the 990th of 1000; only nine beyond the 991st.
	if _, ok := percentile(s, 0.991); ok {
		t.Fatal("p99.1 of 1000 samples accepted with nine samples beyond it")
	}
	if _, ok := percentile(s[:19], 0.50); ok {
		t.Fatal("p50 of 19 samples accepted")
	}
	if _, ok := percentile(s[:20], 0.50); !ok {
		t.Fatal("p50 of 20 samples refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of nothing accepted")
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "grandchild", Start: 15, End: 20, Parent: 1},
		{Name: "open", Start: 5, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	// root: 100 - (a 30 + b's uncovered 20 + c's part inside 10) = 40.
	want := []int64{40, 25, 30, 30, 5, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self time %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerSamplesOneCallInSampleEvery(t *testing.T) {
	tr := newTracer("t")
	root := tr.Begin("execute", -1)
	calls := 0
	f := trace1(tr, "user.f", root, func(x int) int { calls++; return x + 1 })
	for i := 0; i < 10*sampleEvery; i++ {
		if f(i) != i+1 {
			t.Fatal("wrapped function changed its result")
		}
	}
	tr.End(root)
	sums := spanSums(tr.Spans())
	if calls != 10*sampleEvery || sums["user.f"].N != 10 || sums["execute"].N != 1 {
		t.Fatalf("calls %d, sampled %d", calls, sums["user.f"].N)
	}
	if ex, f := sums["execute"], sums["user.f"]; ex.Dur <= 0 || ex.Self != ex.Dur-f.Dur {
		t.Fatalf("execute: %+v with children %+v", ex, f)
	}
	if g := trace1[int, int](nil, "user.f", -1, func(x int) int { return x }); g(3) != 3 {
		t.Fatal("untraced wrapper changed the function")
	}
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin("x", -1)) // must not panic
}

func TestRateAfterWarmup(t *testing.T) {
	t0 := time.Unix(100, 0)
	var series []progressPoint
	for i := 1; i <= 50; i++ { // 1000 records per 100 ms
		series = append(series, progressPoint{t0.Add(time.Duration(i) * 100 * time.Millisecond), int64(i) * 1000})
	}
	rate, err := rateAfterWarmup(series, t0, t0.Add(5*time.Second), 50_000)
	if err != nil || rate != 10_000 {
		t.Fatalf("rate %v, %v", rate, err)
	}
	if _, err := rateAfterWarmup(series[:5], t0, t0.Add(500*time.Millisecond), 5000); err == nil {
		t.Fatal("a phase shorter than the warm-up gave a rate")
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the driver
// reads, the rendering of the tables the program reports from, and holds the
// tables to the limits the driver's contract puts on that file.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != benchmarkJSON()+"\n" {
		t.Error("BENCHMARK.json is not what -manifest prints; regenerate it")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %s: listed twice, or a why of %d characters", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s (%s): listed twice or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestContractLineCarriesEveryListedMetric(t *testing.T) {
	r := newResult("windows")
	r.Attempted = 10
	for _, d := range endToEnd {
		r.Metrics[d.Name] = 1.5
	}
	for _, traced := range []bool{false, true} {
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(r, traced)), &got); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if !got.Correct || got.Attempted != 10 || len(got.Metrics) != want {
			t.Fatalf("traced=%v: %+v", traced, got)
		}
	}
}
