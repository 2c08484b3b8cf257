package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
)

func TestCounterBasic(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero value counter should read 0, got %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if got := c.Reset(); got != 42 {
		t.Fatalf("Reset returned %d, want 42", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("after Reset Value = %d, want 0", got)
	}
}

func TestCounterNegativeDelta(t *testing.T) {
	var c Counter
	c.Add(10)
	c.Add(-3)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGaugeSetAndMax(t *testing.T) {
	var g Gauge
	g.Set(5)
	if g.Value() != 5 {
		t.Fatalf("Value = %d, want 5", g.Value())
	}
	g.Max(3)
	if g.Value() != 5 {
		t.Fatalf("Max(3) lowered gauge to %d", g.Value())
	}
	g.Max(9)
	if g.Value() != 9 {
		t.Fatalf("Max(9) -> %d, want 9", g.Value())
	}
}

func TestMeterCountsAndRate(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	m := &Meter{clk: clk, start: clk.Now()}
	m.Mark(10)
	m.Mark(5)
	if m.Count() != 15 {
		t.Fatalf("Count = %d, want 15", m.Count())
	}
	if m.Rate() != 0 {
		t.Fatalf("Rate with no time elapsed = %f, want 0", m.Rate())
	}
	clk.Advance(3 * time.Second)
	if m.Rate() != 5 {
		t.Fatalf("Rate = %f over 3s, want 5", m.Rate())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram should read zeros")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 4, 8, 16} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Min() != 1 || h.Max() != 16 {
		t.Fatalf("Min/Max = %d/%d, want 1/16", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 31.0/5.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean = %f, want %f", got, want)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, min=%d", h.Min())
	}
}

// Quantile upper bound property: for any set of observations the reported
// q-quantile bound must be >= the exact quantile value and <= 2x it.
func TestHistogramQuantileBound(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]int64, len(raw))
		for i, r := range raw {
			v := int64(r) + 1
			vals[i] = v
			h.Observe(v)
		}
		// exact p50
		sorted := append([]int64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
				sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
			}
		}
		exact := sorted[(len(sorted)-1)/2]
		bound := h.Quantile(0.5)
		return bound >= exact && bound <= 2*exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatchRecords(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	s := Stopwatch{clk: clk}
	s.Time(func() { clk.Advance(time.Millisecond) })
	if s.Hist().Count() != 1 {
		t.Fatalf("stopwatch did not record")
	}
	if s.Hist().Min() != int64(time.Millisecond) {
		t.Fatalf("recorded %d ns for a 1ms call", s.Hist().Min())
	}
	s.ObserveSince(clk.Now().Add(-2 * time.Millisecond))
	if s.Hist().Count() != 2 || s.Hist().Max() != int64(2*time.Millisecond) {
		t.Fatalf("ObserveSince recorded count %d max %d, want 2 and 2ms", s.Hist().Count(), s.Hist().Max())
	}
}

func TestRegistryCreatesAndReuses(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a")
	c2 := r.Counter("a")
	if c1 != c2 {
		t.Fatalf("registry returned distinct counters for the same name")
	}
	if r.Gauge("g") != r.Gauge("g") || r.Histogram("h") != r.Histogram("h") {
		t.Fatalf("registry must memoize by name")
	}
}

func TestRegistryWriteTo(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(7)
	r.Gauge("open").Set(3)
	r.Histogram("lat").Observe(100)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"events", "open", "lat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLeadingZeros(t *testing.T) {
	cases := map[uint64]int{0: 64, 1: 63, 2: 62, 3: 62, 1 << 63: 0}
	for in, want := range cases {
		if got := leadingZeros64(in); got != want {
			t.Errorf("leadingZeros64(%d) = %d, want %d", in, got, want)
		}
	}
}
