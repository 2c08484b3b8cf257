// Package metrics provides lightweight, allocation-free instrumentation
// primitives used throughout the STREAMLINE runtime and its benchmark
// harness: counters, gauges, meters (rates), log-bucketed histograms and
// stopwatches, plus a named registry that can render itself as a table.
//
// All primitives are safe for concurrent use.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are permitted so that a
// Counter can also track live totals (e.g. open windows).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge holds an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v as the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta: the form for a level several subtasks share,
// each reporting how its own part changed.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max updates the gauge to v if v is greater than the current value.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Meter measures a rate of events over wall-clock time.
type Meter struct {
	count atomic.Int64
	start atomic.Int64 // unix nanos
}

// NewMeter returns a meter whose window starts now.
func NewMeter() *Meter {
	m := &Meter{}
	m.start.Store(time.Now().UnixNano())
	return m
}

// Mark records n events.
func (m *Meter) Mark(n int64) { m.count.Add(n) }

// Rate returns events per second since the meter started.
func (m *Meter) Rate() float64 {
	elapsed := time.Duration(time.Now().UnixNano() - m.start.Load())
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count.Load()) / elapsed.Seconds()
}

// Count returns the number of events marked so far.
func (m *Meter) Count() int64 { return m.count.Load() }

// histBuckets is the number of power-of-two latency buckets tracked by a
// Histogram; bucket i covers values in [2^i, 2^(i+1)).
const histBuckets = 64

// Histogram records an approximate distribution of non-negative int64
// observations (typically nanoseconds) using power-of-two buckets. Quantile
// estimates are exact to within a factor of two, which is sufficient for the
// order-of-magnitude comparisons the harness reports.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	once    sync.Once
}

func (h *Histogram) init() {
	h.min.Store(math.MaxInt64)
}

// Observe records one observation. Negative values are clamped to zero.
func (h *Histogram) Observe(v int64) {
	h.once.Do(h.init)
	if v < 0 {
		v = 0
	}
	idx := 0
	if v > 0 {
		idx = 63 - leadingZeros64(uint64(v))
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the arithmetic mean of all observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) that is
// exact to within a factor of two.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			// Upper edge of bucket i.
			if i >= 62 {
				return math.MaxInt64
			}
			return (int64(1) << uint(i+1)) - 1
		}
	}
	return h.max.Load()
}

// Stopwatch measures elapsed time with Start/Stop pairs feeding a Histogram.
type Stopwatch struct {
	hist Histogram
}

// Time runs fn and records its duration.
func (s *Stopwatch) Time(fn func()) {
	t0 := time.Now()
	fn()
	s.hist.Observe(time.Since(t0).Nanoseconds())
}

// ObserveSince records the time elapsed since t0.
func (s *Stopwatch) ObserveSince(t0 time.Time) {
	s.hist.Observe(time.Since(t0).Nanoseconds())
}

// Hist exposes the underlying histogram.
func (s *Stopwatch) Hist() *Histogram { return &s.hist }

// Registry is a named collection of metrics that can print itself.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	meters   map[string]*Meter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		meters:   make(map[string]*Meter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Meter returns the named meter, creating it on first use.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		m = NewMeter()
		r.meters[name] = m
	}
	return m
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// WriteTo renders all metrics as a sorted, aligned text table.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter  %-40s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge    %-40s %d", name, g.Value()))
	}
	for name, m := range r.meters {
		lines = append(lines, fmt.Sprintf("meter    %-40s %.0f/s (n=%d)", name, m.Rate(), m.Count()))
	}
	for name, h := range r.hists {
		lines = append(lines, fmt.Sprintf("hist     %-40s n=%d mean=%.0f p50<=%d p99<=%d max=%d",
			name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max()))
	}
	sort.Strings(lines)
	var total int64
	for _, l := range lines {
		n, err := fmt.Fprintln(w, l)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
