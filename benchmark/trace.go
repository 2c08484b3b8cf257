package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval recorded from the benchmark's own files: a
// call into the engine, a benchmark-owned function the engine called, or a
// layer probe. Times are nanoseconds since the tracer was created; Parent is
// an index into the same trace, -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// Tracer keeps spans in memory until the workload ends. A nil *Tracer
// records nothing, which is how the untraced run pays nothing for it.
type Tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer { return &Tracer{run: run, epoch: time.Now()} }

// Begin opens a span and returns its index, to be passed as a parent and to
// End.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(time.Since(t.epoch))
	t.mu.Unlock()
}

// add records an already finished span.
func (t *Tracer) add(name string, parent int, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: s, End: s + int64(d), Parent: parent, Run: t.run})
	t.mu.Unlock()
}

// sampleEvery is the share of calls to a benchmark-owned function that the
// traced run times: every call would cost more than the functions do.
const sampleEvery = 64

// trace1 wraps a one-argument function the engine calls so that the traced
// run records a span around every sampleEvery-th call; with no tracer it
// returns f itself.
func trace1[A, R any](t *Tracer, name string, parent int, f func(A) R) func(A) R {
	if t == nil {
		return f
	}
	var calls atomic.Int64
	return func(a A) R {
		if calls.Add(1)%sampleEvery != 0 {
			return f(a)
		}
		start := time.Now()
		r := f(a)
		t.add(name, parent, start, time.Since(start))
		return r
	}
}

// traceDo is trace1 for a function without a result.
func traceDo[A any](t *Tracer, name string, parent int, f func(A)) func(A) {
	if t == nil {
		return f
	}
	g := trace1(t, name, parent, func(a A) struct{} { f(a); return struct{}{} })
	return func(a A) { g(a) }
}

// Spans returns a copy of what has been recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile stores the trace as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once). Unfinished spans have self time 0.
func selfTimes(spans []Span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanSum is what the spans of one name add up to, in nanoseconds.
type spanSum struct {
	N         int64
	Dur, Self int64
}

// spanSums adds up the finished spans by name.
func spanSums(spans []Span) map[string]spanSum {
	self := selfTimes(spans)
	out := map[string]spanSum{}
	for i, s := range spans {
		if s.End >= s.Start {
			t := out[s.Name]
			out[s.Name] = spanSum{t.N + 1, t.Dur + s.End - s.Start, t.Self + self[i]}
		}
	}
	return out
}
