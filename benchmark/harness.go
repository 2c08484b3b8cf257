package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Config is what one workload run is given.
type Config struct {
	Seed    uint64
	Seconds float64 // length of the measured phase
	Trace   bool
	Dir     string // scratch directory, inside the checkout
}

// Result is what one workload run reports. Metrics holds the end-to-end
// metrics (the universal ones of BENCHMARK.json plus the workload's own);
// Layer holds what the traced run read in situ.
type Result struct {
	Workload  string
	Metrics   map[string]float64
	Layer     map[string]float64
	Counts    map[string]int64 // sample counts and other context, printed beside the metrics
	Attempted int64
	Failed    int64
	Spans     map[string]spanSum // the traced run's spans, added up by name

	// Inputs to the layer budget.
	CPUSeconds float64
	Units      map[string]float64 // how often the timed phase did each probed unit of work
}

func newResult(name string) *Result {
	return &Result{
		Workload: name,
		Metrics:  map[string]float64{}, Layer: map[string]float64{},
		Counts: map[string]int64{}, Units: map[string]float64{},
	}
}

// fail adds n failed operations, described on stderr once.
func (r *Result) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	fmt.Fprintf(os.Stderr, "%s: FAILED %d: %s\n", r.Workload, n, fmt.Sprintf(format, args...))
}

// A workload builds its inputs (timed as setup_s), checks the engine's
// output against the reference on a bounded pass, and measures.
type workload struct {
	name string
	why  string
	run  func(cfg Config, tr *Tracer) (*Result, error)
}

// A workload builds its inputs at least setupReps times, and a cheap set-up
// again until setupBudget has gone or setupMaxReps are done: setup_s is the
// median, so that one slow directory create or page-cache miss does not
// decide it, and a set-up of ten milliseconds gets the repetitions its noise
// needs.
const (
	setupReps    = 3
	setupMaxReps = 15
	setupBudget  = time.Second
)

// timeSetup runs build repeatedly and returns the last product and the
// median wall time. discard, when not nil, releases a product that will not
// be used.
func timeSetup[T any](tr *Tracer, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	var total time.Duration
	for rep := 0; rep < setupReps || rep < setupMaxReps && total < setupBudget; rep++ {
		if rep > 0 && discard != nil {
			discard(last)
		}
		runtime.GC() // every repetition starts from the same heap, not from the last one's garbage
		sp := tr.Begin("setup", -1)
		start := time.Now()
		v, err := build()
		d := time.Since(start)
		tr.End(sp)
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		last, total, times = v, total+d, append(times, d.Seconds())
	}
	return last, median(times), nil
}

// phase is the measurement of one timed phase: wall and CPU time,
// allocation, and the heap as the sampler saw it.
type phase struct {
	start    time.Time
	cpu0     float64
	mallocs0 uint64
	bytes0   uint64
	stop     chan struct{}
	done     sync.WaitGroup
	heapMB   []float64 // written by the sampler goroutine only, read after it has ended
	progress func() int64
	tick     func(*phase)
	series   []progressPoint
}

type progressPoint struct {
	at time.Time
	n  int64
}

const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
	mHeapUnused   = "/memory/classes/heap/unused:bytes"
)

func readRuntime(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// heapInUse is runtime.MemStats.HeapInuse without stopping the world.
func heapInUse() uint64 {
	v := readRuntime(mHeapObjects, mHeapUnused)
	return v[0] + v[1]
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// samplePeriod is how often a phase looks at the heap, a sawtooth between
// collections with up to a hundred teeth a second. peak_heap_mb is the mean
// of the highest peakShare of the samples: the level the heap holds for its
// highest twentieth of the phase. The single highest sample is one tall tooth
// caught near its top, and differed by 4 to 9% (quartile to quartile) between
// runs of the same code while this benchmark was written; this differed by 1
// to 3%.
const (
	samplePeriod = 5 * time.Millisecond
	peakShare    = 0.05
)

// beginPhase starts measuring. progress, when not nil, is sampled with the
// heap so that a rate can be taken over part of the phase; tick, when not
// nil, runs on the sampler's goroutine after every sample.
func beginPhase(progress func() int64, tick func(*phase)) *phase {
	runtime.GC() // start every phase from the same heap, whatever ran before
	a := readRuntime(mAllocObjects, mAllocBytes)
	p := &phase{
		start: time.Now(), cpu0: cpuSeconds(), mallocs0: a[0], bytes0: a[1],
		stop: make(chan struct{}), progress: progress, tick: tick,
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case now := <-tick.C:
				p.heapMB = append(p.heapMB, float64(heapInUse())/(1<<20))
				if p.progress != nil {
					p.series = append(p.series, progressPoint{now, p.progress()})
				}
				if p.tick != nil {
					p.tick(p)
				}
			}
		}
	}()
	return p
}

// phaseStats is what a finished phase measured.
type phaseStats struct {
	Wall, CPU  float64
	Mallocs    uint64
	AllocBytes uint64
	PeakHeapMB float64
	Series     []progressPoint
}

func (p *phase) end() phaseStats {
	wall := time.Since(p.start).Seconds()
	cpu := cpuSeconds() - p.cpu0
	close(p.stop)
	p.done.Wait()
	a := readRuntime(mAllocObjects, mAllocBytes)
	heap := append(p.heapMB, float64(heapInUse())/(1<<20))
	sort.Float64s(heap)
	return phaseStats{
		Wall: wall, CPU: cpu, Mallocs: a[0] - p.mallocs0, AllocBytes: a[1] - p.bytes0,
		PeakHeapMB: mean(heap[len(heap)-max(1, int(peakShare*float64(len(heap)))):]), Series: p.series,
	}
}

// warmup is the part of a time-boxed phase left out of records_per_s: the
// first second fills buffer pools and grows the state maps.
const warmup = time.Second

// rateAfterWarmup is the progress made between the first sample taken at
// least warmup after first and the end, over the wall time between them.
func rateAfterWarmup(series []progressPoint, first, end time.Time, total int64) (float64, error) {
	for _, pt := range series {
		if pt.at.Sub(first) >= warmup && pt.at.Before(end) {
			return float64(total-pt.n) / end.Sub(pt.at).Seconds(), nil
		}
	}
	return 0, fmt.Errorf("measured phase of %v is shorter than the %v warm-up", end.Sub(first), warmup)
}

// universal fills the end-to-end metrics every workload reports from a
// phase and the number of input records it covered.
func (r *Result) universal(st phaseStats, records int64) {
	n := float64(records)
	r.Metrics["allocs_per_record"] = float64(st.Mallocs) / n
	r.Metrics["alloc_bytes_per_record"] = float64(st.AllocBytes) / n
	r.Metrics["cpu_us_per_record"] = st.CPU * 1e6 / n
	r.Metrics["peak_heap_mb"] = st.PeakHeapMB
	r.CPUSeconds = st.CPU
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the p-quantile (0 < p < 1) of samples by the
// nearest-rank rule. It refuses, with ok false, a percentile that has fewer
// than ten samples beyond it: the tail would be one or two outliers, not a
// distribution. samples is sorted in place.
func percentile(samples []float64, p float64) (v float64, ok bool) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n)))
	if n == 0 || n-rank < 10 || rank < 1 {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[rank-1], true
}

// scratch returns a fresh directory under the run's scratch directory.
func scratch(cfg Config, name string) (string, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.Dir, name+"-")
}

// outDir is where traces and scratch data go: inside the benchmark's own
// directory, whether the command runs there (go run -C benchmark .) or a
// built binary runs from the repository root.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}
