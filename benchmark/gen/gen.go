// Package gen holds the benchmark's deterministic input generators. Every
// input is a pure function of (seed, subtask, index): a reader can be
// snapshotted as one cursor, two runs with the same seed feed the engine the
// same records, and the reference in package ref can regenerate them without
// touching engine code.
package gen

import "math"

// Event is the record the at-rest workloads store as one JSON document and
// the in-motion workloads carry as a keyed value.
type Event struct {
	Ts  int64   `json:"ts"`
	Key uint64  `json:"k"`
	Val float64 `json:"v"`
}

// Mix is the splitmix64 finalizer: a bijective scrambler good enough to turn
// a counter into independent-looking draws.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Draw returns the lane-th random word of record i of one subtask.
func Draw(seed uint64, sub int, i int64, lane uint64) uint64 {
	return Mix(Mix(seed^uint64(sub+1)*0xa0761d6478bd642f) + uint64(i)*4 + lane)
}

// below maps a random word onto [0, n) without modulo bias worth caring
// about (n is far below 2^32 everywhere in the benchmark).
func below(u uint64, n int) int {
	return int((u >> 32) * uint64(n) >> 32)
}

// Zipf draws ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s, in O(1)
// per draw through Vose's alias method. Rank 0 is the hottest key.
type Zipf struct {
	prob  []float64
	alias []int32
}

// NewZipf builds the alias table for n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
		sum += w[k]
	}
	z := &Zipf{prob: make([]float64, n), alias: make([]int32, n)}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for k := range w {
		w[k] = w[k] / sum * float64(n)
		if w[k] < 1 {
			small = append(small, int32(k))
		} else {
			large = append(large, int32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		z.prob[s], z.alias[s] = w[s], l
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, k := range append(small, large...) {
		z.prob[k], z.alias[k] = 1, k
	}
	return z
}

// Rank maps one random word to a rank.
func (z *Zipf) Rank(u uint64) int {
	k := below(u, len(z.prob))
	// The low 32 bits are independent of the slot choice above.
	if float64(uint32(u))/(1<<32) < z.prob[k] {
		return k
	}
	return int(z.alias[k])
}

// Func generates record i of one subtask of a source running at the given
// parallelism.
type Func func(sub, par int, i int64) Event

// Uniform draws keys uniformly from [0, keys). Event time advances one tick
// every perTick records of the whole stage, in order; values are integers in
// [1, maxVal] so that float sums are exact in any arrival order (maxVal 1
// makes the sum of all values the record count).
func Uniform(seed uint64, keys, perTick, maxVal int) Func {
	return func(sub, par int, i int64) Event {
		g := i*int64(par) + int64(sub)
		u := Draw(seed, sub, i, 0)
		return Event{Ts: g / int64(perTick), Key: uint64(below(u, keys)), Val: float64(1 + int(uint32(u))%maxVal)}
	}
}

// Disordered is the windows workload's shape: Zipf keys, perTick records per
// event-time tick, every timestamp pulled back by a uniform jitter below
// disorder (bounded disorder, never late under a watermark lag of disorder),
// and a lateShare of records pulled back by lateBy..2*lateBy beyond the lag,
// which the window operator must drop once its watermark has passed them.
func Disordered(seed uint64, z *Zipf, perTick int, disorder int64, lateShare float64, lateBy int64) Func {
	lateCut := uint64(lateShare * (1 << 32))
	return func(sub, par int, i int64) Event {
		g := i*int64(par) + int64(sub)
		u, v := Draw(seed, sub, i, 0), Draw(seed, sub, i, 1)
		ts := g/int64(perTick) - int64(below(v, int(disorder)))
		if uint64(uint32(v)) < lateCut {
			ts -= disorder + lateBy + int64(below(Draw(seed, sub, i, 2), int(lateBy)))
		}
		if ts < 0 {
			ts = 0
		}
		return Event{Ts: ts, Key: uint64(z.Rank(u)), Val: float64(1 + uint32(u>>7)%100)}
	}
}

// LateByDesign reports whether Disordered marked record i of a subtask late.
// The timed run uses it to bound the conservation deficit: only these
// records may be missing from the window counts.
func LateByDesign(seed uint64, lateShare float64, sub int, i int64) bool {
	return uint64(uint32(Draw(seed, sub, i, 1))) < uint64(lateShare*(1<<32))
}

// WarmThenSkew is the checkpoint workload's shape: the stage first emits
// every one of keys once (so the state reaches its full size early), then
// draws Zipf ranks over the same keys, so churn stays far below state size.
// Every value is 1: the sum of all final per-key sums equals the number of
// records the readers handed over.
func WarmThenSkew(seed uint64, z *Zipf, keys int) Func {
	return func(sub, par int, i int64) Event {
		g := i*int64(par) + int64(sub)
		if g < int64(keys) {
			return Event{Ts: g, Key: uint64(g), Val: 1}
		}
		return Event{Ts: g, Key: uint64(z.Rank(Draw(seed, sub, i, 0))), Val: 1}
	}
}
