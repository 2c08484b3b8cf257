package dataflow

import (
	"math"
	"slices"

	"repro/internal/metrics"
)

// timerIndex is the event-time timer service of the keyed window operators
// (Flink's, in miniature): each key has at most one deadline — the smallest
// watermark at which the key has anything to emit — and a watermark visits
// only the keys whose deadline it has reached, so its cost follows the
// number of due keys instead of the number of keys.
//
// Deadlines sit in a min-heap with lazy invalidation. armed holds each key's
// live deadline; a heap entry that no longer matches it was superseded by an
// earlier one and is discarded when popped. A deadline that moved later (a
// session that kept growing) is not re-pushed: the key is visited early,
// finds nothing to emit, and is re-armed. The invariant both operators rely
// on: a key with a finite deadline d has armed[key] <= d, so a key that
// expire(wm) does not return has nothing to emit at wm.
//
// The index is derived state: it is never checkpointed, and Open rebuilds it
// from the restored keyed state.
type timerIndex struct {
	heap  []timer
	armed map[uint64]int64
	due   []uint64 // expire's result, reused across calls

	watermarks, keysFired *metrics.Counter
}

type timer struct {
	at  int64
	key uint64
}

// init readies the index and registers the node's useful-work counters:
// keys_fired / watermarks is the mean number of keys a watermark had to visit.
func (t *timerIndex) init(ctx *OpContext) {
	t.armed = make(map[uint64]int64)
	if ctx.Metrics != nil {
		t.watermarks = ctx.Metrics.Counter("node." + ctx.NodeName + ".watermarks")
		t.keysFired = ctx.Metrics.Counter("node." + ctx.NodeName + ".keys_fired")
	}
}

// count records one watermark that visited fired keys.
func (t *timerIndex) count(fired int) {
	if t.watermarks != nil {
		t.watermarks.Inc()
		t.keysFired.Add(int64(fired))
	}
}

// arm schedules key at deadline at unless it is already armed at or before
// it. math.MaxInt64 means "nothing pending" and is never armed: only the
// end-of-stream flush, which visits every key anyway, reaches it.
func (t *timerIndex) arm(key uint64, at int64) {
	if at == math.MaxInt64 {
		return
	}
	if cur, ok := t.armed[key]; ok && cur <= at {
		return
	}
	t.armed[key] = at
	t.heap = append(t.heap, timer{at: at, key: key})
	for i := len(t.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if t.heap[parent].at <= t.heap[i].at {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

// expire removes every timer with a deadline <= wm and returns its keys in
// ascending order, disarmed; the caller acts on each and re-arms it. The
// result is valid until the next call.
func (t *timerIndex) expire(wm int64) []uint64 {
	t.due = t.due[:0]
	for len(t.heap) > 0 && t.heap[0].at <= wm {
		top := t.pop()
		if at, ok := t.armed[top.key]; ok && at == top.at { // else superseded
			delete(t.armed, top.key)
			t.due = append(t.due, top.key)
		}
	}
	slices.Sort(t.due)
	return t.due
}

func (t *timerIndex) pop() timer {
	top := t.heap[0]
	n := len(t.heap) - 1
	t.heap[0] = t.heap[n]
	t.heap = t.heap[:n]
	for i := 0; ; {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if t.heap[c].at < t.heap[least].at {
				least = c
			}
		}
		if least == i {
			return top
		}
		t.heap[i], t.heap[least] = t.heap[least], t.heap[i]
		i = least
	}
}
