package dataflow

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/metrics"
)

// timerIndex is the event-time timer service of the keyed window operators
// (Flink's, in miniature): each key has a deadline — the smallest watermark
// at which the key has anything to do — and a watermark visits only the keys
// whose deadline it has reached, so its cost follows the number of due keys
// instead of the number of keys.
//
// Deadlines sit in a min-heap of (deadline, key) entries and nothing else:
// no per-key record of what the index holds. The caller's own state says
// when a key needs an entry, and it keeps every key with something pending
// holding an entry at or before its deadline: it arms a key only when expire
// just returned it (it holds nothing then), when it is new, or when its
// deadline moved earlier than the caller last saw it. A deadline that moved
// later needs nothing: the key is visited early, finds nothing to do, and is
// re-armed. An entry left behind by an earlier deadline pops with its key's
// own or is dropped by expire's check; and once the heap has doubled since
// it last held one entry per key, arm compacts it back to each key's
// earliest, so entries stay proportional to the keys armed even where no
// watermark pops them (an at-rest replay buffers until its end).
//
// The index is derived state: it is never checkpointed, and Open rebuilds it
// from the restored keyed state.
type timerIndex struct {
	heap []timer
	kept int      // entries after the last compaction
	due  []uint64 // expire's result, reused across calls

	watermarks, keysFired *metrics.Counter
}

type timer struct {
	at  int64
	key uint64
}

// init readies the index and registers the node's useful-work counters:
// keys_fired / watermarks is the mean number of keys a watermark had to visit.
func (t *timerIndex) init(ctx *OpContext) {
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

// arm adds an entry for key at deadline at. math.MaxInt64 means "nothing
// pending" and is never armed: only the end-of-stream flush, which visits
// every key anyway, reaches it.
func (t *timerIndex) arm(key uint64, at int64) {
	if at == math.MaxInt64 {
		return
	}
	if len(t.heap) > 2*t.kept+64 {
		t.compact()
	}
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

// expire removes every entry with a deadline <= wm and returns the keys due
// at wm once each, ascending; the caller acts on each and re-arms it. live,
// when not nil, checks each popped entry: one it rejects is dropped, its key
// having nothing pending or another entry at or before its deadline. The
// result is valid until the next call.
func (t *timerIndex) expire(wm int64, live func(key uint64, at int64) bool) []uint64 {
	t.due = t.due[:0]
	for len(t.heap) > 0 && t.heap[0].at <= wm {
		top := t.pop()
		if live == nil || live(top.key, top.at) {
			t.due = append(t.due, top.key)
		}
	}
	slices.Sort(t.due)
	t.due = slices.Compact(t.due)
	return t.due
}

// compact keeps each key's earliest entry, the one its invariant needs. A
// slice sorted by deadline is a min-heap.
func (t *timerIndex) compact() {
	slices.SortFunc(t.heap, func(a, b timer) int { return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.at, b.at)) })
	t.heap = slices.CompactFunc(t.heap, func(a, b timer) bool { return a.key == b.key })
	slices.SortFunc(t.heap, func(a, b timer) int { return cmp.Compare(a.at, b.at) })
	t.kept = len(t.heap)
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
