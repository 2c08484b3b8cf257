package dataflow

// This file holds the scratch structures of the keyed operators' OnBatch: a
// small open-addressing table that groups one contiguous data run by key
// (keyTable), reused across batches so the steady state allocates nothing.
// Keyed operators use it to touch their per-key state once per distinct key
// per run instead of once per record; the exchange stager uses the same
// run-at-a-time discipline for hash routing (see outputs.dataBatch).

// keyTable maps the record keys of one data run to dense indices 0..n-1 in
// first-touch order. It is an open-addressing, power-of-two table with
// epoch-stamped slots: reset is O(1) (bump the epoch), lookups are a cheap
// mixed hash plus linear probing, and the table only grows — across batches
// it settles at the run's distinct-key count and stops allocating.
//
// Record keys are often small sequential integers (not pre-hashed), so slot
// placement runs them through a 64-bit finalizer mix rather than using the
// low bits directly.
type keyTable struct {
	keys  []uint64 // slot -> key (valid when stamp matches)
	dense []int32  // slot -> dense index (valid when stamp matches)
	stamp []uint32 // slot -> epoch of last write
	epoch uint32
	mask  uint64
	order []uint64 // dense index -> key, first-touch order
}

const keyTableMinSlots = 128

// mix64 is the splitmix64 finalizer — a full-avalanche scramble so
// sequential keys spread across slots.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (t *keyTable) init(slots int) {
	t.keys = make([]uint64, slots)
	t.dense = make([]int32, slots)
	t.stamp = make([]uint32, slots)
	t.mask = uint64(slots - 1)
	t.epoch = 1
}

// reset starts a new run: previous entries expire by epoch, nothing is
// cleared.
func (t *keyTable) reset() {
	if t.stamp == nil {
		t.init(keyTableMinSlots)
	}
	t.order = t.order[:0]
	t.epoch++
	if t.epoch == 0 { // uint32 wrap: stale stamps could alias epoch 0
		clear(t.stamp)
		t.epoch = 1
	}
}

// index returns key's dense index for the current run, assigning the next
// one (and recording the key in first-touch order) on first sight.
func (t *keyTable) index(key uint64) (idx int32, fresh bool) {
	if len(t.order)*2 >= len(t.keys) {
		t.grow()
	}
	h := mix64(key) & t.mask
	for {
		if t.stamp[h] != t.epoch {
			t.stamp[h] = t.epoch
			t.keys[h] = key
			idx = int32(len(t.order))
			t.dense[h] = idx
			t.order = append(t.order, key)
			return idx, true
		}
		if t.keys[h] == key {
			return t.dense[h], false
		}
		h = (h + 1) & t.mask
	}
}

// distinct returns the run's distinct keys in first-touch order; the slice
// is valid until the next reset.
func (t *keyTable) distinct() []uint64 { return t.order }

// grow doubles the table, reinserting the current run's keys. Load stays
// below 1/2, keeping probe chains short.
func (t *keyTable) grow() {
	order := t.order
	t.init(2 * len(t.keys))
	t.order = order
	for i, key := range order {
		h := mix64(key) & t.mask
		for t.stamp[h] == t.epoch {
			h = (h + 1) & t.mask
		}
		t.stamp[h] = t.epoch
		t.keys[h] = key
		t.dense[h] = int32(i)
	}
}
