package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// DefaultNumKeyGroups is the number of key groups a plan uses when it does
// not choose one explicitly. Key groups are the unit of state partitioning
// and redistribution: a job may later restore at any parallelism up to this
// many keyed subtasks without splitting a group.
const DefaultNumKeyGroups = 128

// FNV-1a parameters for the engine-wide key hash.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash64 is THE key hash of the engine: FNV-1a over the 8 little-endian key
// bytes. Hash routing (internal/dataflow) and key-group assignment share it
// by construction, which is what makes routing and state partitioning agree.
func Hash64(key uint64) uint64 {
	h := fnvOffset64
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(key>>(8*i)))) * fnvPrime64
	}
	return h
}

// KeyOf hashes an arbitrary string to a partitioning key (FNV-1a over the
// string bytes). It lives next to Hash64 so every key hash in the engine has
// one definition: KeyOf produces the keys, Hash64 routes and groups them.
func KeyOf(s string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// KeyGroupFor maps a key to its key group: Hash64(key) % numKeyGroups. The
// key group is a property of the logical plan (numKeyGroups is a plan
// constant), never of the physical parallelism.
func KeyGroupFor(key uint64, numKeyGroups int) int {
	return int(Hash64(key) % uint64(numKeyGroups))
}

// GroupRangeFor returns the contiguous key-group range [start, end) owned by
// one subtask. Ranges partition [0, numKeyGroups) across the subtasks; a
// subtask whose range is empty (parallelism > numKeyGroups) owns no keys.
func GroupRangeFor(numKeyGroups, parallelism, subtask int) (start, end int) {
	start = (subtask*numKeyGroups + parallelism - 1) / parallelism
	end = ((subtask+1)*numKeyGroups + parallelism - 1) / parallelism
	return start, end
}

// SubtaskForGroup returns the subtask owning a key group at the given
// parallelism — the inverse of GroupRangeFor, and the routing function of
// hash-partitioned edges.
func SubtaskForGroup(group, numKeyGroups, parallelism int) int {
	return group * parallelism / numKeyGroups
}

// Codec serializes one cell value. Encode/Decode run inside a group blob's
// gob stream; Clone deep-copies a value so a copy-on-write capture can keep
// the original immutable while processing continues. A nil Clone declares
// the value immutable or value-like (numbers, strings): captures then share
// it without copying, and in-place mutation through GetMut is not needed.
type Codec[V any] struct {
	Encode func(enc *gob.Encoder, v V) error
	Decode func(dec *gob.Decoder) (V, error)
	Clone  func(v V) V
}

// GobCodec returns the codec for plainly gob-encodable value types with no
// in-place mutation (Clone is nil).
func GobCodec[V any]() Codec[V] {
	return Codec[V]{
		Encode: func(enc *gob.Encoder, v V) error { return enc.Encode(v) },
		Decode: func(dec *gob.Decoder) (V, error) {
			var v V
			err := dec.Decode(&v)
			return v, err
		},
	}
}

// SliceCodec returns the codec for append-only slice values: gob encoding
// plus a Clone that copies the slice header and elements, so sorting or
// compacting a slice in place (via GetMut) cannot reach into a capture.
func SliceCodec[E any]() Codec[[]E] {
	return Codec[[]E]{
		Encode: func(enc *gob.Encoder, v []E) error { return enc.Encode(v) },
		Decode: func(dec *gob.Decoder) ([]E, error) {
			var v []E
			err := dec.Decode(&v)
			return v, err
		},
		Clone: func(v []E) []E {
			out := make([]E, len(v))
			copy(out, v)
			return out
		},
	}
}

// KeyedState is an operator subtask's keyed state: a set of named cells
// whose physical unit is the key group. Operators register their cells in
// Open — in a deterministic order, the registration sequence is part of the
// snapshot protocol like cutty's AddQuery sequence — then read and write
// per-key values on the hot path. Snapshots capture a copy-on-write view per
// key group (Capture) and serialize it asynchronously; restore redistributes
// group blobs to whatever subtask owns each group after a rescale.
//
// A KeyedState belongs to one subtask goroutine; only Capture's returned
// view is touched from another goroutine (the async serializer), and the
// copy-on-write discipline keeps that view immutable.
type KeyedState struct {
	numGroups  int
	start, end int // owned range [start, end)
	cells      []keyedCell
	names      map[string]struct{}

	// active counts captures whose serialization has not finished yet.
	// While non-zero, mutations clone shared structures first; at zero,
	// cells mutate in place with no copying.
	active atomic.Int32
}

// NewKeyedState returns an empty keyed-state container for the subtask
// owning key groups [start, end) of numKeyGroups.
func NewKeyedState(numKeyGroups, start, end int) *KeyedState {
	if numKeyGroups <= 0 {
		numKeyGroups = DefaultNumKeyGroups
	}
	if start < 0 || end > numKeyGroups || start > end {
		panic(fmt.Sprintf("state: key-group range [%d,%d) outside [0,%d)", start, end, numKeyGroups))
	}
	return &KeyedState{
		numGroups: numKeyGroups,
		start:     start,
		end:       end,
		names:     make(map[string]struct{}),
	}
}

// NumKeyGroups returns the plan's key-group count.
func (ks *KeyedState) NumKeyGroups() int { return ks.numGroups }

// GroupRange returns the owned key-group range [start, end).
func (ks *KeyedState) GroupRange() (start, end int) { return ks.start, ks.end }

// register adds a cell; names must be unique per KeyedState.
func (ks *KeyedState) register(name string, c keyedCell) {
	if _, dup := ks.names[name]; dup {
		panic(fmt.Sprintf("state: duplicate cell %q", name))
	}
	ks.names[name] = struct{}{}
	ks.cells = append(ks.cells, c)
}

// groupIndex maps a key to the owned-slice index of its group, panicking on
// keys outside the owned range: those can only arrive through a routing /
// partitioning mismatch, which must fail loudly rather than corrupt state.
func (ks *KeyedState) groupIndex(key uint64) int {
	g := KeyGroupFor(key, ks.numGroups)
	if g < ks.start || g >= ks.end {
		panic(fmt.Sprintf("state: key %#x maps to key group %d outside owned range [%d,%d) — hash routing and state partitioning disagree", key, g, ks.start, ks.end))
	}
	return g - ks.start
}

// keyedCell is the untyped view of a registered cell.
type keyedCell interface {
	cellName() string
	// captureCell freezes the cell's owned groups and returns an immutable
	// per-group view for asynchronous serialization.
	captureCell() capturedCell
	// decodeGroup loads one group's portion of a snapshot blob.
	decodeGroup(dec *gob.Decoder, group int) error
}

// capturedCell is one cell's frozen view inside a Captured snapshot.
type capturedCell interface {
	encodeGroup(enc *gob.Encoder, group int) error
}

// ---- MapCell ---------------------------------------------------------------

// mapGroup is one key group of a MapCell. frozen marks the map as shared
// with an in-flight capture: the next mutation clones it first. dirty lists
// the keys whose values GetMut has cloned since the last capture — provably
// un-aliased private copies — so in-place mutation clones each value at
// most once per capture. Only GetMut's clone may mark a key dirty: a value
// stored with Put can alias captured memory (an appended slice shares its
// backing array with the captured header).
type mapGroup[V any] struct {
	m      map[uint64]V
	frozen bool
	dirty  map[uint64]struct{}
}

// MapCell is a typed per-key cell: one value per key, stored per key group.
// Values fetched with Get must be treated as read-only; use GetMut before
// mutating a value in place (engines, buffers) so copy-on-write can protect
// in-flight snapshot captures.
type MapCell[V any] struct {
	ks     *KeyedState
	name   string
	codec  Codec[V]
	groups []mapGroup[V]
}

// RegisterMap registers a per-key cell on ks under the given name.
func RegisterMap[V any](ks *KeyedState, name string, codec Codec[V]) *MapCell[V] {
	if codec.Encode == nil || codec.Decode == nil {
		panic(fmt.Sprintf("state: cell %q registered without codec", name))
	}
	c := &MapCell[V]{ks: ks, name: name, codec: codec, groups: make([]mapGroup[V], ks.end-ks.start)}
	ks.register(name, c)
	return c
}

func (c *MapCell[V]) cellName() string { return c.name }

func (c *MapCell[V]) group(key uint64) *mapGroup[V] {
	return &c.groups[c.ks.groupIndex(key)]
}

// thaw makes the group's map privately mutable. If a capture may still be
// serializing (ks.active > 0) the map is cloned; once the capture has landed
// the shared reference is gone and the map can be reused as-is.
func (c *MapCell[V]) thaw(g *mapGroup[V]) {
	if !g.frozen {
		return
	}
	if c.ks.active.Load() > 0 {
		m := make(map[uint64]V, len(g.m))
		for k, v := range g.m {
			m[k] = v
		}
		g.m = m
	}
	g.frozen = false
}

// markDirty records that key's value is private since the last capture.
func (c *MapCell[V]) markDirty(g *mapGroup[V], key uint64) {
	if c.codec.Clone == nil {
		return
	}
	if g.dirty == nil {
		g.dirty = make(map[uint64]struct{})
	}
	g.dirty[key] = struct{}{}
}

// Get returns the value stored under key. The value must not be mutated in
// place — use GetMut for that.
func (c *MapCell[V]) Get(key uint64) (V, bool) {
	v, ok := c.group(key).m[key]
	return v, ok
}

// getMutIn is GetMut on an already-resolved group.
func (c *MapCell[V]) getMutIn(g *mapGroup[V], key uint64) (V, bool) {
	v, ok := g.m[key]
	if !ok {
		return v, false
	}
	c.thaw(g)
	if c.codec.Clone != nil && c.ks.active.Load() > 0 {
		if _, private := g.dirty[key]; !private {
			v = c.codec.Clone(v)
			g.m[key] = v
			c.markDirty(g, key)
		}
	}
	return v, true
}

// putIn is Put on an already-resolved group.
func (c *MapCell[V]) putIn(g *mapGroup[V], key uint64, v V) {
	c.thaw(g)
	if g.m == nil {
		g.m = make(map[uint64]V)
	}
	g.m[key] = v
	// Revoke any privacy granted by an earlier GetMut: the stored value's
	// provenance is unknown, so the next GetMut must clone again.
	delete(g.dirty, key)
}

// GetMut returns the value stored under key for in-place mutation, cloning
// it first when it may be shared with an in-flight snapshot capture. With
// no capture in flight it is as cheap as Get — no clone, no bookkeeping
// (the dirty set only means anything during a capture window, and the next
// capture resets it).
func (c *MapCell[V]) GetMut(key uint64) (V, bool) {
	return c.getMutIn(c.group(key), key)
}

// Put stores a value under key. Put does NOT make the value private for
// in-place mutation: a stored value may alias captured memory (the classic
// case is an appended slice sharing its backing array with the captured
// header), so only GetMut — whose clone provably breaks the aliasing —
// grants privacy during a capture window.
func (c *MapCell[V]) Put(key uint64, v V) {
	c.putIn(c.group(key), key, v)
}

// Delete removes key's value.
func (c *MapCell[V]) Delete(key uint64) {
	g := c.group(key)
	c.thaw(g)
	delete(g.m, key)
	delete(g.dirty, key)
}

// KeyRef is a resolved handle to one key's slot in a MapCell: the key-group
// hash (Hash64 + range check) is paid once at RefFor, and every access
// through the ref skips it. It is the run-scoped state access of vectorized
// keyed operators, which touch each distinct key of a contiguous data run a
// handful of times (load, fold, store) and would otherwise rehash on every
// touch.
//
// A ref stays valid for the cell's lifetime: groups are laid out once at
// registration and never move. Every access re-reads the group's frozen
// flag and the capture counter, so the copy-on-write discipline — thaw on
// mutation, clone-on-GetMut during a capture window, privacy revocation on
// Put — is byte-for-byte the MapCell's own; holding a ref across a barrier
// is safe.
type KeyRef[V any] struct {
	c   *MapCell[V]
	g   *mapGroup[V]
	key uint64
}

// RefFor resolves key's group once and returns the ref. Like every cell
// access it panics on keys outside the owned range.
func (c *MapCell[V]) RefFor(key uint64) KeyRef[V] {
	return KeyRef[V]{c: c, g: c.group(key), key: key}
}

// Key returns the key the ref was resolved for.
func (r KeyRef[V]) Key() uint64 { return r.key }

// Get is MapCell.Get without the group hash.
func (r KeyRef[V]) Get() (V, bool) {
	v, ok := r.g.m[r.key]
	return v, ok
}

// GetMut is MapCell.GetMut without the group hash: it clones the value when
// an in-flight capture may still share it.
func (r KeyRef[V]) GetMut() (V, bool) {
	return r.c.getMutIn(r.g, r.key)
}

// Put is MapCell.Put without the group hash.
func (r KeyRef[V]) Put(v V) {
	r.c.putIn(r.g, r.key, v)
}

// Len counts keys across all owned groups.
func (c *MapCell[V]) Len() int {
	n := 0
	for i := range c.groups {
		n += len(c.groups[i].m)
	}
	return n
}

// Range calls f for every (key, value) pair, iterating key groups in order
// (map order within a group). Values are read-only; it stops when f returns
// false. The cell must not be mutated during Range.
func (c *MapCell[V]) Range(f func(key uint64, v V) bool) {
	for i := range c.groups {
		for k, v := range c.groups[i].m {
			if !f(k, v) {
				return
			}
		}
	}
}

// SortedKeys returns every key across the owned groups in ascending order —
// the deterministic iteration order used by emission paths.
func (c *MapCell[V]) SortedKeys() []uint64 {
	keys := make([]uint64, 0, c.Len())
	for i := range c.groups {
		for k := range c.groups[i].m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// capturedMap is a MapCell's frozen per-group view.
type capturedMap[V any] struct {
	cell  *MapCell[V]
	start int
	maps  []map[uint64]V
}

func (c *MapCell[V]) captureCell() capturedCell {
	cm := &capturedMap[V]{cell: c, start: c.ks.start, maps: make([]map[uint64]V, len(c.groups))}
	for i := range c.groups {
		cm.maps[i] = c.groups[i].m
		c.groups[i].frozen = true
		c.groups[i].dirty = nil
	}
	return cm
}

// encodeGroup writes one group's entries in ascending key order, so a
// group's blob is a deterministic function of its contents.
func (cm *capturedMap[V]) encodeGroup(enc *gob.Encoder, group int) error {
	m := cm.maps[group-cm.start]
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if err := enc.Encode(len(keys)); err != nil {
		return err
	}
	for _, k := range keys {
		if err := enc.Encode(k); err != nil {
			return err
		}
		if err := cm.cell.codec.Encode(enc, m[k]); err != nil {
			return fmt.Errorf("cell %q key %#x: %w", cm.cell.name, k, err)
		}
	}
	return nil
}

func (c *MapCell[V]) decodeGroup(dec *gob.Decoder, group int) error {
	var n int
	if err := dec.Decode(&n); err != nil {
		return err
	}
	g := &c.groups[group-c.ks.start]
	if g.m == nil && n > 0 {
		// n is read from the blob: presize by it only as far as a blob can
		// plausibly hold, so a corrupt count cannot allocate on its own.
		g.m = make(map[uint64]V, min(n, 1<<12))
	}
	for i := 0; i < n; i++ {
		var k uint64
		if err := dec.Decode(&k); err != nil {
			return err
		}
		v, err := c.codec.Decode(dec)
		if err != nil {
			return fmt.Errorf("cell %q key %#x: %w", c.name, k, err)
		}
		g.m[k] = v
	}
	return nil
}

// ---- GroupCell -------------------------------------------------------------

// GroupCell is a per-key-group scalar — state that is logically "one value
// for every key in the group", like the watermark a group of keys has been
// released up to. Unlike a per-subtask scalar it redistributes exactly under
// rescaling. Values should be value-like (no in-place mutation).
type GroupCell[V any] struct {
	ks    *KeyedState
	name  string
	codec Codec[V]
	vals  []V
}

// RegisterPerGroup registers a per-group scalar cell on ks, initialized to
// init for every owned group.
func RegisterPerGroup[V any](ks *KeyedState, name string, init V, codec Codec[V]) *GroupCell[V] {
	if codec.Encode == nil || codec.Decode == nil {
		panic(fmt.Sprintf("state: cell %q registered without codec", name))
	}
	c := &GroupCell[V]{ks: ks, name: name, codec: codec, vals: make([]V, ks.end-ks.start)}
	for i := range c.vals {
		c.vals[i] = init
	}
	ks.register(name, c)
	return c
}

func (c *GroupCell[V]) cellName() string { return c.name }

// Get returns the scalar of the key's group.
func (c *GroupCell[V]) Get(key uint64) V { return c.vals[c.ks.groupIndex(key)] }

// Set stores the scalar of the key's group.
func (c *GroupCell[V]) Set(key uint64, v V) { c.vals[c.ks.groupIndex(key)] = v }

// SetAll stores v into every owned group.
func (c *GroupCell[V]) SetAll(v V) {
	for i := range c.vals {
		c.vals[i] = v
	}
}

// capturedGroup copies the scalars at capture time (O(#groups), cheap).
type capturedGroup[V any] struct {
	cell  *GroupCell[V]
	start int
	vals  []V
}

func (c *GroupCell[V]) captureCell() capturedCell {
	vals := make([]V, len(c.vals))
	copy(vals, c.vals)
	if c.codec.Clone != nil {
		for i := range vals {
			vals[i] = c.codec.Clone(vals[i])
		}
	}
	return &capturedGroup[V]{cell: c, start: c.ks.start, vals: vals}
}

func (cg *capturedGroup[V]) encodeGroup(enc *gob.Encoder, group int) error {
	return cg.cell.codec.Encode(enc, cg.vals[group-cg.start])
}

func (c *GroupCell[V]) decodeGroup(dec *gob.Decoder, group int) error {
	v, err := c.codec.Decode(dec)
	if err != nil {
		return fmt.Errorf("cell %q: %w", c.name, err)
	}
	c.vals[group-c.ks.start] = v
	return nil
}

// ---- capture / restore -----------------------------------------------------

// Captured is a consistent copy-on-write view of a KeyedState, taken at a
// checkpoint barrier. Taking it is cheap — O(#cells x #groups) flag flips
// and scalar copies, no serialization — so the barrier path stays fast;
// EncodeGroups then serializes the view from another goroutine while the
// operator keeps processing (mutations clone shared structures first).
type Captured struct {
	ks         *KeyedState
	start, end int
	names      []string
	cells      []capturedCell
	released   bool
}

// Capture freezes the current state into an immutable view. The caller must
// call Release (or EncodeGroups, which releases on completion) exactly once,
// after which mutations stop paying the copy-on-write cost.
func (ks *KeyedState) Capture() *Captured {
	c := &Captured{ks: ks, start: ks.start, end: ks.end}
	for _, cell := range ks.cells {
		c.names = append(c.names, cell.cellName())
		c.cells = append(c.cells, cell.captureCell())
	}
	ks.active.Add(1)
	return c
}

// Release declares the capture no longer in use, ending the copy-on-write
// window. Idempotent.
func (c *Captured) Release() {
	if c.released {
		return
	}
	c.released = true
	c.ks.active.Add(-1)
}

// GroupRange returns the captured key-group range [start, end).
func (c *Captured) GroupRange() (start, end int) { return c.start, c.end }

// EncodeGroup serializes one key group of the view: every cell in
// registration order, each prefixed with its name.
func (c *Captured) EncodeGroup(group int) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i, cc := range c.cells {
		if err := enc.Encode(c.names[i]); err != nil {
			return nil, err
		}
		if err := cc.encodeGroup(enc, group); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// EncodeGroups serializes every captured key group — the asynchronous phase
// of a snapshot — and releases the capture.
func (c *Captured) EncodeGroups() (map[int][]byte, error) {
	defer c.Release()
	out := make(map[int][]byte, c.end-c.start)
	for g := c.start; g < c.end; g++ {
		blob, err := c.EncodeGroup(g)
		if err != nil {
			return nil, fmt.Errorf("state: encode key group %d: %w", g, err)
		}
		out[g] = blob
	}
	return out, nil
}

// RestoreGroup loads one key group's snapshot blob into the registered
// cells. The group must lie in the owned range and the cells must have been
// registered in the same order as when the blob was written.
func (ks *KeyedState) RestoreGroup(group int, blob []byte) error {
	if group < ks.start || group >= ks.end {
		return fmt.Errorf("state: restore of key group %d outside owned range [%d,%d)", group, ks.start, ks.end)
	}
	dec := gob.NewDecoder(bytes.NewReader(blob))
	for _, cell := range ks.cells {
		var name string
		if err := dec.Decode(&name); err != nil {
			return fmt.Errorf("state: restore key group %d: %w", group, err)
		}
		if name != cell.cellName() {
			return fmt.Errorf("state: restore key group %d: cell %q in snapshot, %q registered (registration order changed, or a snapshot of an older format?)", group, name, cell.cellName())
		}
		if err := cell.decodeGroup(dec, group); err != nil {
			return fmt.Errorf("state: restore key group %d: %w", group, err)
		}
	}
	return nil
}
