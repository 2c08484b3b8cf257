package state

import (
	"encoding/binary"
	"fmt"
	"slices"
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

// Capturing reports whether a capture's serialization may still be reading
// the cells. While it does, a stored value may be shared with the captured
// view and is mutated only through GetMut's copy; while it does not, every
// stored value is private to the subtask goroutine (see thaw), so a value an
// operator takes out of a cell may be mutated in place or reused.
func (ks *KeyedState) Capturing() bool { return ks.active.Load() > 0 }

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
	// decodeGroup loads the cell's section of one group's snapshot blob.
	decodeGroup(section []byte, group int) error
}

// capturedCell is one cell's frozen view inside a Captured snapshot.
type capturedCell interface {
	// appendGroup appends the cell's section of one group's blob to b.
	appendGroup(b []byte, group int) []byte
}

// ---- MapCell ---------------------------------------------------------------

// mapGroup is one key group of a MapCell: its table, and frozen, which
// marks the table's slots as shared with an in-flight capture, so the next
// mutation copies the slot slice first. dirty lists the keys whose values
// GetMut has cloned since the last capture — provably un-aliased private
// copies — so in-place mutation clones each value at most once per capture.
// Only GetMut's clone may mark a key dirty: a value stored with Put can
// alias captured memory (an appended slice shares its backing array with the
// captured header).
type mapGroup[V any] struct {
	tab    table[V]
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
	if !codec.valid() {
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

// thaw makes the group's table privately mutable. If a capture may still be
// serializing (ks.active > 0) the slot slice is copied — one allocation and
// a memory copy that keeps every key at its slot index; once the capture
// has landed nothing else reads the slots and they are reused as they are.
// The rest of the table header was copied by the capture itself.
func (c *MapCell[V]) thaw(g *mapGroup[V]) {
	if !g.frozen {
		return
	}
	if c.ks.active.Load() > 0 {
		g.tab.slots = slices.Clone(g.tab.slots)
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
	return c.group(key).tab.get(key)
}

// getMutIn is GetMut on an already-resolved group.
func (c *MapCell[V]) getMutIn(g *mapGroup[V], key uint64) (V, bool) {
	p := g.tab.find(key)
	if p == nil {
		var zero V
		return zero, false
	}
	if g.frozen {
		c.thaw(g)
		p = g.tab.find(key)
	}
	if c.codec.Clone != nil && c.ks.active.Load() > 0 {
		if _, private := g.dirty[key]; !private {
			*p = c.codec.Clone(*p)
			c.markDirty(g, key)
		}
	}
	return *p, true
}

// putIn is Put on an already-resolved group.
func (c *MapCell[V]) putIn(g *mapGroup[V], key uint64, v V) {
	c.thaw(g)
	g.tab.put(key, v)
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
	g.tab.delete(key)
	delete(g.dirty, key)
}

// KeyRef is a resolved handle to one key in a MapCell: the key-group hash
// (Hash64 + range check) and the probe for the key's slot are paid once at
// RefFor, and every access through the ref skips them. It is the run-scoped
// state access of vectorized keyed operators, which touch each distinct key
// of a contiguous data run a handful of times (load, fold, store) and would
// otherwise rehash on every touch.
//
// A ref stays valid for the cell's lifetime: groups are laid out once at
// registration and never move. The cached slot is only a hint, checked on
// every use: it is used while it still holds the ref's key and probed for
// again otherwise (growth moves keys, and a delete can shift another key
// into it; a thaw's copy keeps them in place). Every access re-reads the
// group's frozen flag and the capture counter, so the copy-on-write
// discipline — thaw on mutation, clone-on-GetMut during a capture window,
// privacy revocation on Put — is byte-for-byte the MapCell's own; holding a
// ref across a barrier is safe.
type KeyRef[V any] struct {
	c    *MapCell[V]
	g    *mapGroup[V]
	key  uint64
	slot int // the key's slot at RefFor; -1 when the key was absent or 0
}

// RefFor resolves key's group and slot once and returns the ref. Like every
// cell access it panics on keys outside the owned range.
func (c *MapCell[V]) RefFor(key uint64) KeyRef[V] {
	g := c.group(key)
	return KeyRef[V]{c: c, g: g, key: key, slot: g.tab.slotOf(key)}
}

// Key returns the key the ref was resolved for.
func (r KeyRef[V]) Key() uint64 { return r.key }

// cached returns the ref's slot while it still holds the ref's key.
func (r *KeyRef[V]) cached() *slot[V] {
	if s := r.g.tab.slots; uint(r.slot) < uint(len(s)) && s[r.slot].key == r.key {
		return &s[r.slot]
	}
	return nil
}

// Get is MapCell.Get without the group hash and, while the cached slot
// holds the key, without the probe.
func (r KeyRef[V]) Get() (V, bool) {
	if s := r.cached(); s != nil {
		return s.val, true
	}
	return r.g.tab.get(r.key)
}

// GetMut is MapCell.GetMut without the group hash: it clones the value when
// an in-flight capture may still share it.
func (r KeyRef[V]) GetMut() (V, bool) {
	return r.c.getMutIn(r.g, r.key)
}

// Put is MapCell.Put without the group hash. A value with no Clone written
// over the key's cached slot in a thawed group is a store and nothing else:
// no privacy to revoke, no copy to make.
func (r KeyRef[V]) Put(v V) {
	if r.c.codec.Clone == nil && !r.g.frozen {
		if s := r.cached(); s != nil {
			s.val = v
			return
		}
	}
	r.c.putIn(r.g, r.key, v)
}

// Len counts keys across all owned groups.
func (c *MapCell[V]) Len() int {
	n := 0
	for i := range c.groups {
		n += c.groups[i].tab.len()
	}
	return n
}

// Range calls f for every (key, value) pair, iterating key groups in order
// (slot order within a group). Values are read-only; it stops when f returns
// false. The cell must not be mutated during Range.
func (c *MapCell[V]) Range(f func(key uint64, v V) bool) {
	for i := range c.groups {
		for k, v := range c.groups[i].tab.all {
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
		for k := range c.groups[i].tab.all {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// capturedMap is a MapCell's frozen per-group view: a copy of each group's
// table header, sharing the slots the live groups keep frozen. pairs and tmp
// are the scratch appendGroup sorts a group's entries in.
type capturedMap[V any] struct {
	cell  *MapCell[V]
	start int
	tabs  []table[V]
	pairs []slot[V]
	tmp   []slot[V]
}

func (c *MapCell[V]) captureCell() capturedCell {
	cm := &capturedMap[V]{cell: c, start: c.ks.start, tabs: make([]table[V], len(c.groups))}
	for i := range c.groups {
		cm.tabs[i] = c.groups[i].tab
		c.groups[i].frozen = true
		c.groups[i].dirty = nil
	}
	return cm
}

// appendGroup writes one group's entries in ascending key order, so a
// group's section is a deterministic function of its contents.
func (cm *capturedMap[V]) appendGroup(b []byte, group int) []byte {
	pairs := cm.pairs[:0]
	for k, v := range cm.tabs[group-cm.start].all {
		pairs = append(pairs, slot[V]{k, v})
	}
	pairs, cm.tmp = sortSlots(pairs, cm.tmp)
	cm.pairs = pairs
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	prev := uint64(0)
	for _, p := range pairs {
		b = binary.AppendUvarint(b, p.key-prev)
		prev = p.key
	}
	for _, p := range pairs {
		b = cm.cell.codec.Append(b, p.val)
	}
	return b
}

// decodeGroup checks every key of the section before it sizes the group's
// table for them, then reads the keys a second time beside their values.
func (c *MapCell[V]) decodeGroup(section []byte, group int) error {
	n, b, err := ReadCount(section, 1)
	if err != nil {
		return err
	}
	keys := b
	var prev uint64
	for i := 0; i < n; i++ {
		var d uint64
		if d, b, err = ReadUvarint(b); err != nil {
			return err
		}
		k := prev + d
		if i > 0 && k <= prev {
			return fmt.Errorf("keys not ascending after %#x", prev)
		}
		if KeyGroupFor(k, c.ks.numGroups) != group {
			return fmt.Errorf("key %#x does not belong to key group %d", k, group)
		}
		prev = k
	}
	g := &c.groups[group-c.ks.start]
	c.thaw(g)
	g.tab.reserve(g.tab.len() + n)
	for k := uint64(0); n > 0; n-- {
		d, rest, _ := ReadUvarint(keys)
		keys, k = rest, k+d
		var v V
		if v, b, err = c.codec.Read(b); err != nil {
			return fmt.Errorf("key %#x: %w", k, err)
		}
		g.tab.put(k, v)
	}
	if len(b) != 0 {
		return fmt.Errorf("%d trailing bytes", len(b))
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
	if !codec.valid() {
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

func (cg *capturedGroup[V]) appendGroup(b []byte, group int) []byte {
	return cg.cell.codec.Append(b, cg.vals[group-cg.start])
}

func (c *GroupCell[V]) decodeGroup(section []byte, group int) error {
	v, rest, err := c.codec.Read(section)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes", len(rest))
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

// blobEncoder is the scratch one EncodeGroups call reuses across its groups.
type blobEncoder struct {
	sec []byte // the section of the cell being encoded
	buf []byte // the blob of the group being encoded
}

// EncodeGroup serializes one key group of the view: every cell in
// registration order, each its name and its section. Typed encodings do not
// fail; the error is always nil.
func (c *Captured) EncodeGroup(group int) ([]byte, error) {
	return c.encodeGroup(group, &blobEncoder{}), nil
}

// encodeGroup writes the blob into e's scratch first, so the blob returned
// is allocated once at its final size.
func (c *Captured) encodeGroup(group int, e *blobEncoder) []byte {
	e.buf = e.buf[:0]
	for i, cc := range c.cells {
		e.sec = cc.appendGroup(e.sec[:0], group)
		e.buf = AppendBytes(AppendBytes(e.buf, c.names[i]), e.sec)
	}
	return slices.Clone(e.buf)
}

// EncodeGroups serializes every captured key group — the asynchronous phase
// of a snapshot — and releases the capture. The error is always nil, as
// EncodeGroup's.
func (c *Captured) EncodeGroups() (map[int][]byte, error) {
	defer c.Release()
	out := make(map[int][]byte, c.end-c.start)
	var e blobEncoder
	for g := c.start; g < c.end; g++ {
		out[g] = c.encodeGroup(g, &e)
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
	for _, cell := range ks.cells {
		name, rest, err := ReadBytes(blob)
		if err != nil {
			return fmt.Errorf("state: restore key group %d: cell name: %w", group, err)
		}
		if string(name) != cell.cellName() {
			return fmt.Errorf("state: restore key group %d: cell %q in snapshot, %q registered (registration order changed, or a snapshot of an older format?)", group, name, cell.cellName())
		}
		section, rest, err := ReadBytes(rest)
		if err != nil {
			return fmt.Errorf("state: restore key group %d: cell %q: %w", group, name, err)
		}
		if err := cell.decodeGroup(section, group); err != nil {
			return fmt.Errorf("state: restore key group %d: cell %q: %w", group, name, err)
		}
		blob = rest
	}
	if len(blob) != 0 {
		return fmt.Errorf("state: restore key group %d: %d trailing bytes after the last cell", group, len(blob))
	}
	return nil
}
