package dataflow

import "unsafe"

// Boxer puts record payloads of type T into interfaces, one allocation per
// DefaultBatchSize values instead of one per value. Box(v) is
// indistinguishable from any(v) — the same dynamic type, so type
// assertions, ==, map keys, reflect, fmt, gob and the wire codec all see a
// T — but its data word points into a []T slab the boxer owns.
//
// Invariants:
//   - a slab element is never written after it is boxed: Box writes each
//     element once and then only moves past it, so a boxed value is as
//     immutable as one any(v) made;
//   - slabs are never reused or pooled: a boxer that fills one allocates the
//     next, and the garbage collector frees a slab when the last value boxed
//     in it dies. A value kept downstream therefore pins at most
//     DefaultBatchSize values of T; engine state keeps unboxed values, so
//     only a caller's own collector holds boxes across runs;
//   - types an interface stores in its data word itself (pointers, maps,
//     chans, funcs, single-pointer structs and arrays) and interface types
//     pass through as any(v): there is nothing to allocate.
//
// A Boxer belongs to one goroutine (an operator subtask, a source reader, a
// connection's decoder); the values it returns may go anywhere. The zero
// value is ready to use.
type Boxer[T any] struct {
	slab []T // room left in the current slab
	typ  unsafe.Pointer
	mode uint8 // 0 until the first Box, then boxSlab or boxPass
}

const (
	boxSlab uint8 = iota + 1
	boxPass
)

// eface is the runtime layout of an empty interface.
type eface struct {
	typ, data unsafe.Pointer
}

// Box returns v as an interface value backed by the boxer's slab.
func (b *Boxer[T]) Box(v T) any {
	if len(b.slab) == 0 {
		if b.mode == 0 {
			b.init()
		}
		if b.mode == boxPass {
			return v
		}
		b.slab = make([]T, DefaultBatchSize)
	}
	p := &b.slab[0]
	*p = v
	b.slab = b.slab[1:]
	return *(*any)(unsafe.Pointer(&eface{typ: b.typ, data: unsafe.Pointer(p)}))
}

// init learns how an interface holds a T by boxing the zero T: a nil type
// word means T is an interface type, a nil data word that T is stored in the
// word itself. Every other type's boxes point at their value.
func (b *Boxer[T]) init() {
	var zero T
	e := any(zero)
	ef := (*eface)(unsafe.Pointer(&e))
	b.typ = ef.typ
	b.mode = boxSlab
	if ef.typ == nil || ef.data == nil {
		b.mode = boxPass
	}
}
