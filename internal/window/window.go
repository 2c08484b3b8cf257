// Package window implements STREAMLINE's window semantics in the style of
// Cutty (Carbone et al., CIKM 2016): windows are *deterministic user-defined
// window functions* (UDWFs). An assigner observes every element of an
// in-order stream (and every watermark) and declares window begins and ends
// through a Context. Determinism — the declarations depend only on the
// stream prefix observed so far — is the property that makes shared slicing
// correct: a slice boundary is cut at every window begin, so every window is
// a union of whole slices.
//
// Timestamps are int64 ticks; by convention the examples and benches use
// milliseconds. Element positions are 0-based stream offsets, so count-based
// windows use the same mechanism as time-based ones.
//
// Engines must call OnElement *before* incorporating the element, so a
// Close issued from OnElement excludes the current element, and an Open
// issued from OnElement places the slice boundary immediately before it.
package window

// Context is the callback surface through which an Assigner declares window
// boundaries. Implementations are provided by the window aggregation engines
// (internal/cutty, internal/baselines) and by the test Recorder.
//
// The two close variants make the content boundary explicit, which is what
// lets engines resolve window contents from shared slices without inspecting
// individual elements:
//
//   - CloseHere: the window's content ends at the current boundary — before
//     the element being processed (from OnElement), or after everything seen
//     so far (from OnTime). Used when the assigner knows the trigger point
//     itself delimits the content (sessions split by a gap element, count
//     windows, punctuation markers, end-of-stream flushes).
//
//   - CloseAt: the window's content is exactly the elements with timestamp
//     < cutoff. Only meaningful for time-measured windows and only needed
//     from OnTime, where the watermark may have overtaken elements that
//     belong to *later* windows (e.g. sliding windows whose end passed while
//     newer elements already arrived).
type Context interface {
	// Open declares that a window identified by id begins at the current
	// boundary: immediately before the element being processed when called
	// from OnElement, or at the current watermark when called from OnTime.
	// Ids must be unique among concurrently open windows of one query;
	// assigners conventionally use the window's start timestamp or start
	// position.
	Open(id int64)
	// CloseHere completes window id with content up to the current boundary.
	// end is the window's logical end, reported with the result.
	CloseHere(id, end int64)
	// CloseAt completes window id with content = elements with ts < cutoff.
	// end is the window's logical end, reported with the result (usually
	// equal to cutoff).
	CloseAt(id, end, cutoff int64)
}

// Assigner is a deterministic user-defined window function. Implementations
// are stateful and must not be shared across keys or queries; use a Factory.
type Assigner interface {
	// OnElement observes the element with event timestamp ts and stream
	// position pos before it is added to any slice. Values are visible so
	// that data-driven windows (punctuation, delta) can be expressed.
	OnElement(ts, pos int64, v float64, ctx Context)
	// OnTime observes the advance of event time to wm (a watermark).
	// Time-based windows close here.
	OnTime(wm int64, ctx Context)
	// NextTime reports the smallest wm for which OnTime(wm) is not a no-op:
	// the event time at which the assigner's earliest pending close falls
	// due. It is math.MaxInt64 when only the end-of-stream watermark (or
	// nothing at all) makes OnTime act. Callers may skip every OnTime call
	// below NextTime without changing what the assigner declares — the
	// contract behind the dataflow layer's event-time timer index.
	NextTime() int64
}

// Factory produces a fresh, independent Assigner instance (one per key and
// query).
type Factory func() Assigner

// Periodic is an optional interface: assigners for periodic time windows
// report their (size, slide) so that the Pairs and Panes baselines — which
// are only defined for periodic windows — can be configured. Non-periodic
// assigners simply do not implement it.
type Periodic interface {
	Periodic() (size, slide int64)
}

// Spec pairs a Factory with a human-readable name and optional periodicity,
// as registered with the engines.
type Spec struct {
	Name    string
	Factory Factory
	// Size and Slide are set for periodic time windows (Slide == Size for
	// tumbling); zero otherwise.
	Size  int64
	Slide int64
	// Args are the constructor's other arguments as fmt.Sprint prints them
	// (a session's gap, a count window's length), so that two specs built
	// with different arguments are told apart by the plan fingerprint.
	Args string
}

// IsPeriodic reports whether the spec describes a periodic time window.
func (s Spec) IsPeriodic() bool { return s.Size > 0 && s.Slide > 0 }
