package streamline

// Convenience source entry points over the connector API. Each is sugar for
// From with a built-in connector.

// FromChannel creates a live in-motion stream fed by a Go channel; closing
// the channel ends the stream. The source defaults to parallelism 1 —
// subtasks would share the channel, splitting records — which
// WithSourceParallelism overrides.
//
// Equivalent to From(env, name, Channel(c), ...).
func FromChannel[T any](env *Env, name string, c <-chan Keyed[T], opts ...SourceOption) *Stream[T] {
	return From(env, name, Channel(c), opts...)
}

// FromJSONL creates a bounded stream from JSON-lines files at rest (a
// single file, a directory, or a glob), one document per line decoded into
// T, scanned in parallel byte-range splits. Pair with WithTimestamps to
// extract event time from the decoded values; use the JSONL connector
// directly to tune the split size (WithSplitSize).
//
// Equivalent to From(env, name, JSONL[T](input), ...).
func FromJSONL[T any](env *Env, name string, input string, opts ...SourceOption) *Stream[T] {
	return From(env, name, JSONL[T](input), opts...)
}

// FromCSV creates a bounded stream from CSV files at rest (a single file, a
// directory, or a glob), one row per record parsed into T, scanned in
// parallel quote-aware byte-range splits. skipHeader drops the first row of
// every file. Pair with WithTimestamps to extract event time from the
// parsed values; use the CSV connector directly to tune the split size.
//
// Equivalent to From(env, name, CSV(input, skipHeader, parse), ...).
func FromCSV[T any](env *Env, name string, input string, skipHeader bool, parse func(row []string) (T, error), opts ...SourceOption) *Stream[T] {
	return From(env, name, CSV(input, skipHeader, parse), opts...)
}
