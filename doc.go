// Package repro is a from-scratch Go reproduction of STREAMLINE
// (Grulich, Rabl, Markl, Sidló, Benczur: "STREAMLINE — Streamlined Analysis
// of Data at Rest and Data in Motion", EDBT 2017): a unified batch/stream
// analysis platform in the architecture of Apache Flink, together with the
// paper's two research highlights — the Cutty aggregate-sharing engine for
// user-defined windows and the I2 interactive visualization system with its
// data-rate-independent M4 time-series aggregation.
//
// The importable product surface is the streamline package: a typed,
// generics-based pipeline API (Stream[T] handles carrying Keyed[T] records)
// fed through a composable Source[T] connector API — slices and files for
// data at rest, channels and generators for data in motion, and the Hybrid
// connector for the paper's headline scenario, replaying stored history and
// seamlessly continuing on the live stream. Every typed operator lowers
// straight onto the untyped record engine's plan (internal/dataflow's
// Graph). Programs
// written against it — all examples/ and the CLIs — never perform a type
// assertion; the optimizer (operator chaining, adaptive combiner insertion,
// Cutty multi-query window sharing, architecture-sized parallelism) applies
// to typed plans unchanged.
//
// The examples tour the application scenarios:
//
//   - examples/quickstart — the smallest complete windowed pipeline
//   - examples/hybrid — at-rest→in-motion handoff: JSONL history replay
//     into a live channel, one plan across both
//   - examples/advertising — targeted-advertising CTR dashboards
//   - examples/retention — session windows for user retention
//   - examples/recommend — trending items and per-user taste profiles
//   - examples/weblang — multilingual Web classification, batch == stream
//   - examples/i2viz — I2/M4 interactive visualization
//
// The benchmarks in bench_test.go regenerate every experiment table
// (E1–E11).
package repro
