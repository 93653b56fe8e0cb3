//! End-to-end and per-layer benchmark of the SCFS reproduction.
//!
//! See `BENCHMARK.json` at the repository root for the workloads, metrics
//! and the layer-to-metric map; `main.rs` is the command-line entry point.

pub mod probes;
pub mod scenario;
pub mod seams;
