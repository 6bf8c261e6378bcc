//! # crowd4u-perfbench — the repository's benchmark
//!
//! Four workloads drive the public API of `crowd4u-runtime` and
//! `crowd4u-core`: two open-loop answer workloads (`answers_deep`,
//! `answers_shallow`) and two closed-loop streams (`collab_market`,
//! `worker_churn`). An untraced run prints the end-to-end metrics; a
//! traced run (`--trace 1`) repeats the workload with telemetry on,
//! times the calls into each layer from outside the crates, and prints a
//! per-layer table plus the per-layer metrics. Every run checks its
//! outputs against a serial reference pass. See `perfbench/README.md`.

pub mod gen;
pub mod pin;
pub mod report;
pub mod runs;
pub mod serial;
pub mod stats;
