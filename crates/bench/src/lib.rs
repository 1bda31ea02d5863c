//! # memcnn-bench — evaluation harnesses
//!
//! [`figures`] regenerates every table and figure of the paper's
//! evaluation (Figs 1, 3-6, 10-15, Table 1, and the in-text claims:
//! thresholds, ALU utilization, softmax ablation, memory overhead, Titan X
//! results), printing the same rows/series the paper reports. The
//! `figures` binary exposes them as subcommands; Criterion benches cover
//! the real CPU performance of the functional kernels.
//!
//! [`profile`] is the tracing front-end: it runs one network under one
//! mechanism with the [`memcnn_trace`] collector enabled and writes a
//! Perfetto-loadable `trace.json` plus a human-readable `profile.txt`
//! (exposed as the `profile` binary).
//!
//! [`scenario`] is the one harness for the serving layer: declarative
//! `scenarios/*.toml` files (parsed by [`toml_lite`]) each describe one
//! fleet-serving run. The `scenario` binary replays each as fresh agent
//! processes at `MEMCNN_THREADS` 1 and 4 and under any declared oracle,
//! requires every run to reproduce the base run bit for bit, checks the
//! scenario's gates (metric bounds and host wall-time ratios), and diffs
//! the base run's metrics against committed `baselines/*.json`. The
//! simulated-clock serving claims (fleet scaling, deadline-aware vs
//! class-blind scheduling, crash recovery) are tier-1 tests built from
//! the same specs (`tests/serving_gates.rs`).

#![warn(missing_docs)]

pub mod figures;
pub mod layer_times;
pub mod profile;
pub mod scenario;
pub mod toml_lite;
pub mod util;
