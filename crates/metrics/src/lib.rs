//! Deterministic, simulated-time metrics for the serving simulators.
//!
//! The serving layers (`memcnn-serve` single-device and fleet loops) are
//! discrete-event simulations whose reports are bit-identical regardless
//! of thread count. This crate gives them an observability layer with the
//! same guarantee: [`Recorder`] collects gauge samples keyed to the
//! *simulated* event clock — queue depth, in-flight images, utilization,
//! plan-cache hit rate, fault-ladder state — plus log-bucketed mergeable
//! latency [`Histogram`]s with sliding-window p50/p95/p99.
//!
//! Two export paths from the finished [`MetricsTimeline`]:
//!
//! * [`MetricsTimeline::emit_trace_counters`] renders every series as
//!   Perfetto counter tracks through `memcnn-trace`'s Chrome-trace
//!   exporter (`"C"`-phase events, one counter lane per series);
//! * [`MetricsTimeline::to_json`] produces the `metrics.json` timeline
//!   the scenario regression harness in `memcnn-bench` diffs against
//!   committed baselines.
//!
//! Determinism is the design constraint throughout: no wall clock, no
//! libm in the histogram bucketing (pure IEEE-754 bit manipulation), and
//! nothing sampled that depends on cross-thread scheduling. See
//! `DESIGN.md` §13 for the full argument.

#![warn(missing_docs)]

pub mod histogram;
pub mod timeline;

pub use histogram::{bucket_index, bucket_lower, bucket_upper, bucket_value, Histogram};
pub use histogram::{MAX_INDEX, SUB_BITS, SUB_BUCKETS};
pub use timeline::{
    GaugeId, KeyId, MetricsTimeline, Recorder, Sample, Series, SlidingWindow, DEFAULT_WINDOW,
};
