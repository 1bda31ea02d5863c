//! Batch records and the launch-attempt helpers of the fleet loop
//! ([`serve_fleet`](crate::fleet::serve_fleet)): the [`BatchRecord`] and
//! [`BucketStats`] rows its reports carry, greedy FIFO batch formation,
//! and the fault ladder every batch launch runs through.
//!
//! # Fault handling
//!
//! With a [`FaultPlan`] in the fleet config, every batch launch rolls the
//! plan (through [`Engine::execute_attempt`]) and `launch_ladder` answers
//! faults with the [`FaultPolicy`]'s degradation ladder instead of failing
//! the run: transients retry with deterministic backoff, execute-time OOM
//! downshifts the bucket and pins it (degraded mode) until a clean streak
//! passes, plan-time OOM permanently lowers the batch cap (the library
//! home of the bench's OOM-aware fallback), and hopeless work is shed —
//! requests whose queue wait exceeds the shed deadline, or batches whose
//! retry budget ran out. Every fault is accounted exactly once in
//! [`FaultStats`] (`injected == retried + degraded + shed`), mirrored to
//! the global perf registry (`fault.injected/retried/degraded/shed`,
//! `serve.shed`, `serve.degraded.enter/exit`, `serve.plan.oom`), and
//! emitted as a span on the `faults` Perfetto track. Because the fault
//! stream is a pure function of `(seed, launch key, launch index)`, a
//! faulted run replays bit-identically, independent of `MEMCNN_THREADS`.

use crate::policy::{FaultPolicy, FaultStats};
use crate::workload::Request;
use memcnn_core::{Engine, EngineError, Plan};
use memcnn_gpusim::FaultPlan;
use memcnn_trace as trace;
use serde::Serialize;

/// One launched batch.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BatchRecord {
    /// Launch time (GPU start of the first attempt), seconds.
    pub launch: f64,
    /// Completion time, seconds.
    pub done: f64,
    /// Requests folded into the batch.
    pub requests: usize,
    /// Images in the batch (before bucket rounding).
    pub images: usize,
    /// Bucket the batch executed in (plan's `N`).
    pub bucket: usize,
    /// Arrived-but-unserved requests left behind at launch.
    pub queue_depth: usize,
    /// Failed launch attempts before the one that completed (0: clean).
    pub attempts: u32,
    /// Throttle faults absorbed across the batch's attempts.
    pub throttled: u32,
}

/// Per-bucket aggregate of a finished run.
#[derive(Clone, Debug, Serialize)]
pub struct BucketStats {
    /// Bucket size (`N` its plan was compiled at).
    pub bucket: usize,
    /// Batches executed in this bucket.
    pub batches: usize,
    /// Total images those batches carried.
    pub images: usize,
    /// Mean fill: images per batch over bucket capacity, in (0, 1].
    pub fill: f64,
    /// The plan's convolution-layout signature (e.g. `CHWN` or
    /// `CHWN,NCHW,...`) — the paper-flavored observable: this string
    /// changes across buckets of the same network.
    pub conv_layouts: String,
    /// Layout transformations the plan inserts.
    pub transforms: usize,
    /// The plan's simulated service time, seconds.
    pub service_time: f64,
}

/// Greedy FIFO batch formation at time `launch`: take requests arrived by
/// `launch` (starting at `next`) while their images fit in `max`. Returns
/// `(end_index, images, full)`; `full` means the batch cannot grow even if
/// more requests were queued.
pub(crate) fn form(
    requests: &[Request],
    next: usize,
    launch: f64,
    max: usize,
) -> (usize, usize, bool) {
    let mut images = 0usize;
    let mut j = next;
    while j < requests.len() && requests[j].arrival <= launch {
        // A request larger than the whole batch is clamped rather than
        // rejected: it becomes a lone full batch.
        let imgs = requests[j].images.min(max);
        if images + imgs > max {
            return (j, images, true);
        }
        images += imgs;
        j += 1;
        if images == max {
            return (j, images, true);
        }
    }
    (j, images, false)
}

/// Emit a span on the faults track. The name/args builder only runs when
/// tracing is active, so hot loops pay no `format!`/`Vec` churn on the
/// (overwhelmingly common) untraced path.
pub(crate) fn fault_span<F>(ts: f64, dur: f64, build: F)
where
    F: FnOnce() -> (String, Vec<(trace::ArgValue, trace::ArgValue)>),
{
    trace::record_span(|| {
        let (name, args) = build();
        trace::SpanEvent {
            name,
            track: trace::Track::Faults,
            ts_us: ts * 1e6,
            dur_us: dur * 1e6,
            args,
        }
    });
}

/// How one batch's launch-attempt loop ended.
pub(crate) enum Outcome {
    /// The batch completed at `done`.
    Done { done: f64 },
    /// The batch was shed (retry exhaustion, or OOM at bucket 1); the
    /// device is busy until `at`.
    Shed { at: f64 },
    /// Execute-time OOM: re-form the batch at half the bucket; the device
    /// is busy until `at`.
    Downshift { at: f64 },
}

/// The finished ladder: how the batch ended, plus its retry/throttle
/// counts (the `BatchRecord` fields).
pub(crate) struct LadderEnd {
    pub(crate) outcome: Outcome,
    pub(crate) attempts: u32,
    pub(crate) throttles: u32,
}

/// The launch-attempt ladder: retry transients with deterministic
/// backoff, downshift on execute-time OOM (bucket > 1), shed at retry
/// exhaustion or OOM at bucket 1. Each attempt consumes one launch index
/// from `launches` and accounts into `stats`; `device` tags the fault
/// spans.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_ladder(
    engine: &Engine,
    plan: &Plan,
    fplan: Option<&FaultPlan>,
    launches: &mut u64,
    stats: &mut FaultStats,
    pol: &FaultPolicy,
    bucket: usize,
    launch: f64,
    device: usize,
) -> Result<LadderEnd, EngineError> {
    let tag = |mut args: Vec<(trace::ArgValue, trace::ArgValue)>| {
        args.push(("device".into(), device.to_string().into()));
        args
    };
    let mut launch_at = launch;
    let mut attempt: u32 = 0;
    let mut throttles: u32 = 0;
    let outcome = loop {
        let att = engine.execute_attempt(plan, fplan, *launches);
        *launches += 1;
        // Throttles are injected faults absorbed by degrading speed:
        // execution continued, slower. Counted immediately.
        stats.injected += att.throttled as u64;
        stats.degraded += att.throttled as u64;
        stats.throttled += att.throttled as u64;
        throttles += att.throttled;
        match att.error {
            None => break Outcome::Done { done: launch_at + att.time },
            Some(EngineError::Transient { layer, launch: idx, .. }) => {
                stats.injected += 1;
                if attempt < pol.max_retries {
                    attempt += 1;
                    stats.retried += 1;
                    let backoff = pol.backoff(attempt);
                    fault_span(launch_at + att.time, backoff, || {
                        (
                            format!("retry {attempt} after {layer}"),
                            tag(vec![("launch_index".into(), idx.to_string().into())]),
                        )
                    });
                    // The failed attempt's partial time is real device
                    // occupancy; the backoff is the policy's pause.
                    launch_at += att.time + backoff;
                } else {
                    stats.shed += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (
                            format!("retries exhausted at {layer}"),
                            tag(vec![("attempts".into(), (attempt + 1).to_string().into())]),
                        )
                    });
                    break Outcome::Shed { at: launch_at + att.time };
                }
            }
            Some(EngineError::ExecOom { layer, .. }) => {
                stats.injected += 1;
                if bucket > 1 {
                    stats.degraded += 1;
                    stats.oom_downshifts += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (
                            format!("OOM at {layer}: downshift {bucket} -> {}", bucket / 2),
                            tag(vec![("bucket".into(), bucket.to_string().into())]),
                        )
                    });
                    break Outcome::Downshift { at: launch_at + att.time };
                } else {
                    stats.shed += 1;
                    fault_span(launch_at + att.time, 0.0, || {
                        (format!("OOM at {layer} with bucket 1: shed"), tag(vec![]))
                    });
                    break Outcome::Shed { at: launch_at + att.time };
                }
            }
            Some(other) => return Err(other),
        }
    };
    Ok(LadderEnd { outcome, attempts: attempt, throttles })
}
