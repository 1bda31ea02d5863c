//! Single-device serving: the [`ServeConfig`]/[`ServeReport`] surface and
//! the launch-attempt helpers the event loop shares.
//!
//! [`serve`] has no event loop of its own. It is the K = 1 projection of
//! [`serve_fleet`](crate::fleet::serve_fleet): one engine, one network,
//! round-robin placement, a fixed queue delay, and no device faults. All
//! time is simulated. A batch's service time is its bucket plan's
//! simulated forward time (`Plan::total_time` — layers plus inserted
//! layout transformations), and queueing delay falls out of the fleet's
//! event loop, so an entire run is a pure function of `(engine config,
//! network, ServeConfig)`.
//!
//! # Fault handling
//!
//! With a [`FaultPlan`] in the config, every batch launch rolls the plan
//! (through [`Engine::execute_attempt`]) and `launch_ladder` answers
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

use crate::batch::BatchPolicy;
use crate::fleet::{run_fleet, FleetConfig};
use crate::metrics::{latency_stats_served, LatencyStats};
use crate::placement::Placement;
use crate::policy::{FaultPolicy, FaultStats};
use crate::tenant::{SloReport, TenantSpec};
use crate::workload::{Request, WorkloadConfig};
use memcnn_core::{Engine, EngineError, Mechanism, Network, Plan};
use memcnn_gpusim::FaultPlan;
use memcnn_metrics::MetricsTimeline;
use memcnn_trace as trace;
use serde::Serialize;

/// Everything a serving run needs besides the engine and the network.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The synthetic request stream.
    pub workload: WorkloadConfig,
    /// The dynamic-batching policy.
    pub policy: BatchPolicy,
    /// Mechanism plans are compiled under (the paper's `Opt` by default).
    pub mechanism: Mechanism,
    /// Seeded fault injection. `None` — or a plan with all-zero rates —
    /// leaves the run bit-identical to the fault-free loop.
    pub faults: Option<FaultPlan>,
    /// How the loop responds to faults and queue pressure.
    pub fault_policy: FaultPolicy,
    /// SLO tenants. Empty (the default) keeps the class-blind scheduler
    /// and a report byte-identical to the pre-tenant one; non-empty turns
    /// on the fleet loop's per-tenant lanes (`serve::slo`).
    pub tenants: Vec<TenantSpec>,
}

// Manual impl: `tenants` is omitted when empty so default configs
// serialize to the exact bytes the derived impl produced before the
// field existed (the report byte-identity pin in `tests/slo.rs`).
impl Serialize for ServeConfig {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        self.workload.serialize_json(out);
        out.push_str(",\"policy\":");
        self.policy.serialize_json(out);
        out.push_str(",\"mechanism\":");
        self.mechanism.serialize_json(out);
        out.push_str(",\"faults\":");
        self.faults.serialize_json(out);
        out.push_str(",\"fault_policy\":");
        self.fault_policy.serialize_json(out);
        if !self.tenants.is_empty() {
            out.push_str(",\"tenants\":");
            self.tenants.serialize_json(out);
        }
        out.push('}');
    }
}

impl ServeConfig {
    /// `Opt`-mechanism config from a workload and policy, fault-free.
    pub fn new(workload: WorkloadConfig, policy: BatchPolicy) -> ServeConfig {
        ServeConfig {
            workload,
            policy,
            mechanism: Mechanism::Opt,
            faults: None,
            fault_policy: FaultPolicy::default(),
            tenants: Vec::new(),
        }
    }

    /// The same config with fault injection enabled.
    pub fn with_faults(mut self, faults: FaultPlan, policy: FaultPolicy) -> ServeConfig {
        self.faults = Some(faults);
        self.fault_policy = policy;
        self
    }

    /// The same config with SLO tenants declared.
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> ServeConfig {
        self.tenants = tenants;
        self
    }
}

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

/// A finished serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Network name.
    pub network: String,
    /// The config the run used.
    pub config: ServeConfig,
    /// Requests generated by the workload (served + shed).
    pub requests: usize,
    /// Images actually served (shed requests excluded).
    pub images: usize,
    /// Completion time of the last batch, seconds.
    pub makespan: f64,
    /// Per-request latency (completion - arrival), in request-id order —
    /// the determinism tests compare this vector bit for bit. Shed
    /// requests keep the 0.0 sentinel (no request can complete with zero
    /// latency, so the encoding is unambiguous).
    pub latencies: Vec<f64>,
    /// Every *completed* batch, in launch order (shed batches never
    /// complete and are accounted in `faults`/`shed_requests` instead).
    pub batches: Vec<BatchRecord>,
    /// Per-bucket aggregates, ascending by bucket.
    pub buckets: Vec<BucketStats>,
    /// Requests dropped (deadline shedding plus fault shedding).
    pub shed_requests: usize,
    /// Fault accounting for the run (all zero when injection is off).
    pub faults: FaultStats,
    /// The one-device fleet timeline: `dev0.*` and fleet-wide gauges
    /// sampled at routing and launch boundaries, plus the run's latency
    /// histogram. Every sample is a pure function of loop state on the
    /// simulated clock, so the timeline is bit-identical across
    /// `MEMCNN_THREADS` like the rest of the report.
    pub timeline: MetricsTimeline,
    /// Per-tenant accounting, fairness, and SLO violations; `None` for
    /// class-blind runs (no tenants).
    pub slo: Option<SloReport>,
}

// Manual impl: `slo` is omitted when `None` so class-blind reports keep
// the exact pre-tenant byte layout.
impl Serialize for ServeReport {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"network\":");
        self.network.serialize_json(out);
        out.push_str(",\"config\":");
        self.config.serialize_json(out);
        out.push_str(",\"requests\":");
        self.requests.serialize_json(out);
        out.push_str(",\"images\":");
        self.images.serialize_json(out);
        out.push_str(",\"makespan\":");
        self.makespan.serialize_json(out);
        out.push_str(",\"latencies\":");
        self.latencies.serialize_json(out);
        out.push_str(",\"batches\":");
        self.batches.serialize_json(out);
        out.push_str(",\"buckets\":");
        self.buckets.serialize_json(out);
        out.push_str(",\"shed_requests\":");
        self.shed_requests.serialize_json(out);
        out.push_str(",\"faults\":");
        self.faults.serialize_json(out);
        out.push_str(",\"timeline\":");
        self.timeline.serialize_json(out);
        if let Some(slo) = &self.slo {
            out.push_str(",\"slo\":");
            slo.serialize_json(out);
        }
        out.push('}');
    }
}

impl ServeReport {
    /// Latency summary over served requests (shed and admission-rejected
    /// requests — the 0.0 sentinels — are excluded; neither has a
    /// latency). Sorts into a reused thread-local scratch buffer instead
    /// of cloning the latency vector per report.
    pub fn latency(&self) -> LatencyStats {
        latency_stats_served(&self.latencies)
    }

    /// Served images per second of makespan.
    pub fn throughput_images_per_sec(&self) -> f64 {
        if self.makespan > 0.0 {
            self.images as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Served requests per second of makespan.
    pub fn throughput_requests_per_sec(&self) -> f64 {
        if self.makespan > 0.0 {
            (self.requests - self.shed_requests) as f64 / self.makespan
        } else {
            0.0
        }
    }

    /// Fraction of generated requests that were shed, in [0, 1].
    pub fn shed_rate(&self) -> f64 {
        if self.requests > 0 {
            self.shed_requests as f64 / self.requests as f64
        } else {
            0.0
        }
    }

    /// Mean queue depth observed at batch launches.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().map(|b| b.queue_depth as f64).sum::<f64>() / self.batches.len() as f64
    }

    /// Distinct convolution-layout signatures across buckets — `> 1`
    /// means the server observably flipped plans as load changed.
    pub fn distinct_conv_signatures(&self) -> usize {
        let mut sigs: Vec<&str> = self.buckets.iter().map(|b| b.conv_layouts.as_str()).collect();
        sigs.sort_unstable();
        sigs.dedup();
        sigs.len()
    }
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

/// Run the serving simulation to completion (every generated request is
/// served or shed). Deterministic: same engine config + network + `cfg`
/// gives a bit-identical [`ServeReport`] — latencies, batch records, and
/// fault statistics — independent of `MEMCNN_THREADS`.
///
/// `serve` is the one-device view of [`serve_fleet`](crate::fleet::serve_fleet):
/// it runs the fleet loop on `[engine]` and `[net]` with round-robin
/// placement (no capacity probe compiles), a fixed queue delay, and no
/// device faults, then projects the fleet report onto device 0. Its
/// Perfetto counters stay on `Track::Serve`.
///
/// Errors are typed and terminal: plan-time OOM that cannot downshift
/// further (bucket 1 does not fit) or a structurally infeasible plan.
/// Injected faults never surface as `Err` — they are retried, degraded,
/// or shed per `cfg.fault_policy`.
pub fn serve(
    engine: &Engine,
    net: &Network,
    cfg: &ServeConfig,
) -> Result<ServeReport, EngineError> {
    let fleet_cfg = FleetConfig {
        workload: cfg.workload.clone(),
        policy: cfg.policy,
        adaptive: None,
        placement: Placement::RoundRobin,
        mechanism: cfg.mechanism,
        faults: cfg.faults,
        fault_policy: cfg.fault_policy,
        tenants: cfg.tenants.clone(),
        device_faults: None,
    };
    let fleet = run_fleet(&[engine], std::slice::from_ref(net), &fleet_cfg, trace::Track::Serve)?;
    let dev = fleet.devices.into_iter().next().expect("a one-device fleet reports one device");
    Ok(ServeReport {
        network: net.name.clone(),
        config: cfg.clone(),
        requests: fleet.requests,
        images: dev.images,
        makespan: fleet.makespan,
        latencies: fleet.latencies,
        batches: dev.batches.into_iter().map(|b| b.record).collect(),
        buckets: dev.networks.into_iter().next().map_or_else(Vec::new, |n| n.buckets),
        shed_requests: fleet.shed_requests,
        faults: fleet.faults,
        timeline: fleet.timeline,
        slo: fleet.slo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Arrival, Phase};
    use memcnn_core::{LayoutThresholds, NetworkBuilder};
    use memcnn_gpusim::DeviceConfig;
    use memcnn_tensor::Shape;

    fn tiny_engine() -> Engine {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
    }

    fn tiny_net() -> Network {
        NetworkBuilder::new("tiny-serve", Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn every_request_is_served_with_positive_latency() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 400.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 5,
            },
            BatchPolicy::new(32, 0.005),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert!(report.requests > 0);
        assert_eq!(report.latencies.len(), report.requests);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(report.batches.iter().map(|b| b.requests).sum::<usize>(), report.requests);
        assert!(report.makespan > 0.0);
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.faults, FaultStats::default());
        assert!(report.batches.iter().all(|b| b.attempts == 0 && b.throttled == 0));
        let lat = report.latency();
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    }

    #[test]
    fn batches_respect_policy_and_buckets_cover_batches() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 2000.0 }, duration: 0.1 }],
                images_min: 1,
                images_max: 3,
                seed: 9,
            },
            BatchPolicy::new(16, 0.002),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        for b in &report.batches {
            assert!(b.images <= 16);
            assert!(b.bucket >= b.images);
            assert!(b.done > b.launch);
        }
        // Batches never overlap on the single device.
        for w in report.batches.windows(2) {
            assert!(w[0].done <= w[1].launch + 1e-12);
        }
        // Every bucket used by a batch has stats and a compiled plan.
        for b in &report.batches {
            assert!(report.buckets.iter().any(|s| s.bucket == b.bucket));
        }
        for s in &report.buckets {
            assert!(s.fill > 0.0 && s.fill <= 1.0);
            assert!(!s.conv_layouts.is_empty());
        }
    }

    #[test]
    fn quiet_stream_launches_on_deadline_not_full() {
        // 10 req/s with a 1 ms delay cap: every batch is a single request
        // launched at its deadline (service time is far below the gap).
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Uniform { rate: 10.0 }, duration: 1.0 }],
                images_min: 1,
                images_max: 1,
                seed: 2,
            },
            BatchPolicy::new(64, 0.001),
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert!(report.batches.iter().all(|b| b.requests == 1 && b.bucket == 1));
        for (b, r) in report.batches.iter().zip(&report.latencies) {
            // Latency = queue delay cap + service time.
            assert!((r - (0.001 + (b.done - b.launch))).abs() < 1e-9);
        }
    }

    #[test]
    fn certain_transients_shed_everything_without_panicking() {
        // launch_failed = 1.0: every attempt of every batch fails, retries
        // exhaust, every request is shed — and the run still returns Ok
        // with balanced accounting.
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = ServeConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 0.1 }],
                images_min: 1,
                images_max: 2,
                seed: 3,
            },
            BatchPolicy::new(8, 0.002),
        )
        .with_faults(
            FaultPlan::new(7, 1.0, 0.0, 0.0),
            FaultPolicy { max_retries: 2, ..FaultPolicy::default() },
        );
        let report = serve(&engine, &net, &cfg).unwrap();
        assert_eq!(report.shed_requests, report.requests);
        assert!(report.batches.is_empty());
        assert!(report.latencies.iter().all(|&l| l == 0.0));
        assert!(report.faults.balanced());
        // Every batch tried 1 + max_retries times: 2 retried + 1 shed per
        // formed batch, all injected.
        assert_eq!(report.faults.injected, report.faults.retried + report.faults.shed);
        assert_eq!(report.faults.retried, 2 * report.faults.shed);
        assert_eq!(report.latency().count, 0);
    }

    #[test]
    fn certain_throttles_slow_everything_but_serve_everything() {
        let engine = tiny_engine();
        let net = tiny_net();
        let workload = WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Uniform { rate: 100.0 }, duration: 0.1 }],
            images_min: 1,
            images_max: 2,
            seed: 3,
        };
        let policy = BatchPolicy::new(8, 0.002);
        let clean = serve(&engine, &net, &ServeConfig::new(workload.clone(), policy)).unwrap();
        let cfg = ServeConfig::new(workload, policy).with_faults(
            FaultPlan::new(7, 0.0, 0.0, 1.0).with_throttle_factor(3.0),
            FaultPolicy::default(),
        );
        let throttled = serve(&engine, &net, &cfg).unwrap();
        assert_eq!(throttled.shed_requests, 0);
        assert_eq!(throttled.requests, clean.requests);
        assert!(throttled.faults.balanced());
        assert_eq!(throttled.faults.injected, throttled.faults.throttled);
        assert_eq!(throttled.faults.degraded, throttled.faults.throttled);
        assert!(throttled.faults.throttled > 0);
        // Everything served, just slower.
        assert!(throttled.makespan > clean.makespan);
        assert!(throttled.latency().mean > clean.latency().mean);
    }
}
