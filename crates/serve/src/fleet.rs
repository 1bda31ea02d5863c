//! Multi-device fleet serving: one request stream, K simulated devices,
//! cross-network multiplexing, and load-aware placement.
//!
//! The fleet extends a single-device discrete-event loop along three
//! axes:
//!
//! - **K devices** (heterogeneous allowed): each device is an
//!   independent engine with its own `gpu_free` clock, fault stream,
//!   and degradation state. The same bucket legitimately compiles
//!   *different* layout plans on a Titan-Black-class and a
//!   Titan-X-class device — their `(Ct, Nt)` thresholds differ — so
//!   plan caches are per-(device, network, bucket).
//! - **Placement** ([`PlacementPolicy`]): every arrival routes through
//!   a pluggable, deterministic policy with a per-device load snapshot.
//! - **Adaptive batching** ([`AdaptivePolicy`]): at workload phase
//!   boundaries the fleet re-derives `max_queue_delay` from the
//!   observed inter-arrival EMA (bounded, seeded — still bit-exact).
//!
//! The event loop is *logically* sequential — one global interleaving
//! of routes and commits — but executes in parallel between routing
//! barriers. Routing is a strict barrier: arrivals are placed one by
//! one until the next unrouted arrival is strictly later than every
//! tentative launch. Between barriers each device's commits touch only
//! that device's queues, clock, and fault stream, so active devices
//! step concurrently on the vendored rayon stand-in, each worker
//! recording under a `trace::fork()` shard that merges in device-index
//! order. Order-sensitive global effects (latency writes, recorder
//! gauges, shed totals, plan-cache hit bookkeeping) are deferred as
//! per-event [`Op`] lists and replayed at the barrier in the exact
//! order the sequential loop would have produced them (a greedy k-way
//! merge of per-device event queues — see `DESIGN.md` §14). Cold
//! buckets predicted at a barrier compile in one batched fan-out
//! ([`PlanCache::stage`]) instead of serially on first launch. The
//! result is a pure function of `(engine configs, networks,
//! FleetConfig)`: bit-identical at every thread budget and to the
//! reference drivers of [`serve_fleet_oracle`] (the retained sequential
//! loop and the linear router scan).
//!
//! **One loop**: this is the crate's only serving event loop and
//! [`serve_fleet`] its only entry point. A single-device server is a
//! one-engine fleet (`FleetConfig::new(workload, policy,
//! Placement::RoundRobin)`), and tenant lanes are a mode of the same
//! loop; `tests/serve.rs` pins one-device reports to recorded digests.

use crate::adaptive::AdaptivePolicy;
use crate::batch::{bucket_for, buckets, BatchPolicy};
use crate::capacity::feasible_max_batch;
use crate::health::{DeviceHealth, HealthReport, HealthRun, HealthState};
use crate::metrics::{latency_stats_served, LatencyStats};
use crate::placement::{DeviceLoad, Placement, PlacementCtx, PlacementPolicy};
use crate::plan_cache::PlanCache;
use crate::policy::{FaultPolicy, FaultStats};
use crate::route_index::RouteIndex;
use crate::server::{
    fault_span, form, launch_ladder, BatchRecord, BucketStats, LadderEnd, Outcome,
};
use crate::slo::Lane;
use crate::tenant::{lane_beats, settle_credits, tenant_tags, Admission, SloReport, TenantSpec};
use crate::workload::{self, Request, WorkloadConfig};
use memcnn_core::{Engine, EngineError, Mechanism, Network, Plan};
use memcnn_gpusim::{DeviceFaultKind, DeviceFaultPlan, FaultPlan};
use memcnn_metrics::{GaugeId, KeyId, MetricsTimeline, Recorder};
use memcnn_trace as trace;
use memcnn_trace::perf;
use serde::Serialize;
use std::collections::{BTreeSet, VecDeque};

/// Hot-path counters, resolved through the perf registry's lock exactly
/// once per process (every later bump is one relaxed atomic add).
static BARRIERS: perf::CachedCounter = perf::CachedCounter::new("fleet.barrier.count");
static PARALLEL_STEPS: perf::CachedCounter = perf::CachedCounter::new("fleet.step.parallel");
static BATCH_COMPILES: perf::CachedCounter = perf::CachedCounter::new("fleet.plan.batch_compile");
/// Orchestrator event tallies behind the benchmark's events/sec
/// figure: one `fleet.route.count` per routed arrival, one
/// `fleet.commit.count` per committed batch (plan-OOM cap halvings are
/// re-selections, not commits).
static ROUTES: perf::CachedCounter = perf::CachedCounter::new("fleet.route.count");
static COMMITS: perf::CachedCounter = perf::CachedCounter::new("fleet.commit.count");

/// Everything a fleet run needs besides the engines and the networks.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The synthetic request stream (one stream for the whole fleet;
    /// request `id % networks` selects the target network).
    pub workload: WorkloadConfig,
    /// The dynamic-batching policy (its `max_queue_delay` is the
    /// starting delay; [`FleetConfig::adaptive`] may re-derive it at
    /// phase boundaries).
    pub policy: BatchPolicy,
    /// Adaptive `max_queue_delay` re-estimation; `None` keeps the
    /// configured delay for the whole run.
    pub adaptive: Option<AdaptivePolicy>,
    /// Which device each arrival routes to.
    pub placement: Placement,
    /// Mechanism plans are compiled under.
    pub mechanism: Mechanism,
    /// Seeded fault injection, shared by every device (each device
    /// rolls its own launch-index stream, so timelines stay replayable).
    pub faults: Option<FaultPlan>,
    /// How each device responds to faults and queue pressure.
    pub fault_policy: FaultPolicy,
    /// SLO tenants. Empty (the default) keeps the class-blind loop and
    /// a report byte-identical to the pre-tenant one; non-empty turns on
    /// per-tenant lanes, deadline-aware commit, admission control, and
    /// the weighted-fair tiebreak.
    pub tenants: Vec<TenantSpec>,
    /// Whole-device lifecycle faults (crash / hang / drain, plus the
    /// repair/warmup healer). `None` — or a no-op plan — keeps the
    /// health layer off and the report byte-identical to the pre-health
    /// one.
    pub device_faults: Option<DeviceFaultPlan>,
}

// Manual impl: `tenants` is omitted when empty and `device_faults` when
// `None` so default configs serialize to the exact bytes the derived
// impl produced before those fields existed (the report byte-identity
// pins in `tests/slo.rs` and `tests/failover.rs`).
impl Serialize for FleetConfig {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"workload\":");
        self.workload.serialize_json(out);
        out.push_str(",\"policy\":");
        self.policy.serialize_json(out);
        out.push_str(",\"adaptive\":");
        self.adaptive.serialize_json(out);
        out.push_str(",\"placement\":");
        self.placement.serialize_json(out);
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
        if let Some(df) = &self.device_faults {
            out.push_str(",\"device_faults\":");
            df.serialize_json(out);
        }
        out.push('}');
    }
}

impl FleetConfig {
    /// `Opt`-mechanism, fault-free, fixed-delay config.
    pub fn new(workload: WorkloadConfig, policy: BatchPolicy, placement: Placement) -> FleetConfig {
        FleetConfig {
            workload,
            policy,
            adaptive: None,
            placement,
            mechanism: Mechanism::Opt,
            faults: None,
            fault_policy: FaultPolicy::default(),
            tenants: Vec::new(),
            device_faults: None,
        }
    }

    /// The same config with SLO tenants declared.
    pub fn with_tenants(mut self, tenants: Vec<TenantSpec>) -> FleetConfig {
        self.tenants = tenants;
        self
    }

    /// The same config with whole-device lifecycle faults enabled.
    pub fn with_device_faults(mut self, plan: DeviceFaultPlan) -> FleetConfig {
        self.device_faults = Some(plan);
        self
    }

    /// The same config with fault injection enabled.
    pub fn with_faults(mut self, faults: FaultPlan, policy: FaultPolicy) -> FleetConfig {
        self.faults = Some(faults);
        self.fault_policy = policy;
        self
    }

    /// The same config with adaptive delay estimation enabled.
    pub fn with_adaptive(mut self, adaptive: AdaptivePolicy) -> FleetConfig {
        self.adaptive = Some(adaptive);
        self
    }
}

/// One completed batch on one device, tagged with its network.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FleetBatch {
    /// The batch record.
    pub record: BatchRecord,
    /// Index of the network the batch executed.
    pub network: u32,
}

/// Per-network bucket rollup on one device.
#[derive(Clone, Debug, Serialize)]
pub struct NetworkBuckets {
    /// Network name.
    pub network: String,
    /// Per-bucket aggregates, ascending by bucket (every compiled
    /// bucket appears, batches or not).
    pub buckets: Vec<BucketStats>,
}

/// One device's share of a finished fleet run.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceReport {
    /// Device name (from the engine's device config).
    pub device: String,
    /// Requests routed to the device (served + shed).
    pub requests: usize,
    /// Images the device served.
    pub images: usize,
    /// The device's last activity (its `gpu_free` at drain), seconds.
    pub makespan: f64,
    /// Every completed batch, in launch order.
    pub batches: Vec<FleetBatch>,
    /// Per-network bucket rollups (entry per network the device
    /// compiled plans for).
    pub networks: Vec<NetworkBuckets>,
    /// Requests dropped on this device.
    pub shed_requests: usize,
    /// Fault accounting for this device (balanced per device).
    pub faults: FaultStats,
}

/// A finished fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The config the run used.
    pub config: FleetConfig,
    /// Network names, in `nets` order (request `id % len` routes here).
    pub networks: Vec<String>,
    /// Requests generated by the workload (served + shed).
    pub requests: usize,
    /// Per-request latency in request-id order; shed and
    /// admission-rejected requests keep the 0.0 sentinel. The
    /// determinism tests compare this bit for bit.
    pub latencies: Vec<f64>,
    /// Device each request routed to, in request-id order
    /// (`u32::MAX` for requests admission control rejected — they never
    /// reached placement).
    pub placements: Vec<u32>,
    /// Per-device reports, in engine order.
    pub devices: Vec<DeviceReport>,
    /// Completion of the last batch anywhere, seconds.
    pub makespan: f64,
    /// Requests dropped across the fleet.
    pub shed_requests: usize,
    /// Fleet-aggregate fault accounting (the sum over devices; balanced
    /// because each device is).
    pub faults: FaultStats,
    /// Gauge timelines on the simulated clock: per-device series are
    /// prefixed `dev{d}.` (`dev0.util`, `dev1.queue.images`, ...);
    /// fleet-wide series are unprefixed. Samples are taken at routing
    /// and commit boundaries, timestamped so every series — and the
    /// whole track — is monotonically non-decreasing in time.
    pub timeline: MetricsTimeline,
    /// Per-tenant accounting, fairness, and SLO violations; `None` for
    /// class-blind runs (no tenants).
    pub slo: Option<SloReport>,
    /// Device-lifecycle recovery tallies; `None` when no live
    /// `DeviceFaultPlan` (none configured, or a no-op plan).
    pub health: Option<HealthReport>,
}

// Manual impl: `slo` and `health` are omitted when `None` so class-blind
// and fault-free reports keep the exact pre-feature byte layouts.
impl Serialize for FleetReport {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        self.config.serialize_json(out);
        out.push_str(",\"networks\":");
        self.networks.serialize_json(out);
        out.push_str(",\"requests\":");
        self.requests.serialize_json(out);
        out.push_str(",\"latencies\":");
        self.latencies.serialize_json(out);
        out.push_str(",\"placements\":");
        self.placements.serialize_json(out);
        out.push_str(",\"devices\":");
        self.devices.serialize_json(out);
        out.push_str(",\"makespan\":");
        self.makespan.serialize_json(out);
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
        if let Some(health) = &self.health {
            out.push_str(",\"health\":");
            health.serialize_json(out);
        }
        out.push('}');
    }
}

impl FleetReport {
    /// Images served across the fleet.
    pub fn images(&self) -> usize {
        self.devices.iter().map(|d| d.images).sum()
    }

    /// Latency summary over served requests (the 0.0 sentinels of shed
    /// and admission-rejected requests are excluded — neither has a
    /// latency). Sorts into a reused thread-local scratch buffer instead
    /// of cloning the latency vector per report.
    pub fn latency(&self) -> LatencyStats {
        latency_stats_served(&self.latencies)
    }

    /// Served images per second of fleet makespan.
    pub fn throughput_images_per_sec(&self) -> f64 {
        if self.makespan > 0.0 {
            self.images() as f64 / self.makespan
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
}

/// Per-(device, network) serving state: the plan cache and the routed
/// per-tenant lanes with the pair's degradation state.
/// Class-blind runs have exactly one lane, so the lane loop reduces
/// structurally to the old single-queue arithmetic; the plan cache and
/// the degradation state (cap, pin, streak) stay per-pair — lanes share
/// a device and a network, hence a memory budget and a plan.
struct PairState<'e> {
    cache: PlanCache<'e>,
    lanes: Vec<Lane>,
    plan_cap: usize,
    pin: Option<usize>,
    clean_streak: u64,
}

impl PairState<'_> {
    fn has_pending(&self) -> bool {
        self.lanes.iter().any(Lane::has_pending)
    }

    fn pending_requests(&self) -> usize {
        self.lanes.iter().map(|l| l.pending().len()).sum()
    }

    fn pending_images(&self) -> usize {
        self.lanes.iter().flat_map(|l| l.pending()).map(|r| r.images).sum()
    }

    /// Pending requests that had arrived by `launch` (the queue-depth
    /// observable at a commit).
    fn pending_arrived(&self, launch: f64) -> usize {
        self.lanes.iter().map(|l| l.pending().iter().filter(|r| r.arrival <= launch).count()).sum()
    }

    fn emax(&self) -> usize {
        self.plan_cap.min(self.pin.unwrap_or(self.plan_cap)).max(1)
    }
}

/// Per-device clock, fault stream, and accumulators.
struct DeviceState {
    gpu_free: f64,
    launches: u64,
    stats: FaultStats,
    shed: usize,
    plan_ooms: u64,
    batches: Vec<FleetBatch>,
    /// Simulated seconds the device spent occupied (attempts, backoffs,
    /// and completed service) — the numerator of its utilization gauge.
    busy: f64,
    /// Fairness deficit credit per tenant (device-local, so the
    /// sequential and parallel paths settle identical values in commit
    /// order). One entry per lane; a single 0.0 on class-blind runs.
    credits: Vec<f64>,
    /// Requests shed per tenant on this device (batch sheds plus
    /// overdue-deadline sheds). One entry per lane.
    shed_by_tenant: Vec<u64>,
    /// Batches this device committed early to protect a class budget.
    early: u64,
    /// Commits that won the device slot from a lane whose tentative
    /// batch would have launched later with more images.
    preempt: u64,
    /// Commit horizon from the health layer: the device's next pending
    /// crash/hang time. Batches launching at or past it must wait for
    /// the event to be processed at a routing point — in *both* loops,
    /// which is what keeps device deaths replay-identical. `INFINITY`
    /// without a fault plan.
    halt: f64,
    /// `true` while the device is `Down`: it commits nothing, and
    /// placement only reaches it through the all-down fallback.
    blocked: bool,
    /// Pending (routed, unserved, unshed) requests across every pair and
    /// lane on this device — maintained incrementally at each queue
    /// mutation so a placement load snapshot is O(1) instead of a walk
    /// over every pair's pending slice. Always equals
    /// `Σ pairs[d][*].pending_requests()` (debug-asserted in `load_of`).
    queued_requests: usize,
    /// Pending images across the device (companion to
    /// `queued_requests`; raw request sizes, not bucket-clamped).
    queued_images: usize,
    /// Recycled `Op` buffers: the parallel barrier replay returns each
    /// drained event's buffer here so steady-state stepping allocates no
    /// fresh `Vec<Op>` per commit.
    spare_ops: Vec<Vec<Op>>,
}

impl DeviceState {
    /// Account `count` pending requests totalling `images` leaving the
    /// device's queues (served, shed, or failed over).
    fn drop_queued(&mut self, count: usize, images: usize) {
        debug_assert!(self.queued_requests >= count && self.queued_images >= images);
        self.queued_requests -= count;
        self.queued_images -= images;
    }

    /// Account one request routed onto the device.
    fn push_queued(&mut self, images: usize) {
        self.queued_requests += 1;
        self.queued_images += images;
    }
}

/// The window-growth rule on one lane's queue: launch at
/// `max(gpu_free, min(T_full, T_deadline))`, growing the admission
/// window arrival by arrival.
pub(crate) fn window_launch(
    queue: &[Request],
    next: usize,
    gpu_free: f64,
    emax: usize,
    delay: f64,
) -> f64 {
    let oldest = queue[next].arrival;
    let deadline = oldest + delay;
    let mut launch = gpu_free.max(oldest);
    loop {
        let (j_after, _, full) = form(queue, next, launch, emax);
        if full || launch >= deadline {
            break;
        }
        match queue.get(j_after) {
            Some(r) if r.arrival <= deadline => launch = r.arrival,
            _ => {
                launch = deadline;
                break;
            }
        }
    }
    launch
}

/// Deadline-based shedding of one lane's overdue queue prefix, against
/// the device's current `gpu_free` (only head-of-line requests shed;
/// requests behind a fresh head wait their turn). Shed requests keep the
/// 0.0 latency sentinel. Returns how many requests it shed (the caller
/// keeps the fleet-wide running total for the timeline).
fn shed_overdue(
    lane: &mut Lane,
    dev: &mut DeviceState,
    d: usize,
    t: usize,
    deadline: Option<f64>,
) -> usize {
    let Some(deadline) = deadline else { return 0 };
    let mut shed = 0usize;
    while lane.has_pending() && dev.gpu_free - lane.queue[lane.next].arrival > deadline {
        let r = &lane.queue[lane.next];
        fault_span(dev.gpu_free, 0.0, || {
            (
                format!("shed request {}", r.id),
                vec![
                    (trace::intern("reason").into(), trace::intern("deadline").into()),
                    (trace::intern("device").into(), trace::intern(&d.to_string()).into()),
                ],
            )
        });
        dev.drop_queued(1, r.images);
        dev.shed += 1;
        dev.shed_by_tenant[t] += 1;
        lane.next += 1;
        shed += 1;
    }
    shed
}

/// One order-sensitive global side effect of a commit. Device steps are
/// otherwise independent between routing barriers; everything that
/// touches shared state — the latency vector, the recorder (whose
/// sliding window and running-counter gauges are order-sensitive), the
/// fleet-wide shed total, and the plan-cache hit bookkeeping — funnels
/// through this enum so the parallel path can defer it and replay it in
/// the sequential merge order.
enum Op {
    /// A plan-cache lookup on pair `(d, n)` for `bucket` (the
    /// `seen_plans` hit/lookup bookkeeping behind the hit-rate gauge).
    Lookup { d: usize, n: usize, bucket: usize },
    /// Request `id` finished with `latency` (latency vector write plus
    /// the recorder's histogram observation).
    Served { id: u64, latency: f64 },
    /// The gauge block at the end of a successful commit.
    DoneGauges { d: usize, launch: f64, depth: usize, util: f64, degraded: bool },
    /// The gauge block after a batch was shed mid-ladder; `batch_shed`
    /// joins the fleet total *before* the `shed.total` sample.
    ShedGauges { d: usize, launch: f64, batch_shed: usize, util: f64 },
    /// The degraded gauge after an OOM downshift.
    DownshiftGauge { d: usize, launch: f64 },
    /// Head-of-line requests shed by the post-commit deadline check.
    OverdueShed { count: usize },
}

/// Per-tenant global accounting for SLO runs: the attribution table
/// plus the tallies only the globally ordered `Op::Served` replay can
/// settle deterministically (completions, served images, violations,
/// keyed latency histograms).
struct GlobalsSlo {
    /// `tenant_of[id]` — the request's tenant (from [`tenant_tags`]).
    tenant_of: Vec<u32>,
    /// `images_of[id]` — the request's image count (for per-tenant
    /// served-images tallies without re-walking the request list).
    images_of: Vec<u64>,
    /// Pre-registered per-tenant latency-histogram handles (config
    /// order) — the replay's keyed observation is an index, not a
    /// string lookup.
    latency_keys: Vec<KeyId>,
    /// Per-tenant p99 budget (`None` for classes without one).
    p99: Vec<Option<f64>>,
    /// Pre-registered `tenant.{name}.violations` series, `None` for
    /// budget-less classes (which never emit the series).
    violation_ids: Vec<Option<GaugeId>>,
    completed: Vec<u64>,
    images: Vec<u64>,
    violations: Vec<u64>,
}

/// Pre-registered recorder handles for every gauge series the fleet hot
/// paths emit. Registration is free when a series stays empty
/// ([`Recorder::finish`] drops sample-less slots), so resolving them all
/// up front cannot perturb the serialized timeline — it only removes the
/// per-sample `format!("dev{d}...")` allocation and name lookup.
struct FleetGaugeIds {
    dev_depth: Vec<GaugeId>,
    dev_util: Vec<GaugeId>,
    dev_degraded: Vec<GaugeId>,
    dev_queue_images: Vec<GaugeId>,
    dev_health: Vec<GaugeId>,
    plan_hit_rate: GaugeId,
    shed_total: GaugeId,
    queue_images: GaugeId,
    slo_violations: GaugeId,
    devices_healthy: GaugeId,
    failover_backlog: GaugeId,
}

impl FleetGaugeIds {
    fn new(rec: &mut Recorder, k: usize) -> FleetGaugeIds {
        let per_dev = |rec: &mut Recorder, suffix: &str| -> Vec<GaugeId> {
            (0..k).map(|d| rec.gauge_id(&format!("dev{d}.{suffix}"))).collect()
        };
        FleetGaugeIds {
            dev_depth: per_dev(rec, "queue.depth"),
            dev_util: per_dev(rec, "util"),
            dev_degraded: per_dev(rec, "degraded"),
            dev_queue_images: per_dev(rec, "queue.images"),
            dev_health: per_dev(rec, "health"),
            plan_hit_rate: rec.gauge_id("plan_cache.hit_rate"),
            shed_total: rec.gauge_id("shed.total"),
            queue_images: rec.gauge_id("queue.images"),
            slo_violations: rec.gauge_id("slo.violations"),
            devices_healthy: rec.gauge_id("fleet.devices.healthy"),
            failover_backlog: rec.gauge_id("fleet.failover.backlog"),
        }
    }
}

/// The shared mutable state every [`Op`] replays into. The sequential
/// path applies ops as they happen; the parallel path applies the same
/// ops in the same order at the barrier.
struct Globals {
    latencies: Vec<f64>,
    placements: Vec<u32>,
    rec: Recorder,
    ids: FleetGaugeIds,
    seen_plans: BTreeSet<(usize, usize, usize)>,
    cache_lookups: u64,
    cache_hits: u64,
    fleet_shed: usize,
    /// `Some` only on SLO runs; `None` keeps every apply branch below
    /// byte-identical to the pre-tenant replay.
    slo: Option<GlobalsSlo>,
}

impl Globals {
    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Lookup { d, n, bucket } => {
                self.cache_lookups += 1;
                if !self.seen_plans.insert((d, n, bucket)) {
                    self.cache_hits += 1;
                }
            }
            Op::Served { id, latency } => {
                self.latencies[id as usize] = latency;
                self.rec.observe_latency(latency);
                if let Some(s) = self.slo.as_mut() {
                    let t = s.tenant_of[id as usize] as usize;
                    s.completed[t] += 1;
                    s.images[t] += s.images_of[id as usize];
                    if s.p99[t].is_some_and(|b| latency > b) {
                        s.violations[t] += 1;
                    }
                    self.rec.observe_latency_keyed_at(s.latency_keys[t], latency);
                }
            }
            Op::DoneGauges { d, launch, depth, util, degraded } => {
                self.rec.gauge_at(self.ids.dev_depth[d], launch, depth as f64);
                self.rec.gauge_at(self.ids.dev_util[d], launch, util);
                self.rec.gauge_at(
                    self.ids.dev_degraded[d],
                    launch,
                    if degraded { 1.0 } else { 0.0 },
                );
                self.rec.gauge_at(
                    self.ids.plan_hit_rate,
                    launch,
                    self.cache_hits as f64 / self.cache_lookups as f64,
                );
                self.rec.gauge_at(self.ids.shed_total, launch, self.fleet_shed as f64);
                if let Some(s) = &self.slo {
                    let total: u64 = s.violations.iter().sum();
                    self.rec.gauge_at(self.ids.slo_violations, launch, total as f64);
                    for (t, id) in s.violation_ids.iter().enumerate() {
                        if let Some(id) = *id {
                            self.rec.gauge_at(id, launch, s.violations[t] as f64);
                        }
                    }
                }
                self.rec.sample_window(launch);
            }
            Op::ShedGauges { d, launch, batch_shed, util } => {
                self.fleet_shed += batch_shed;
                self.rec.gauge_at(self.ids.shed_total, launch, self.fleet_shed as f64);
                self.rec.gauge_at(self.ids.dev_util[d], launch, util);
            }
            Op::DownshiftGauge { d, launch } => {
                self.rec.gauge_at(self.ids.dev_degraded[d], launch, 1.0);
            }
            Op::OverdueShed { count } => self.fleet_shed += count,
        }
    }
}

/// Where a commit sends its global effects: straight into [`Globals`]
/// (sequential path) or into a per-event buffer for barrier replay
/// (parallel path).
trait EffectSink {
    fn emit(&mut self, op: Op);
}

impl EffectSink for Globals {
    fn emit(&mut self, op: Op) {
        self.apply(&op);
    }
}

impl EffectSink for Vec<Op> {
    fn emit(&mut self, op: Op) {
        self.push(op);
    }
}

/// The SLO slice of a [`StepCtx`]: per-tenant commit budgets derived
/// from the step's frozen delay, class ranks, and the tenant specs (for
/// names and fairness weights).
struct SloStepCtx<'a> {
    budgets: Vec<f64>,
    ranks: Vec<u8>,
    tenants: &'a [TenantSpec],
}

/// Read-only inputs shared by every commit between two routing barriers
/// (the effective delay is frozen during a step phase — it only changes
/// when an arrival crosses a workload phase boundary, which is routing;
/// the per-class budgets in `slo` are re-derived from it then too).
struct StepCtx<'a, 'e> {
    engines: &'a [&'e Engine],
    nets: &'a [Network],
    delay: f64,
    pol: FaultPolicy,
    fplan: Option<FaultPlan>,
    slo: Option<SloStepCtx<'a>>,
}

impl StepCtx<'_, '_> {
    /// The commit budget lane `t` grows its window under: the tenant's
    /// class budget on SLO runs, the uniform policy delay otherwise.
    fn lane_delay(&self, t: usize) -> f64 {
        self.slo.as_ref().map_or(self.delay, |s| s.budgets[t])
    }
}

/// Earliest launchable lane on one device: networks in ascending order,
/// lanes within each pair in tenant order. Class-blind runs take strict
/// `<` (first-wins on ties — with one lane per pair this is exactly the
/// pre-tenant per-device scan); SLO runs break exact launch ties by
/// fairness credit, then class rank, then iteration order.
fn device_best(
    ctx: &StepCtx,
    pairs_d: &[PairState],
    dev: &DeviceState,
) -> Option<(f64, usize, usize)> {
    if dev.blocked {
        return None; // a Down device commits nothing
    }
    let mut best: Option<(f64, usize, usize)> = None;
    for (n, pair) in pairs_d.iter().enumerate() {
        for (t, lane) in pair.lanes.iter().enumerate() {
            if !lane.has_pending() {
                continue;
            }
            let launch =
                window_launch(&lane.queue, lane.next, dev.gpu_free, pair.emax(), ctx.lane_delay(t));
            let take = match (&ctx.slo, best) {
                (_, None) => true,
                (None, Some((bl, _, _))) => launch < bl,
                (Some(s), Some((bl, _, bt))) => lane_beats(
                    (launch, dev.credits[t], s.ranks[t]),
                    (bl, dev.credits[bt], s.ranks[bt]),
                ),
            };
            if take {
                best = Some((launch, n, t));
            }
        }
    }
    // The selection minimizes launch, so if the winner is at or past the
    // device's halt horizon (its next crash/hang), every lane is — the
    // device commits nothing until the event fires at a routing point.
    best.filter(|&(launch, _, _)| launch < dev.halt)
}

/// Commit the earliest launchable batch on lane `(d, n, t)` against this
/// device's clock. Returns `Ok(true)` when a batch committed and
/// `Ok(false)` when a plan-time OOM halved the pair's cap instead (the
/// caller re-selects; the sequential loop's `continue`).
fn commit_pair<S: EffectSink>(
    ctx: &StepCtx,
    pairs_d: &mut [PairState],
    dev: &mut DeviceState,
    d: usize,
    n: usize,
    t: usize,
    sink: &mut S,
) -> Result<bool, EngineError> {
    let emax = pairs_d[n].emax();
    let lane = &pairs_d[n].lanes[t];
    let launch = window_launch(&lane.queue, lane.next, dev.gpu_free, emax, ctx.lane_delay(t));
    let (j_end, images, full) = form(&lane.queue, lane.next, launch, emax);
    debug_assert!(j_end > lane.next, "a committed batch serves at least one request");
    let bucket = bucket_for(images, emax);
    // SLO observability on this selection, computed before the cache
    // borrow and applied only if the plan resolves (so a plan-OOM
    // re-selection is not double-counted).
    let mut early_hit = false;
    let mut preempt_hit = false;
    if let Some(s) = &ctx.slo {
        // Early commit: the class budget (tighter than the policy delay)
        // fired before the batch filled.
        early_hit = !full
            && s.budgets[t] < ctx.delay
            && launch == lane.queue[lane.next].arrival + s.budgets[t];
        // Preemption: this lane won the slot from a lane whose tentative
        // batch (over work arrived by `launch`) would have launched
        // later with more images.
        'scan: for pair2 in pairs_d.iter() {
            for (t2, lane2) in pair2.lanes.iter().enumerate() {
                if t2 != t
                    && crate::slo::lane_preempts(
                        lane2,
                        s.budgets[t2],
                        dev.gpu_free,
                        pair2.emax(),
                        launch,
                        images,
                    )
                {
                    preempt_hit = true;
                    break 'scan;
                }
            }
        }
    }
    sink.emit(Op::Lookup { d, n, bucket });
    let plan = match pairs_d[n].cache.get(bucket) {
        Ok(plan) => plan,
        Err(err @ EngineError::PlanOom { .. }) => {
            if bucket <= 1 {
                return Err(err);
            }
            dev.plan_ooms += 1;
            fault_span(launch, 0.0, || {
                (
                    format!("plan OOM at bucket {bucket}"),
                    vec![
                        (trace::intern("new_cap").into(), (bucket / 2).to_string().into()),
                        (trace::intern("device").into(), trace::intern(&d.to_string()).into()),
                    ],
                )
            });
            pairs_d[n].plan_cap = (bucket / 2).max(1);
            return Ok(false);
        }
        Err(err) => return Err(err),
    };
    let service = plan.total_time();
    if early_hit {
        dev.early += 1;
    }
    if preempt_hit {
        dev.preempt += 1;
    }

    let LadderEnd { outcome, attempts: attempt, throttles } = launch_ladder(
        ctx.engines[d],
        plan,
        ctx.fplan.as_ref(),
        &mut dev.launches,
        &mut dev.stats,
        &ctx.pol,
        bucket,
        launch,
        d,
    )?;

    match outcome {
        Outcome::Done { done } => {
            let reqs = {
                let lane = &mut pairs_d[n].lanes[t];
                let mut taken_images = 0usize;
                for r in &lane.queue[lane.next..j_end] {
                    sink.emit(Op::Served { id: r.id, latency: done - r.arrival });
                    taken_images += r.images;
                }
                let reqs = j_end - lane.next;
                lane.next = j_end;
                dev.drop_queued(reqs, taken_images);
                reqs
            };
            // Queue pressure left on the device: routed requests of
            // *any* network that had arrived by launch, not taken.
            let depth: usize = pairs_d.iter().map(|p| p.pending_arrived(launch)).sum();
            {
                let idx = dev.batches.len();
                let net_name = &ctx.nets[n].name;
                trace::record_span(|| trace::SpanEvent {
                    name: format!("batch {idx} (N={bucket})"),
                    track: trace::Track::Fleet,
                    ts_us: launch * 1e6,
                    dur_us: service * 1e6,
                    args: {
                        let mut args = vec![
                            (trace::intern("device").into(), trace::intern(&d.to_string()).into()),
                            (trace::intern("network").into(), trace::intern(net_name).into()),
                            (trace::intern("requests").into(), reqs.to_string().into()),
                            (trace::intern("images").into(), images.to_string().into()),
                            (trace::intern("bucket").into(), bucket.to_string().into()),
                        ];
                        if let Some(s) = &ctx.slo {
                            args.push((
                                trace::intern("tenant").into(),
                                trace::intern(&s.tenants[t].name).into(),
                            ));
                        }
                        args
                    },
                });
            }
            dev.batches.push(FleetBatch {
                record: BatchRecord {
                    launch,
                    done,
                    requests: reqs,
                    images,
                    bucket,
                    queue_depth: depth,
                    attempts: attempt,
                    throttled: throttles,
                },
                network: n as u32,
            });
            let pair = &mut pairs_d[n];
            if pair.pin.is_some() {
                if attempt == 0 && throttles == 0 {
                    pair.clean_streak += 1;
                    if pair.clean_streak >= ctx.pol.recovery_batches {
                        dev.stats.degraded_exits += 1;
                        let streak = pair.clean_streak;
                        fault_span(done, 0.0, || {
                            (
                                "leave degraded mode".to_string(),
                                vec![
                                    (
                                        trace::intern("clean_batches").into(),
                                        streak.to_string().into(),
                                    ),
                                    (
                                        trace::intern("device").into(),
                                        trace::intern(&d.to_string()).into(),
                                    ),
                                ],
                            )
                        });
                        pair.pin = None;
                        pair.clean_streak = 0;
                    }
                } else {
                    pair.clean_streak = 0;
                }
            }
            dev.busy += done - launch;
            dev.gpu_free = done;
            let degraded = pairs_d.iter().any(|p| p.pin.is_some());
            let util = if done > 0.0 { dev.busy / done } else { 0.0 };
            sink.emit(Op::DoneGauges { d, launch, depth, util, degraded });
            if let Some(s) = &ctx.slo {
                settle_credits(
                    &mut dev.credits,
                    s.tenants,
                    |u| pairs_d.iter().any(|p| p.lanes[u].has_pending()),
                    t,
                    images,
                );
            }
        }
        Outcome::Shed { at } => {
            let lane = &mut pairs_d[n].lanes[t];
            let batch_shed = j_end - lane.next;
            let shed_images: usize = lane.queue[lane.next..j_end].iter().map(|r| r.images).sum();
            dev.shed += batch_shed;
            dev.shed_by_tenant[t] += batch_shed as u64;
            lane.next = j_end;
            dev.drop_queued(batch_shed, shed_images);
            dev.busy += at - launch;
            dev.gpu_free = at;
            let util = if at > 0.0 { dev.busy / at } else { 0.0 };
            sink.emit(Op::ShedGauges { d, launch, batch_shed, util });
            if let Some(s) = &ctx.slo {
                settle_credits(
                    &mut dev.credits,
                    s.tenants,
                    |u| pairs_d.iter().any(|p| p.lanes[u].has_pending()),
                    t,
                    images,
                );
            }
        }
        Outcome::Downshift { at } => {
            let pair = &mut pairs_d[n];
            if pair.pin.is_none() {
                dev.stats.degraded_entries += 1;
            }
            pair.pin = Some((bucket / 2).max(1));
            pair.clean_streak = 0;
            dev.busy += at - launch;
            dev.gpu_free = at;
            sink.emit(Op::DownshiftGauge { d, launch });
        }
    }
    // `gpu_free` moved: every network's queue on this device gets the
    // head-of-line overdue check.
    let mut overdue = 0usize;
    for pair in pairs_d.iter_mut() {
        for (t2, lane) in pair.lanes.iter_mut().enumerate() {
            overdue += shed_overdue(lane, dev, d, t2, ctx.pol.shed_deadline);
        }
    }
    if overdue > 0 {
        sink.emit(Op::OverdueShed { count: overdue });
    }
    COMMITS.incr();
    Ok(true)
}

/// One device's committed batch (possibly a plan-OOM compound: the cap
/// halvings plus the commit that followed them), keyed for the barrier
/// merge by the launch of its *first* pair selection.
struct DeviceEvent {
    key: f64,
    ops: Vec<Op>,
}

/// Step one device through every batch it commits before `t_next` (all
/// of them when `t_next` is `None`): the sequential loop restricted to
/// one device, emitting one [`DeviceEvent`] per commit. A plan-OOM
/// re-selection stays inside the event that opened it — the sequential
/// loop provably re-selects the same pair immediately, so the compound
/// occupies a single slot in the global order, keyed by its first
/// selection (whose launch may *exceed* the post-halving commit's).
fn step_device(
    ctx: &StepCtx,
    pairs_d: &mut [PairState],
    dev: &mut DeviceState,
    d: usize,
    t_next: Option<f64>,
) -> Result<Vec<DeviceEvent>, EngineError> {
    let mut events = Vec::new();
    let mut open: Option<DeviceEvent> = None;
    loop {
        // Local best: the shared per-device scan (same strict `<`
        // tie-break over ascending network index as the sequential
        // loop's device-major global scan; lane tie-breaks on SLO runs).
        let Some((launch, n, t)) = device_best(ctx, pairs_d, dev) else {
            debug_assert!(open.is_none(), "plan-OOM compound left open with no pending work");
            break;
        };
        // The barrier condition: commit strictly before the next
        // unrouted arrival (the route-first rule routes on ties). A
        // compound never straddles it — post-halving launches only
        // shrink — so an open compound always finishes its commit.
        if open.is_none() && t_next.is_some_and(|tb| launch >= tb) {
            break;
        }
        let mut ev = open.take().unwrap_or_else(|| DeviceEvent {
            key: launch,
            // Reuse a buffer the last barrier replay returned (the
            // replay clears before recycling), so steady-state stepping
            // allocates no per-commit `Vec<Op>`.
            ops: dev.spare_ops.pop().unwrap_or_default(),
        });
        if commit_pair(ctx, pairs_d, dev, d, n, t, &mut ev.ops)? {
            events.push(ev);
        } else {
            open = Some(ev);
        }
    }
    Ok(events)
}

/// Load snapshot of device `d` for network `n`'s placement call — O(1)
/// off the incrementally maintained queue counters (`linear` walks the
/// lane queues like the pre-index code did).
fn device_load(
    pairs: &[Vec<PairState>],
    devs: &[DeviceState],
    caps: &[Vec<usize>],
    linear: bool,
    d: usize,
    n: usize,
) -> DeviceLoad {
    let (queued_requests, queued_images) = if linear {
        let mut reqs = 0usize;
        let mut imgs = 0usize;
        for p in &pairs[d] {
            reqs += p.pending_requests();
            imgs += p.pending_images();
        }
        (reqs, imgs)
    } else {
        (devs[d].queued_requests, devs[d].queued_images)
    };
    debug_assert_eq!(
        (queued_requests, queued_images),
        (
            pairs[d].iter().map(|p| p.pending_requests()).sum(),
            pairs[d].iter().map(|p| p.pending_images()).sum()
        ),
        "queue counters diverged from the lane queues"
    );
    DeviceLoad {
        device: d,
        gpu_free: devs[d].gpu_free,
        queued_requests,
        queued_images,
        feasible_cap: caps[d][n],
    }
}

/// Bit equality of two load rows (the debug cross-check of the index's
/// rows against a fresh snapshot; `gpu_free` by bits, so `-0.0` and
/// `0.0` differ as they would to a `total_cmp` policy).
fn same_load(a: &DeviceLoad, b: &DeviceLoad) -> bool {
    (a.device, a.gpu_free.to_bits(), a.queued_requests, a.queued_images, a.feasible_cap)
        == (b.device, b.gpu_free.to_bits(), b.queued_requests, b.queued_images, b.feasible_cap)
}

/// Place one arrival, honouring device health: candidates are the
/// `Healthy` devices, falling back to `Warming`, then `Draining`, then
/// the full fleet (everything `Down` — the request queues on a dead
/// device and the flush re-routes or sheds it). Health-free runs pass
/// the full row slice straight through, which keeps the policy's
/// internal state evolution — hence every placement — byte-identical to
/// the pre-health fleet. The filtered candidates go into the recycled
/// `eligible` buffer, in device order.
fn place_on(
    placer: &mut dyn PlacementPolicy,
    health: Option<&HealthRun>,
    eligible: &mut Vec<DeviceLoad>,
    ctx: &PlacementCtx,
) -> usize {
    eligible.clear();
    if let Some(h) = health {
        for s in [HealthState::Healthy, HealthState::Warming, HealthState::Draining] {
            eligible.extend(ctx.devices.iter().filter(|l| h.devs[l.device].state == s));
            if !eligible.is_empty() {
                break;
            }
        }
    }
    if eligible.is_empty() {
        placer.place(ctx)
    } else {
        placer.place(&PlacementCtx { devices: eligible, ..*ctx })
    }
}

/// Adaptive-delay state: the effective delay, the inter-arrival EMA,
/// and the workload's phase-start boundaries (the only points the
/// delay may change, so batching cannot feed back into the estimate
/// mid-phase).
struct DelayState {
    policy_delay: f64,
    ema: Option<f64>,
    last_arrival: Option<f64>,
    phase_bounds: Vec<f64>,
    next_bound: usize,
}

/// Per-run SLO state owned by the router: the request→tenant table,
/// the admission controller (token buckets advance on the arrival
/// clock, which the router walks in order), and the admission tallies.
struct SloRun {
    tags: Vec<u32>,
    admission: Admission,
    admitted: Vec<u64>,
    rejected: Vec<u64>,
}

/// The in-flight state of one fleet run, shared by the sequential and
/// parallel drivers so both execute the identical per-event arithmetic.
struct FleetRun<'e, 'a> {
    engines: &'a [&'e Engine],
    nets: &'a [Network],
    cfg: &'a FleetConfig,
    requests: Vec<Request>,
    caps: Vec<Vec<usize>>,
    pairs: Vec<Vec<PairState<'e>>>,
    devs: Vec<DeviceState>,
    placer: Box<dyn PlacementPolicy>,
    g: Globals,
    delay: DelayState,
    next_arrival: usize,
    pol: FaultPolicy,
    fplan: Option<FaultPlan>,
    max: usize,
    k: usize,
    nn: usize,
    /// `Some` only on SLO runs (tenants configured).
    slo_run: Option<SloRun>,
    /// `Some` only with a live (configured, non-noop) device-fault plan.
    health: Option<HealthRun>,
    /// The tournament index behind [`FleetRun::global_best`] and the
    /// placement rows behind `route_one`: cached per-device
    /// tentative-launch keys and loads, refreshed only for devices
    /// marked dirty since the last read (every mutation site marks —
    /// routes, commits, sheds, health transitions, failovers, delay
    /// changes).
    index: RouteIndex,
    /// The reference driver this run executes, if any: with
    /// [`Oracle::Linear`] every read bypasses the index (see
    /// [`FleetRun::linear`]).
    oracle: Option<Oracle>,
    /// Recycled placement-snapshot buffer (the linear oracle's
    /// `route_one` and `requeue_transit` fill it instead of allocating).
    loads_buf: Vec<DeviceLoad>,
    /// Recycled candidate buffer for [`place_on`]'s health filter.
    eligible_buf: Vec<DeviceLoad>,
}

impl<'e, 'a> FleetRun<'e, 'a> {
    /// Whether this run is the [`Oracle::Linear`] reference: the O(K)
    /// `global_best` scan, a placement snapshot that walks every lane
    /// queue, and a `device_best` scan of every device for a barrier's
    /// committing devices, in place of the index.
    fn linear(&self) -> bool {
        self.oracle == Some(Oracle::Linear)
    }

    /// Freeze the step inputs for the current effective delay. Rebuilt
    /// whenever routing may have changed the delay; borrows only the
    /// run's `'a` inputs so the caller can keep mutating the run state.
    fn step_ctx(&self) -> StepCtx<'a, 'e> {
        let cfg = self.cfg;
        StepCtx {
            engines: self.engines,
            nets: self.nets,
            delay: self.delay.policy_delay,
            pol: self.pol,
            fplan: self.fplan,
            slo: self.slo_run.as_ref().map(|_| SloStepCtx {
                budgets: cfg
                    .tenants
                    .iter()
                    .map(|t| t.class.commit_budget(self.delay.policy_delay))
                    .collect(),
                ranks: cfg.tenants.iter().map(|t| t.class.rank()).collect(),
                tenants: &cfg.tenants,
            }),
        }
    }

    /// Earliest launchable batch across all devices: each device's
    /// [`device_best`] lane, then strict `<` across devices in index
    /// order — exactly the flat device-major scan's tie behaviour.
    ///
    /// Served from the incrementally maintained [`RouteIndex`]: only
    /// devices whose state changed since the last query recompute their
    /// key (O(dirty · log K)), and the winner reads off the tree root.
    /// The index's comparator *is* the linear scan's total order, so
    /// the selection — and therefore every report byte — is identical;
    /// debug builds re-run the scan and assert it.
    fn global_best(&mut self, ctx: &StepCtx) -> Option<(f64, usize, usize, usize)> {
        if self.linear() {
            return self.global_best_linear(ctx);
        }
        let (pairs, devs) = (&self.pairs, &self.devs);
        self.index.refresh(|d| device_best(ctx, &pairs[d], &devs[d]));
        let best = self.index.best();
        debug_assert_eq!(
            best.map(|(l, d, n, t)| (l.to_bits(), d, n, t)),
            self.global_best_linear(ctx).map(|(l, d, n, t)| (l.to_bits(), d, n, t)),
            "route index diverged from the linear scan"
        );
        best
    }

    /// The retained reference scan ([`Oracle::Linear`] and the
    /// debug-build cross-check).
    fn global_best_linear(&self, ctx: &StepCtx) -> Option<(f64, usize, usize, usize)> {
        let mut best: Option<(f64, usize, usize, usize)> = None;
        for (d, dev) in self.devs.iter().enumerate() {
            if let Some((launch, n, t)) = device_best(ctx, &self.pairs[d], dev) {
                if best.is_none_or(|(bl, _, _, _)| launch < bl) {
                    best = Some((launch, d, n, t));
                }
            }
        }
        best
    }

    /// Route-first rule: every request with arrival <= the committed
    /// launch must be routed before the commit, because the window
    /// admits exactly the requests that have arrived by `launch`
    /// (`arrival <= launch` — hence the inclusive comparison against
    /// the tentative best).
    fn should_route(&self, best: Option<(f64, usize, usize, usize)>) -> bool {
        self.next_arrival < self.requests.len()
            && best.is_none_or(|(bl, _, _, _)| self.requests[self.next_arrival].arrival <= bl)
    }

    /// Route the next arrival: health transitions, phase-boundary delay
    /// updates, the EMA, placement, and the arrival-timestamped queue
    /// gauges.
    fn route_one(&mut self) {
        ROUTES.incr();
        let r = self.requests[self.next_arrival];
        // Device lifecycle first: every fault event at or before this
        // arrival fires now, in both loops at the identical state point
        // (the route-first rule has applied exactly the commits
        // launching before `r.arrival` in each).
        self.advance_health(r.arrival);
        // Phase boundaries crossed by this arrival re-derive the
        // delay from the EMA observed so far. A delay change shifts
        // every device's tentative launch, so the whole index is stale.
        while self.delay.next_bound < self.delay.phase_bounds.len()
            && r.arrival >= self.delay.phase_bounds[self.delay.next_bound]
        {
            if let (Some(ad), Some(e)) = (&self.cfg.adaptive, self.delay.ema) {
                let fresh = ad.delay(e);
                if fresh != self.delay.policy_delay {
                    self.delay.policy_delay = fresh;
                    self.index.mark_all();
                }
            }
            self.delay.next_bound += 1;
        }
        if let Some(ad) = &self.cfg.adaptive {
            if let Some(last) = self.delay.last_arrival {
                self.delay.ema = Some(ad.update_ema(self.delay.ema, r.arrival - last));
            }
            self.delay.last_arrival = Some(r.arrival);
        }
        let n = (r.id as usize) % self.nn;
        // SLO admission: a rejected arrival never reaches placement —
        // it keeps the `u32::MAX` placement sentinel and 0.0 latency.
        let mut lt = 0usize;
        if let Some(slo) = self.slo_run.as_mut() {
            let t = slo.tags[r.id as usize] as usize;
            slo.admitted[t] += 1;
            if !slo.admission.admit(t, r.arrival) {
                slo.rejected[t] += 1;
                self.g.placements[r.id as usize] = u32::MAX;
                let cfg = self.cfg;
                fault_span(r.arrival, 0.0, || {
                    (
                        format!("reject request {}", r.id),
                        vec![
                            (trace::intern("reason").into(), trace::intern("admission").into()),
                            (
                                trace::intern("tenant").into(),
                                trace::intern(&cfg.tenants[t].name).into(),
                            ),
                        ],
                    )
                });
                self.next_arrival += 1;
                return;
            }
            lt = t;
        }
        // Placement: the index's rows, refreshed only for devices marked
        // since the last route (the linear oracle re-walks every lane
        // queue into the recycled buffer, as the pre-row router did).
        let mut loads = std::mem::take(&mut self.loads_buf);
        let (rows, others_images): (&[DeviceLoad], usize) = if self.linear() {
            loads.clear();
            loads.extend((0..self.k).map(|d| self.load_of(d, n)));
            (&loads, loads.iter().map(|l| l.queued_images).sum())
        } else {
            let (pairs, devs, caps) = (&self.pairs, &self.devs, &self.caps);
            self.index.refresh_rows(|d, n| device_load(pairs, devs, caps, false, d, n));
            let rows = self.index.rows(n);
            debug_assert!(
                rows.iter().all(|r| same_load(r, &self.load_of(r.device, n))),
                "placement rows diverged from the lane queues"
            );
            (rows, self.index.queued_images())
        };
        let d = place_on(
            self.placer.as_mut(),
            self.health.as_ref(),
            &mut self.eligible_buf,
            &PlacementCtx {
                now: r.arrival,
                images: r.images,
                network: n,
                max_batch: self.max,
                devices: rows,
            },
        )
        .min(self.k - 1);
        // Fleet queue total before this route, less the routed device's
        // share (its own gauge below reads the post-route counter).
        let others_images = others_images - rows[d].queued_images;
        self.loads_buf = loads;
        self.g.placements[r.id as usize] = d as u32;
        self.pairs[d][n].lanes[lt].queue.push(r);
        self.devs[d].push_queued(r.images);
        {
            let pair = &mut self.pairs[d][n];
            for (t2, lane) in pair.lanes.iter_mut().enumerate() {
                self.g.fleet_shed +=
                    shed_overdue(lane, &mut self.devs[d], d, t2, self.pol.shed_deadline);
            }
        }
        self.index.mark(d);
        // Queue-pressure gauges at the arrival: the routed device's
        // backlog (post-shed, via the maintained counter) plus the fleet
        // total (other devices are unchanged since their rows).
        let dev_images = self.devs[d].queued_images;
        debug_assert_eq!(
            dev_images,
            self.pairs[d].iter().map(|p| p.pending_images()).sum::<usize>(),
            "queued-images counter diverged from the lane queues"
        );
        let total_images = dev_images + others_images;
        self.g.rec.gauge_at(self.g.ids.dev_queue_images[d], r.arrival, dev_images as f64);
        self.g.rec.gauge_at(self.g.ids.queue_images, r.arrival, total_images as f64);
        self.next_arrival += 1;
    }

    /// Load snapshot of device `d` for network `n`'s placement call (see
    /// [`device_load`]).
    fn load_of(&self, d: usize, n: usize) -> DeviceLoad {
        device_load(&self.pairs, &self.devs, &self.caps, self.linear(), d, n)
    }

    /// The tenant lane a request routes to (lane 0 on class-blind runs).
    fn lane_of(&self, id: u64) -> usize {
        self.slo_run.as_ref().map_or(0, |s| s.tags[id as usize] as usize)
    }

    /// Fire every device-fault event due by `now` and drain the transit
    /// buffer. Called at every routing point — where both loops hold
    /// bit-identical state — and nowhere else.
    fn advance_health(&mut self, now: f64) {
        let Some(mut h) = self.health.take() else { return };
        for d in 0..self.k {
            self.advance_device(&mut h, d, now);
        }
        self.drain_transit(&mut h, now);
        let healthy = h.healthy();
        if h.last_healthy != Some(healthy) {
            h.last_healthy = Some(healthy);
            self.g.rec.gauge_at(self.g.ids.devices_healthy, now, healthy as f64);
        }
        let backlog = h.transit.len();
        if h.last_backlog != Some(backlog) {
            h.last_backlog = Some(backlog);
            self.g.rec.gauge_at(self.g.ids.failover_backlog, now, backlog as f64);
        }
        self.health = Some(h);
    }

    /// Step device `d`'s lifecycle machine up to `now`, firing due plan
    /// events and timer-driven transitions until it settles.
    fn advance_device(&mut self, h: &mut HealthRun, d: usize, now: f64) {
        loop {
            let due = h.devs[d].events.front().filter(|e| e.t <= now).copied();
            match h.devs[d].state {
                HealthState::Healthy | HealthState::Draining => {
                    if let Some(ev) = due {
                        h.devs[d].events.pop_front();
                        match ev.kind {
                            DeviceFaultKind::Crash | DeviceFaultKind::Hang => {
                                self.fail_over(h, d);
                                // A hang holds its in-flight work hostage:
                                // repair starts only once the device would
                                // have gone idle. A crash repairs from the
                                // event itself.
                                let base = if ev.kind == DeviceFaultKind::Crash {
                                    ev.t
                                } else {
                                    ev.t.max(self.devs[d].gpu_free)
                                };
                                h.devs[d].down_until = base + h.repair;
                                h.devs[d].state = HealthState::Down;
                                self.devs[d].blocked = true;
                                h.downs += 1;
                                fault_span(ev.t, 0.0, || {
                                    (
                                        format!("device {d} {}", ev.kind),
                                        vec![(
                                            trace::intern("device").into(),
                                            trace::intern(&d.to_string()).into(),
                                        )],
                                    )
                                });
                                self.g.rec.gauge_at(
                                    self.g.ids.dev_health[d],
                                    now,
                                    HealthState::Down.gauge(),
                                );
                            }
                            DeviceFaultKind::Drain => {
                                // A duplicate drain while already
                                // draining is a no-op.
                                if h.devs[d].state == HealthState::Healthy {
                                    h.devs[d].state = HealthState::Draining;
                                    h.devs[d].fault_t = ev.t;
                                    fault_span(ev.t, 0.0, || {
                                        (
                                            format!("device {d} drain"),
                                            vec![(
                                                trace::intern("device").into(),
                                                trace::intern(&d.to_string()).into(),
                                            )],
                                        )
                                    });
                                    self.g.rec.gauge_at(
                                        self.g.ids.dev_health[d],
                                        now,
                                        HealthState::Draining.gauge(),
                                    );
                                }
                            }
                        }
                        self.devs[d].halt = h.devs[d].halt();
                        self.index.mark(d);
                        continue;
                    }
                    if h.devs[d].state == HealthState::Draining
                        && !self.pairs[d].iter().any(PairState::has_pending)
                    {
                        // Served out: the decommission completes. The
                        // repair clock starts once both the drain order
                        // and the last committed batch are behind us.
                        h.devs[d].down_until =
                            h.devs[d].fault_t.max(self.devs[d].gpu_free) + h.repair;
                        h.devs[d].state = HealthState::Down;
                        self.devs[d].blocked = true;
                        h.downs += 1;
                        self.index.mark(d);
                        self.g.rec.gauge_at(
                            self.g.ids.dev_health[d],
                            now,
                            HealthState::Down.gauge(),
                        );
                        continue;
                    }
                    break;
                }
                HealthState::Down => {
                    if due.is_some() {
                        // Events landing on a dead device are spent.
                        h.devs[d].events.pop_front();
                        self.devs[d].halt = h.devs[d].halt();
                        self.index.mark(d);
                        continue;
                    }
                    if now >= h.devs[d].down_until {
                        // Heal: a warm spare comes up with cold plan
                        // caches. Compiles charge zero simulated time,
                        // so the warmup window is charged explicitly on
                        // the device clock — that is the recovery
                        // latency bump the timeline shows.
                        let warm_until = h.devs[d].down_until + h.warmup;
                        h.devs[d].warm_until = warm_until;
                        h.devs[d].state = HealthState::Warming;
                        for pair in &mut self.pairs[d] {
                            h.warm_compiles += pair.cache.reset() as u64;
                            pair.plan_cap = self.max;
                            pair.pin = None;
                            pair.clean_streak = 0;
                        }
                        self.devs[d].gpu_free = self.devs[d].gpu_free.max(warm_until);
                        self.devs[d].blocked = false;
                        self.index.mark(d);
                        self.g.rec.gauge_at(
                            self.g.ids.dev_health[d],
                            now,
                            HealthState::Warming.gauge(),
                        );
                        continue;
                    }
                    break;
                }
                HealthState::Warming => {
                    if due.is_some() {
                        h.devs[d].events.pop_front();
                        self.devs[d].halt = h.devs[d].halt();
                        self.index.mark(d);
                        continue;
                    }
                    if now >= h.devs[d].warm_until {
                        // Warming -> Healthy touches only the lifecycle
                        // record, not the routing state — no index mark.
                        h.devs[d].state = HealthState::Healthy;
                        h.ups += 1;
                        self.g.rec.gauge_at(
                            self.g.ids.dev_health[d],
                            now,
                            HealthState::Healthy.gauge(),
                        );
                        continue;
                    }
                    break;
                }
            }
        }
    }

    /// Move device `d`'s queued (uncommitted) requests into the transit
    /// buffer. In-flight work is already settled — commits never
    /// straddle the device's halt horizon.
    fn fail_over(&mut self, h: &mut HealthRun, d: usize) {
        let mut moved_reqs = 0usize;
        let mut moved_images = 0usize;
        for pair in &mut self.pairs[d] {
            for (t, lane) in pair.lanes.iter_mut().enumerate() {
                if lane.has_pending() {
                    let moved = lane.queue.split_off(lane.next);
                    h.failed_over[t] += moved.len() as u64;
                    h.dev_failed_over[d] += moved.len() as u64;
                    moved_reqs += moved.len();
                    moved_images += moved.iter().map(|r| r.images).sum::<usize>();
                    h.transit.extend(moved);
                }
            }
        }
        self.devs[d].drop_queued(moved_reqs, moved_images);
        self.index.mark(d);
    }

    /// Re-place transiting requests onto the candidate devices (their
    /// [`DeviceLoad`] snapshots), preserving each request's original
    /// arrival so the deadline/shed ladder still applies. Returns how
    /// many it re-placed.
    fn requeue_transit(&mut self, h: &mut HealthRun, now: f64, candidates: &[usize]) -> u64 {
        let transit = std::mem::take(&mut h.transit);
        let mut requeued = 0u64;
        for r in transit {
            let n = (r.id as usize) % self.nn;
            let mut loads = std::mem::take(&mut self.loads_buf);
            loads.clear();
            loads.extend(candidates.iter().map(|&d| self.load_of(d, n)));
            let d = self
                .placer
                .place(&PlacementCtx {
                    now,
                    images: r.images,
                    network: n,
                    max_batch: self.max,
                    devices: &loads,
                })
                .min(self.k - 1);
            self.loads_buf = loads;
            let t = self.lane_of(r.id);
            self.g.placements[r.id as usize] = d as u32;
            self.pairs[d][n].lanes[t].queue.push(r);
            self.devs[d].push_queued(r.images);
            self.index.mark(d);
            requeued += 1;
        }
        requeued
    }

    /// Re-place the transit buffer onto `Healthy` devices, if any.
    fn drain_transit(&mut self, h: &mut HealthRun, now: f64) {
        if h.transit.is_empty() {
            return;
        }
        let healthy: Vec<usize> =
            (0..self.k).filter(|&d| h.devs[d].state == HealthState::Healthy).collect();
        if healthy.is_empty() {
            return;
        }
        h.requeued += self.requeue_transit(h, now, &healthy);
    }

    /// The routing-exhausted flush: once the last arrival has routed,
    /// no further routing point will fire health events — so fail over
    /// whatever is still queued on `Down` devices and settle the transit
    /// buffer (re-place onto any non-`Down` device, shed if the whole
    /// fleet is dead). Runs at the identical state point in both loops:
    /// immediately after the final route, before the next commit.
    /// Returns whether it ran (the sequential loop re-evaluates its
    /// global best afterwards).
    fn drain_flush(&mut self) -> bool {
        let Some(mut h) = self.health.take() else { return false };
        if h.flushed {
            self.health = Some(h);
            return false;
        }
        h.flushed = true;
        let now = self.requests.last().map_or(0.0, |r| r.arrival);
        for d in 0..self.k {
            // Zero-request runs never reach a routing point; fire any
            // events due by `now` here (with arrivals, the last routing
            // point already consumed them). Events scheduled after the
            // last arrival are void — the stream has ended and the
            // fleet drains unharassed; clearing them also releases the
            // commit-halt horizon so pending work can serve out.
            self.advance_device(&mut h, d, now);
            h.devs[d].events.clear();
            self.devs[d].halt = f64::INFINITY;
        }
        // Halt horizons just moved fleet-wide (and the failover below
        // may touch every device): one bulk invalidation.
        self.index.mark_all();
        for d in 0..self.k {
            if h.devs[d].state == HealthState::Down {
                self.fail_over(&mut h, d);
            }
        }
        if !h.transit.is_empty() {
            let alive: Vec<usize> =
                (0..self.k).filter(|&d| h.devs[d].state != HealthState::Down).collect();
            if alive.is_empty() {
                // The whole fleet is dead: shed, keeping the 0.0
                // latency sentinel and the last placement.
                let transit = std::mem::take(&mut h.transit);
                for r in transit {
                    let t = self.lane_of(r.id);
                    h.transit_shed[t] += 1;
                    self.g.fleet_shed += 1;
                    fault_span(now, 0.0, || {
                        (
                            format!("shed request {}", r.id),
                            vec![(
                                trace::intern("reason").into(),
                                trace::intern("failover").into(),
                            )],
                        )
                    });
                }
            } else {
                h.requeued += self.requeue_transit(&mut h, now, &alive);
                // Un-block the re-placement targets' commit path: a
                // Warming/Draining device serves out what the flush
                // hands it.
                for &d in &alive {
                    self.devs[d].blocked = false;
                }
            }
        }
        self.health = Some(h);
        true
    }

    /// The legacy single-threaded loop: alternate between routing the
    /// next arrival and committing the global-best batch, whichever
    /// comes first on the simulated clock.
    fn run_sequential(&mut self) -> Result<(), EngineError> {
        loop {
            let ctx = self.step_ctx();
            let best = self.global_best(&ctx);
            if self.should_route(best) {
                self.route_one();
                continue;
            }
            // Routing exhausted: settle the health layer (fail over
            // dead devices' queues, clear halt horizons) before the
            // remaining commits drain the fleet. State point:
            // immediately after the last route, before the next commit
            // — the same point the parallel loop flushes at.
            if self.next_arrival >= self.requests.len() && self.drain_flush() {
                continue;
            }
            let Some((_, d, n, t)) = best else { break };
            commit_pair(&ctx, &mut self.pairs[d], &mut self.devs[d], d, n, t, &mut self.g)?;
            self.index.mark(d);
        }
        Ok(())
    }

    /// The barrier-stepped parallel loop: route every arrival up to the
    /// barrier, batch-compile predicted cold buckets, step active
    /// devices concurrently, then replay their deferred effects in the
    /// sequential merge order.
    fn run_parallel(&mut self) -> Result<(), EngineError> {
        loop {
            // Routing barrier: place arrivals until the next one is
            // strictly later than every tentative launch. This is the
            // exact run of consecutive routes the sequential loop
            // performs between two commits.
            loop {
                let ctx = self.step_ctx();
                let best = self.global_best(&ctx);
                if !self.should_route(best) {
                    break;
                }
                self.route_one();
            }
            let t_next = self.requests.get(self.next_arrival).map(|r| r.arrival);
            if t_next.is_none() {
                // Same state point as the sequential flush: the last
                // arrival just routed and nothing has committed since.
                self.drain_flush();
            }
            let ctx = self.step_ctx();
            let active = self.committing(&ctx, t_next);
            if active.is_empty() {
                // Nothing launchable and nothing routable: the run is
                // drained (the route loop would otherwise have routed).
                debug_assert!(t_next.is_none(), "arrivals remain but none were routed");
                break;
            }
            BARRIERS.incr();
            self.batch_compile(&ctx, &active, t_next);
            if active.len() >= 2 {
                PARALLEL_STEPS.incr();
            }

            let mut tasks: Vec<(usize, &mut Vec<PairState>, &mut DeviceState)> =
                Vec::with_capacity(active.len());
            for (d, (pairs_d, dev)) in self.pairs.iter_mut().zip(self.devs.iter_mut()).enumerate() {
                if active.binary_search(&d).is_ok() {
                    tasks.push((d, pairs_d, dev));
                }
            }
            let fork = trace::fork();
            let results = rayon::scope_map(tasks, |(d, pairs_d, dev)| {
                let _w = fork.attach(d);
                step_device(&ctx, pairs_d, dev, d, t_next)
            });
            fork.merge();

            // Greedy k-way head merge: at every point a queue's head key
            // equals that device's then-current local best, so popping
            // the `(key, device)` minimum replays the sequential loop's
            // global selection exactly. A flat sort would NOT — plan-OOM
            // compounds make per-device key sequences non-monotone.
            let mut queues: Vec<(usize, VecDeque<DeviceEvent>)> = Vec::with_capacity(active.len());
            for (&d, res) in active.iter().zip(results) {
                let events = res?;
                debug_assert!(!events.is_empty(), "device {d} was due but committed nothing");
                queues.push((d, VecDeque::from(events)));
                // The barrier stepped the device's queues and clock; its
                // cached launch key and placement rows are stale.
                self.index.mark(d);
            }
            loop {
                let mut pick: Option<(f64, usize, usize)> = None;
                for (i, (d, q)) in queues.iter().enumerate() {
                    if let Some(head) = q.front() {
                        if pick.is_none_or(|(bk, bd, _)| (head.key, *d) < (bk, bd)) {
                            pick = Some((head.key, *d, i));
                        }
                    }
                }
                let Some((_, _, i)) = pick else { break };
                let mut ev = queues[i].1.pop_front().expect("picked head exists");
                for op in &ev.ops {
                    self.g.apply(op);
                }
                // Recycle the replayed event's op buffer into the
                // device's spare pool for the next barrier.
                ev.ops.clear();
                self.devs[queues[i].0].spare_ops.push(ev.ops);
            }
        }
        Ok(())
    }

    /// The devices that commit at least one batch before `t_next` (all
    /// of them when `t_next` is `None`): those whose earliest launchable
    /// batch ([`device_best`], read from the refreshed index) launches
    /// strictly earlier, in device order. Only they step at a barrier —
    /// any other device's step would only read its state — so a barrier
    /// costs O(committing devices), not O(devices with pending work).
    fn committing(&mut self, ctx: &StepCtx, t_next: Option<f64>) -> Vec<usize> {
        let due = |key: Option<(f64, usize, usize)>| {
            key.is_some_and(|(launch, _, _)| t_next.is_none_or(|t| launch < t))
        };
        let (pairs, devs) = (&self.pairs, &self.devs);
        if self.linear() {
            return (0..self.k).filter(|&d| due(device_best(ctx, &pairs[d], &devs[d]))).collect();
        }
        self.index.refresh(|d| device_best(ctx, &pairs[d], &devs[d]));
        (0..self.k).filter(|&d| due(self.index.key(d))).collect()
    }

    /// Speculatively compile the cold buckets this barrier's first
    /// commits would hit: predict each pending pair's next bucket,
    /// dedup identical (engine, network, bucket) compiles (homogeneous
    /// fleets share engines, hence plans), and stage the results so the
    /// in-step `get` consumes them as the misses they would have been.
    /// A single distinct compile runs inline on the orchestrator to
    /// keep the engine's internal probe fan-out (workers suppress
    /// nested parallelism); two or more fan out across the pool.
    /// Mispredictions waste a compile but are report- and
    /// counter-invisible: staged results only surface through `get`.
    /// Only the `active` (committing) devices are scanned: on any other
    /// device every lane launches at or past `t_next` or its halt.
    fn batch_compile(&mut self, ctx: &StepCtx, active: &[usize], t_next: Option<f64>) {
        let mut compiles: Vec<(usize, usize, usize)> = Vec::new();
        let mut waiters: Vec<Vec<(usize, usize)>> = Vec::new();
        for &d in active {
            for (n, pair) in self.pairs[d].iter().enumerate() {
                let emax = pair.emax();
                for (lt, lane) in pair.lanes.iter().enumerate() {
                    if !lane.has_pending() {
                        continue;
                    }
                    let launch = window_launch(
                        &lane.queue,
                        lane.next,
                        self.devs[d].gpu_free,
                        emax,
                        ctx.lane_delay(lt),
                    );
                    if t_next.is_some_and(|t| launch >= t) || launch >= self.devs[d].halt {
                        continue; // won't commit this step
                    }
                    let (_, images, _) = form(&lane.queue, lane.next, launch, emax);
                    let bucket = bucket_for(images, emax);
                    if pair.cache.contains(bucket) || pair.cache.has_staged(bucket) {
                        continue;
                    }
                    let dup = compiles.iter().position(|&(cd, cn, cb)| {
                        cn == n && cb == bucket && std::ptr::eq(self.engines[cd], self.engines[d])
                    });
                    match dup {
                        Some(i) => {
                            if !waiters[i].contains(&(d, n)) {
                                waiters[i].push((d, n));
                            }
                        }
                        None => {
                            compiles.push((d, n, bucket));
                            waiters.push(vec![(d, n)]);
                        }
                    }
                }
            }
        }
        if compiles.is_empty() {
            return;
        }
        BATCH_COMPILES.add(compiles.len() as u64);
        let results: Vec<Result<Plan, EngineError>> = if compiles.len() == 1 {
            let (d, n, b) = compiles[0];
            vec![self.pairs[d][n].cache.compile_detached(b)]
        } else {
            let pairs = &self.pairs;
            let jobs: Vec<(usize, (usize, usize, usize))> =
                compiles.iter().copied().enumerate().collect();
            let fork = trace::fork();
            let out = rayon::scope_map(jobs, |(i, (d, n, b))| {
                let _w = fork.attach(i);
                pairs[d][n].cache.compile_detached(b)
            });
            fork.merge();
            out
        };
        for ((&(_, _, b), ws), result) in compiles.iter().zip(&waiters).zip(results) {
            for &(d, n) in ws {
                self.pairs[d][n].cache.stage(b, result.clone());
            }
        }
    }
}

/// Run the fleet simulation to completion (every generated request is
/// served or shed). Deterministic: same engine configs + networks +
/// `cfg` give a bit-identical [`FleetReport`] — latencies, placements,
/// batch records, fault statistics, and metrics timelines — at every
/// thread budget (`rayon::with_max_threads`, else `MEMCNN_THREADS`), and
/// identical to each reference driver of [`serve_fleet_oracle`].
///
/// `engines[d]` is device `d`; pass the same `&Engine` K times for a
/// homogeneous fleet (they share the engine's simulation warmup, and
/// the parallel path's batched cold-start compilation compiles each
/// shared (network, bucket) plan once). Request `id % nets.len()`
/// selects the request's network, so several networks multiplex across
/// one fleet — and, through per-(device, network) plan caches, across
/// one device.
pub fn serve_fleet(
    engines: &[&Engine],
    nets: &[Network],
    cfg: &FleetConfig,
) -> Result<FleetReport, EngineError> {
    run_fleet(engines, nets, cfg, None)
}

/// A reference driver of the fleet loop: slower code that
/// [`serve_fleet`] must match byte for byte. Tests and the scenario
/// harness run one beside the shipping path and compare the reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The retained single-threaded event loop: one event at a time, no
    /// routing barriers, no parallel device steps, no batched compiles.
    Sequential,
    /// The parallel loop with the route index bypassed: a linear scan of
    /// every device per selection and placement rows rebuilt from the
    /// lane queues per route (the pre-index router, whose wall time the
    /// `stream-k16` scenario gates against).
    Linear,
}

/// [`serve_fleet`] under a reference driver. The report must be
/// byte-identical to [`serve_fleet`]'s; only the host time differs.
pub fn serve_fleet_oracle(
    engines: &[&Engine],
    nets: &[Network],
    cfg: &FleetConfig,
    oracle: Oracle,
) -> Result<FleetReport, EngineError> {
    run_fleet(engines, nets, cfg, Some(oracle))
}

/// [`serve_fleet`] under `oracle`'s reference driver if one is given.
fn run_fleet(
    engines: &[&Engine],
    nets: &[Network],
    cfg: &FleetConfig,
    oracle: Option<Oracle>,
) -> Result<FleetReport, EngineError> {
    if engines.is_empty() {
        return Err(EngineError::Fatal("fleet needs at least one device".to_string()));
    }
    if nets.is_empty() {
        return Err(EngineError::Fatal("fleet needs at least one network".to_string()));
    }
    let k = engines.len();
    let nn = nets.len();
    let requests = workload::generate(&cfg.workload);
    perf::add("serve.requests", requests.len() as u64);
    let max = cfg.policy.max_batch_images.max(1);
    let fplan = cfg.faults.filter(|p| !p.is_noop());
    let pol = cfg.fault_policy;
    let dplan = cfg.device_faults.clone().filter(|p| !p.is_noop());

    // MemoryAware needs each (device, network)'s feasible batch cap up
    // front; the other policies never read it, so they skip the probe
    // compiles entirely (so a one-device run places round-robin).
    let bucket_list = buckets(&cfg.policy);
    let caps: Vec<Vec<usize>> = (0..k)
        .map(|d| {
            (0..nn)
                .map(|n| {
                    if cfg.placement == Placement::MemoryAware {
                        let descending: Vec<usize> = bucket_list.iter().rev().copied().collect();
                        feasible_max_batch(engines[d], &nets[n], cfg.mechanism, &descending)
                            .map_or(0, |(cap, _)| cap)
                    } else {
                        max
                    }
                })
                .collect()
        })
        .collect();

    // One lane per tenant when SLO scheduling is active; a single lane
    // otherwise, which makes every lane loop below reduce structurally
    // to the pre-tenant arithmetic (the byte-identity tests pin this).
    let slo_active = !cfg.tenants.is_empty();
    let nlanes = if slo_active { cfg.tenants.len() } else { 1 };
    let tags: Vec<u32> = if slo_active {
        tenant_tags(cfg.workload.seed, requests.len(), &cfg.tenants)
    } else {
        Vec::new()
    };

    // Expand the device-fault plan once, purely, over the stream's
    // horizon (the last arrival): events after it are unreachable — no
    // routing point ever fires them — so bounding the expansion keeps
    // the run finite without changing behaviour.
    let health = dplan.as_ref().map(|p| {
        let horizon = requests.last().map_or(0.0, |r| r.arrival);
        let events = p.events_for(k, horizon);
        let mut queues: Vec<VecDeque<memcnn_gpusim::DeviceFault>> =
            (0..k).map(|_| VecDeque::new()).collect();
        for ev in events {
            queues[ev.device as usize].push_back(ev);
        }
        HealthRun {
            devs: queues.into_iter().map(DeviceHealth::new).collect(),
            repair: p.repair.max(0.0),
            warmup: p.warmup.max(0.0),
            transit: Vec::new(),
            failed_over: vec![0; nlanes],
            dev_failed_over: vec![0; k],
            transit_shed: vec![0; nlanes],
            requeued: 0,
            downs: 0,
            ups: 0,
            warm_compiles: 0,
            flushed: false,
            last_healthy: None,
            last_backlog: None,
        }
    });

    let pairs: Vec<Vec<PairState>> = (0..k)
        .map(|d| {
            (0..nn)
                .map(|n| PairState {
                    cache: PlanCache::new(engines[d], &nets[n], cfg.mechanism),
                    lanes: (0..nlanes).map(|_| Lane::new()).collect(),
                    plan_cap: max,
                    pin: None,
                    clean_streak: 0,
                })
                .collect()
        })
        .collect();
    let devs: Vec<DeviceState> = (0..k)
        .map(|d| DeviceState {
            gpu_free: 0.0,
            launches: 0,
            stats: FaultStats::default(),
            shed: 0,
            plan_ooms: 0,
            batches: Vec::new(),
            busy: 0.0,
            credits: vec![0.0; nlanes],
            shed_by_tenant: vec![0; nlanes],
            early: 0,
            preempt: 0,
            halt: health.as_ref().map_or(f64::INFINITY, |h| h.devs[d].halt()),
            blocked: false,
            queued_requests: 0,
            queued_images: 0,
            spare_ops: Vec::new(),
        })
        .collect();

    // Timeline instrumentation. Routing samples are timestamped at the
    // arrival; commit samples at the committed launch. The route-first
    // rule guarantees both sequences interleave monotonically (every
    // arrival <= the next committed launch, and committed launches are
    // non-decreasing), so every counter track stays sorted in time.
    // Deadline sheds happen on a *device* clock that may run ahead of
    // the event frontier, so their totals are sampled at the next commit
    // rather than at shed time.
    // Resolve every gauge/latency-key handle once, up front: hot-path
    // samples become index pushes, and unused registrations vanish from
    // the finished timeline (empty slots are dropped), so this cannot
    // change a single output byte.
    let mut rec = Recorder::default();
    let ids = FleetGaugeIds::new(&mut rec, k);
    let slo_globals = slo_active.then(|| GlobalsSlo {
        tenant_of: tags.clone(),
        images_of: requests.iter().map(|r| r.images as u64).collect(),
        latency_keys: cfg.tenants.iter().map(|t| rec.latency_key(&t.name)).collect(),
        p99: cfg.tenants.iter().map(|t| t.class.p99_budget()).collect(),
        violation_ids: cfg
            .tenants
            .iter()
            .map(|t| {
                t.class.p99_budget().map(|_| rec.gauge_id(&format!("tenant.{}.violations", t.name)))
            })
            .collect(),
        completed: vec![0; nlanes],
        images: vec![0; nlanes],
        violations: vec![0; nlanes],
    });
    let g = Globals {
        latencies: vec![0.0f64; requests.len()],
        placements: vec![0u32; requests.len()],
        rec,
        ids,
        seen_plans: BTreeSet::new(),
        cache_lookups: 0,
        cache_hits: 0,
        fleet_shed: 0,
        slo: slo_globals,
    };
    let phase_bounds: Vec<f64> = {
        let mut t = 0.0f64;
        let mut bounds = Vec::new();
        for ph in &cfg.workload.phases {
            t += ph.duration;
            bounds.push(t);
        }
        bounds.pop(); // the end of the last phase is not a boundary
        bounds
    };
    let n_requests = requests.len();
    let mut run = FleetRun {
        engines,
        nets,
        cfg,
        requests,
        caps,
        pairs,
        devs,
        placer: cfg.placement.build(),
        g,
        delay: DelayState {
            policy_delay: cfg.policy.max_queue_delay,
            ema: None,
            last_arrival: None,
            phase_bounds,
            next_bound: 0,
        },
        next_arrival: 0,
        pol,
        fplan,
        max,
        k,
        nn,
        slo_run: slo_active.then(|| SloRun {
            tags: tags.clone(),
            admission: Admission::new(&cfg.tenants),
            admitted: vec![0; nlanes],
            rejected: vec![0; nlanes],
        }),
        health,
        index: RouteIndex::new(k, nn),
        oracle,
        loads_buf: Vec::new(),
        eligible_buf: Vec::new(),
    };
    if oracle == Some(Oracle::Sequential) {
        run.run_sequential()?;
    } else {
        run.run_parallel()?;
    }
    let FleetRun { pairs, devs, g, slo_run, health, .. } = run;
    let Globals { latencies, placements, rec, slo: g_slo, .. } = g;

    // Aggregate accounting under the `serve.*` / `fault.*` counter names.
    let mut agg = FaultStats::default();
    let mut shed_requests = 0usize;
    let mut plan_ooms = 0u64;
    let mut total_batches = 0usize;
    for (d, dev) in devs.iter().enumerate() {
        dev.stats.check_balanced(format_args!("device {d}"))?;
        agg.injected += dev.stats.injected;
        agg.retried += dev.stats.retried;
        agg.degraded += dev.stats.degraded;
        agg.shed += dev.stats.shed;
        agg.throttled += dev.stats.throttled;
        agg.oom_downshifts += dev.stats.oom_downshifts;
        agg.degraded_entries += dev.stats.degraded_entries;
        agg.degraded_exits += dev.stats.degraded_exits;
        shed_requests += dev.shed;
        plan_ooms += dev.plan_ooms;
        total_batches += dev.batches.len();
    }
    // Transit sheds (failed-over requests with no live target) belong
    // to the fleet, not to any device; fold them into the total the
    // same way the routing loop already folded them into `fleet_shed`.
    if let Some(h) = &health {
        shed_requests += h.transit_shed.iter().sum::<u64>() as usize;
        perf::add("fleet.device.down", h.downs);
        perf::add("fleet.device.up", h.ups);
        perf::add("fleet.failover.requeued", h.requeued);
        perf::add("fleet.warm.compiles", h.warm_compiles);
    }
    perf::add("serve.batches", total_batches as u64);
    perf::add("serve.shed", shed_requests as u64);
    perf::add("serve.plan.oom", plan_ooms);
    perf::add("fault.injected", agg.injected);
    perf::add("fault.retried", agg.retried);
    perf::add("fault.degraded", agg.degraded);
    perf::add("fault.shed", agg.shed);
    perf::add("serve.degraded.enter", agg.degraded_entries);
    perf::add("serve.degraded.exit", agg.degraded_exits);
    agg.check_balanced("fleet")?;

    let devices: Vec<DeviceReport> = devs
        .iter()
        .enumerate()
        .map(|(d, dev)| {
            let networks: Vec<NetworkBuckets> = (0..nn)
                .filter(|&n| !pairs[d][n].cache.is_empty())
                .map(|n| {
                    let hits: Vec<&BatchRecord> = dev
                        .batches
                        .iter()
                        .filter(|b| b.network as usize == n)
                        .map(|b| &b.record)
                        .collect();
                    let buckets = pairs[d][n]
                        .cache
                        .plans()
                        .iter()
                        .map(|(&bucket, plan)| {
                            let in_bucket: Vec<&&BatchRecord> =
                                hits.iter().filter(|b| b.bucket == bucket).collect();
                            let images: usize = in_bucket.iter().map(|b| b.images).sum();
                            BucketStats {
                                bucket,
                                batches: in_bucket.len(),
                                images,
                                fill: if in_bucket.is_empty() {
                                    0.0
                                } else {
                                    images as f64 / (in_bucket.len() * bucket) as f64
                                },
                                conv_layouts: plan.conv_layout_signature(),
                                transforms: plan.transform_count(),
                                service_time: plan.total_time(),
                            }
                        })
                        .collect();
                    NetworkBuckets { network: nets[n].name.clone(), buckets }
                })
                .collect();
            DeviceReport {
                device: engines[d].device().name.clone(),
                requests: pairs[d]
                    .iter()
                    .map(|p| p.lanes.iter().map(|l| l.queue.len()).sum::<usize>())
                    .sum(),
                images: dev.batches.iter().map(|b| b.record.images).sum(),
                makespan: dev.gpu_free,
                batches: dev.batches.clone(),
                networks,
                shed_requests: dev.shed,
                faults: dev.stats,
            }
        })
        .collect();

    let makespan = devs.iter().map(|d| d.gpu_free).fold(0.0f64, f64::max);

    // Per-tenant SLO rollup: admission tallies from the router, served
    // tallies from the globally ordered replay, sheds and scheduler
    // counters from the devices, residual lane depths as in-flight.
    let slo = match (slo_run, g_slo) {
        (Some(sr), Some(gs)) => {
            let nt = cfg.tenants.len();
            let mut shed_by = vec![0u64; nt];
            let mut early = 0u64;
            let mut preempt = 0u64;
            for dev in &devs {
                for (t, shed) in shed_by.iter_mut().enumerate() {
                    *shed += dev.shed_by_tenant[t];
                }
                early += dev.early;
                preempt += dev.preempt;
            }
            let mut in_flight = vec![0u64; nt];
            for pairs_d in &pairs {
                for pair in pairs_d {
                    for (t, lane) in pair.lanes.iter().enumerate() {
                        in_flight[t] += lane.pending().len() as u64;
                    }
                }
            }
            // Failover accounting: transit sheds join the tenant's shed
            // tally (they are terminal), the transit-buffer residual is
            // the balance identity's new term, and the cumulative
            // failed-over counts ride along for observability.
            let mut failed_over = vec![0u64; nt];
            let mut in_transit = vec![0u64; nt];
            if let Some(h) = &health {
                for (s, &ts) in shed_by.iter_mut().zip(&h.transit_shed) {
                    *s += ts;
                }
                failed_over.copy_from_slice(&h.failed_over[..nt]);
                for r in &h.transit {
                    in_transit[sr.tags[r.id as usize] as usize] += 1;
                }
            }
            let device_seconds: f64 = devs.iter().map(|d| d.busy).sum();
            Some(crate::slo::slo_report(
                &cfg.tenants,
                &latencies,
                &sr.tags,
                &sr.admitted,
                &sr.rejected,
                &gs.completed,
                &shed_by,
                &in_flight,
                &gs.images,
                &gs.violations,
                early,
                preempt,
                &failed_over,
                &in_transit,
                device_seconds,
            )?)
        }
        _ => None,
    };

    let health_report = health.map(|h| HealthReport {
        downs: h.downs,
        ups: h.ups,
        requeued: h.requeued,
        warm_compiles: h.warm_compiles,
        failed_over: h.failed_over.iter().sum(),
        failed_over_in_transit: h.transit.len() as u64,
        transit_shed: h.transit_shed.iter().sum(),
        device_failed_over: h.dev_failed_over,
        states: h.devs.iter().map(|d| d.state).collect(),
    });
    if let Some(h) = &health_report {
        h.check_conserved()?;
    }

    let timeline = rec.finish();
    // Mirror the timeline onto the Perfetto counter tracks (a no-op when
    // tracing is inactive).
    timeline.emit_trace_counters(trace::Track::Fleet);
    Ok(FleetReport {
        config: cfg.clone(),
        networks: nets.iter().map(|n| n.name.clone()).collect(),
        requests: n_requests,
        latencies,
        placements,
        devices,
        makespan,
        shed_requests,
        faults: agg,
        timeline,
        slo,
        health: health_report,
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

    fn tiny_net(name: &str) -> Network {
        NetworkBuilder::new(name, Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .unwrap()
    }

    fn workload(rate: f64, duration: f64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Poisson { rate }, duration }],
            images_min: 1,
            images_max: 4,
            seed,
        }
    }

    #[test]
    fn every_request_is_served_across_devices() {
        let e = tiny_engine();
        let net = tiny_net("fleet-tiny");
        let cfg = FleetConfig::new(
            workload(800.0, 0.2, 11),
            BatchPolicy::new(32, 0.004),
            Placement::LeastLoaded,
        );
        let report = serve_fleet(&[&e, &e], std::slice::from_ref(&net), &cfg).unwrap();
        assert!(report.requests > 0);
        assert_eq!(report.latencies.len(), report.requests);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.placements.len(), report.requests);
        assert!(report.placements.iter().all(|&p| p < 2));
        // Both devices took work under least-loaded at this load.
        assert!(report.devices.iter().all(|d| !d.batches.is_empty()));
        assert_eq!(report.devices.iter().map(|d| d.requests).sum::<usize>(), report.requests);
        assert_eq!(report.images(), report.devices.iter().map(|d| d.images).sum::<usize>());
        // Per-device batches never overlap on that device.
        for dev in &report.devices {
            for w in dev.batches.windows(2) {
                assert!(w[0].record.done <= w[1].record.launch + 1e-12);
            }
        }
    }

    #[test]
    fn two_networks_multiplex_on_one_device() {
        let e = tiny_engine();
        let nets = [tiny_net("net-a"), tiny_net("net-b")];
        let cfg = FleetConfig::new(
            workload(600.0, 0.2, 3),
            BatchPolicy::new(16, 0.003),
            Placement::RoundRobin,
        );
        let report = serve_fleet(&[&e], &nets, &cfg).unwrap();
        assert_eq!(report.networks, vec!["net-a".to_string(), "net-b".to_string()]);
        let dev = &report.devices[0];
        let served: Vec<u32> = dev.batches.iter().map(|b| b.network).collect();
        assert!(served.contains(&0) && served.contains(&1), "both networks must serve");
        assert_eq!(dev.networks.len(), 2, "one bucket rollup per network");
        assert!(report.latencies.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn adaptive_delay_changes_at_phase_boundaries_only() {
        let e = tiny_engine();
        let net = tiny_net("fleet-adaptive");
        let base = BatchPolicy::new(32, 0.02);
        let wl = WorkloadConfig {
            phases: vec![
                Phase { arrival: Arrival::Poisson { rate: 200.0 }, duration: 0.2 },
                Phase { arrival: Arrival::Poisson { rate: 3000.0 }, duration: 0.1 },
            ],
            images_min: 1,
            images_max: 2,
            seed: 17,
        };
        let fixed = FleetConfig::new(wl.clone(), base, Placement::LeastLoaded);
        // Phase 1 runs on the configured 20 ms delay in both configs (the
        // estimator only acts at boundaries). At the boundary the EMA gap
        // is ~5 ms (200 req/s), so the adaptive delay clamps to 4 ms —
        // during the 3000 req/s burst the fixed config fills 32-image
        // windows in ~7 ms while the adaptive one launches at 4 ms.
        let adaptive = fixed.clone().with_adaptive(AdaptivePolicy {
            alpha: 0.2,
            target_batch: 8.0,
            min_delay: 5e-4,
            max_delay: 0.004,
        });
        let a = serve_fleet(&[&e], std::slice::from_ref(&net), &fixed).unwrap();
        let b = serve_fleet(&[&e], std::slice::from_ref(&net), &adaptive).unwrap();
        assert_eq!(a.requests, b.requests);
        // Re-running the adaptive config replays bit-identically.
        let b2 = serve_fleet(&[&e], std::slice::from_ref(&net), &adaptive).unwrap();
        let bits =
            |r: &FleetReport| -> Vec<u64> { r.latencies.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&b), bits(&b2));
        // The estimator actually changed behavior across the run.
        assert_ne!(bits(&a), bits(&b), "adaptive delay must alter the burst phase");
    }

    #[test]
    fn memory_aware_runs_on_heterogeneous_fleet() {
        let black = tiny_engine();
        let x = Engine::new(DeviceConfig::titan_x(), LayoutThresholds::titan_black_paper());
        let net = tiny_net("fleet-hetero");
        let cfg = FleetConfig::new(
            workload(700.0, 0.15, 5),
            BatchPolicy::new(32, 0.004),
            Placement::MemoryAware,
        );
        let report = serve_fleet(&[&black, &x], std::slice::from_ref(&net), &cfg).unwrap();
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(report.devices.len(), 2);
        assert_ne!(report.devices[0].device, report.devices[1].device);
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let e = tiny_engine();
        let net = tiny_net("fleet-empty");
        let cfg = FleetConfig::new(
            workload(10.0, 0.01, 1),
            BatchPolicy::new(8, 0.001),
            Placement::RoundRobin,
        );
        assert!(serve_fleet(&[], std::slice::from_ref(&net), &cfg).is_err());
        assert!(serve_fleet(&[&e], &[], &cfg).is_err());
    }

    /// One engine, one network, round-robin: the single-device server.
    fn serve_one(net: &Network, cfg: &FleetConfig) -> FleetReport {
        serve_fleet(&[&tiny_engine()], std::slice::from_ref(net), cfg).unwrap()
    }

    /// Device 0's batch records, in launch order.
    fn records(report: &FleetReport) -> Vec<BatchRecord> {
        report.devices[0].batches.iter().map(|b| b.record).collect()
    }

    fn uniform(rate: f64, duration: f64, images_max: usize, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Uniform { rate }, duration }],
            images_min: 1,
            images_max,
            seed,
        }
    }

    #[test]
    fn every_request_is_served_with_positive_latency() {
        let cfg = FleetConfig::new(
            workload(400.0, 0.2, 5),
            BatchPolicy::new(32, 0.005),
            Placement::RoundRobin,
        );
        let report = serve_one(&tiny_net("tiny-serve"), &cfg);
        let batches = records(&report);
        assert!(report.requests > 0);
        assert_eq!(report.latencies.len(), report.requests);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(batches.iter().map(|b| b.requests).sum::<usize>(), report.requests);
        assert!(report.makespan > 0.0);
        assert_eq!(report.shed_requests, 0);
        assert_eq!(report.faults, FaultStats::default());
        assert!(batches.iter().all(|b| b.attempts == 0 && b.throttled == 0));
        let lat = report.latency();
        assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);
    }

    #[test]
    fn batches_respect_policy_and_buckets_cover_batches() {
        let cfg = FleetConfig::new(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 2000.0 }, duration: 0.1 }],
                images_min: 1,
                images_max: 3,
                seed: 9,
            },
            BatchPolicy::new(16, 0.002),
            Placement::RoundRobin,
        );
        let report = serve_one(&tiny_net("tiny-serve"), &cfg);
        let batches = records(&report);
        let buckets = &report.devices[0].networks[0].buckets;
        for b in &batches {
            assert!(b.images <= 16);
            assert!(b.bucket >= b.images);
            assert!(b.done > b.launch);
        }
        // Batches never overlap on the single device.
        for w in batches.windows(2) {
            assert!(w[0].done <= w[1].launch + 1e-12);
        }
        // Every bucket used by a batch has stats and a compiled plan.
        for b in &batches {
            assert!(buckets.iter().any(|s| s.bucket == b.bucket));
        }
        for s in buckets {
            assert!(s.fill > 0.0 && s.fill <= 1.0);
            assert!(!s.conv_layouts.is_empty());
        }
    }

    #[test]
    fn quiet_stream_launches_on_deadline_not_full() {
        // 10 req/s with a 1 ms delay cap: every batch is a single request
        // launched at its deadline (service time is far below the gap).
        let cfg = FleetConfig::new(
            uniform(10.0, 1.0, 1, 2),
            BatchPolicy::new(64, 0.001),
            Placement::RoundRobin,
        );
        let report = serve_one(&tiny_net("tiny-serve"), &cfg);
        let batches = records(&report);
        assert!(batches.iter().all(|b| b.requests == 1 && b.bucket == 1));
        for (b, r) in batches.iter().zip(&report.latencies) {
            // Latency = queue delay cap + service time.
            assert!((r - (0.001 + (b.done - b.launch))).abs() < 1e-9);
        }
    }

    #[test]
    fn certain_transients_shed_everything_without_panicking() {
        // launch_failed = 1.0: every attempt of every batch fails, retries
        // exhaust, every request is shed — and the run still returns Ok
        // with balanced accounting.
        let cfg = FleetConfig::new(
            uniform(100.0, 0.1, 2, 3),
            BatchPolicy::new(8, 0.002),
            Placement::RoundRobin,
        )
        .with_faults(
            FaultPlan::new(7, 1.0, 0.0, 0.0),
            FaultPolicy { max_retries: 2, ..FaultPolicy::default() },
        );
        let report = serve_one(&tiny_net("tiny-serve"), &cfg);
        assert_eq!(report.shed_requests, report.requests);
        assert!(report.devices[0].batches.is_empty());
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
        let net = tiny_net("tiny-serve");
        let clean_cfg = FleetConfig::new(
            uniform(100.0, 0.1, 2, 3),
            BatchPolicy::new(8, 0.002),
            Placement::RoundRobin,
        );
        let clean = serve_one(&net, &clean_cfg);
        let cfg = clean_cfg.with_faults(
            FaultPlan::new(7, 0.0, 0.0, 1.0).with_throttle_factor(3.0),
            FaultPolicy::default(),
        );
        let throttled = serve_one(&net, &cfg);
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
