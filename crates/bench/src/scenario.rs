//! The scenario harness: declarative serving scenarios, replayed as
//! fresh agent processes across thread counts and oracles, gated, and
//! diffed against committed metric baselines.
//!
//! A scenario is a TOML file (see [`crate::toml_lite`] for the subset)
//! describing one fleet-serving run — devices, networks, placement
//! policy, batching, workload shape, fault plan — plus the gates its
//! result must pass and the per-metric tolerances its baseline diff uses:
//!
//! ```toml
//! [scenario]
//! name = "burst-queue-weighted"
//! suite = "burst"
//! devices = ["titan-black", "titan-black", "titan-black", "titan-black"]
//! networks = ["alexnet"]
//! placement = "queue-weighted"
//! requests_per_device = 120
//! seed = 42
//! batch_sizes = [256, 128, 64, 32]  # optional: top-bucket candidates, largest first
//! queue_delay_factor = 0.25         # optional: queue-delay cap / top-bucket service time
//! oracles = ["linear"]              # optional: extra runs, "sequential" / "linear"
//!
//! [workload]
//! kind = "bursty"        # or "poisson" with load_frac
//! quiet_frac = 0.3
//! burst_frac = 1.5
//!
//! [tenant.frontend]      # optional: enables the SLO-aware scheduler
//! class = "interactive"  # or "standard" / "best-effort"
//! p99_budget_ms = 25.0   # interactive only
//! weight = 1.0
//! rate = 200.0           # optional admission cap, requests/second
//!
//! [faults]               # optional: seeded per-launch fault probabilities
//! seed = 7               # launch_failed, device_oom, throttle (each in
//! launch_failed = 0.01   # [0, 1], summing to at most 1), max_retries,
//!                        # shed_deadline_ms
//!
//! [device_faults]        # optional: whole-device lifecycle faults; seed and
//! seed = 7               # crash_rate, hang_rate, drain_rate (per device-s),
//! crash_at_ms = 120.0    # epoch_ms, repair_ms, warmup_ms, and a scheduled
//! crash_device = 1       # crash (crash_at_ms with crash_device)
//!
//! [gate.min]              # lower bounds on the base run's result
//! requests = 300
//! "host.wall_ratio.linear" = 2.0
//!
//! [gate.max]              # upper bounds
//! shed_rate = 0.05
//!
//! [tolerances]
//! default = 0.02
//! "latency.p99" = 0.05
//! ```
//!
//! Parsing is strict: an unknown section or key, a wrong-typed value, an
//! out-of-range number (a workload fraction that is not finite and > 0, a
//! tolerance that is not finite and >= 0, a NaN gate bound), or a gate key
//! that is neither one of [`ScenarioSpec::metric_names`] nor
//! `host.wall_ratio.<run>` of a declared run is an error naming both.
//!
//! The `scenario` binary replays each file as one fresh agent process per
//! [`Run`] of [`ScenarioSpec::runs`]. Every run's [`AgentLine`] — the
//! [`ScenarioResult`] (metrics and latency histogram) and the report
//! [`digest`] — must equal the base run's. The gates read the base run's metrics and each run's wall time
//! for the `serve_fleet` call ([`check_gates`]), and the base result is
//! diffed against `baselines/<name>.json` ([`diff_metrics`]).

use crate::profile::find_network;
use crate::toml_lite::{self, Section, Value};
use crate::util::Ctx;
use memcnn_core::{Engine, Mechanism, Network, NetworkBuilder};
use memcnn_gpusim::{DeviceFaultPlan, FaultPlan};
use memcnn_metrics::{Histogram, MetricsTimeline};
use memcnn_serve::{
    capacity_images_per_sec, feasible_max_batch, serve_fleet, serve_fleet_oracle, Arrival,
    BatchPolicy, FaultPolicy, FleetConfig, FleetReport, Oracle, Phase, Placement, TenantSpec,
    WorkloadConfig,
};
use memcnn_tensor::Shape;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Request sizes of every scenario stream, in images (mean 2.5).
const IMAGES: (usize, usize) = (1, 4);
/// Default top-bucket candidates, largest first: the first one whose
/// plan fits the first device caps every batch.
pub const DEFAULT_BATCH_SIZES: [usize; 4] = [256, 128, 64, 32];
/// Default queue-delay cap, as a multiple of the top bucket's service
/// time: short enough that low load launches part-full batches (small
/// buckets, small-`N` plans), long enough that high load still fills the
/// top bucket.
pub const DEFAULT_QUEUE_DELAY_FACTOR: f64 = 0.25;
/// Name of the base run: the one diffed against the baseline, whose
/// metrics the gates read, and which every other run must reproduce.
pub const BASE_RUN: &str = "threads1";
/// Prefix of a host-time gate key, `host.wall_ratio.<run>`: that run's
/// wall time for the `serve_fleet` call over the base run's.
pub const WALL_RATIO: &str = "host.wall_ratio.";

/// Workload shape of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Single-phase Poisson stream at `load_frac` of aggregate capacity.
    Poisson {
        /// Offered load as a fraction of fleet saturation.
        load_frac: f64,
    },
    /// Two-phase stream: quiet spell, then a burst.
    Bursty {
        /// Quiet-phase load fraction.
        quiet_frac: f64,
        /// Burst-phase load fraction (typically > 1).
        burst_frac: f64,
    },
}

/// The oracles a scenario can also be replayed under (`[scenario]
/// oracles`, and the agent's `--oracle`), by name: the
/// one-event-at-a-time loop and the pre-index linear router scan.
pub const ORACLES: [(&str, Oracle); 2] =
    [("sequential", Oracle::Sequential), ("linear", Oracle::Linear)];

/// The oracle called `name` in [`ORACLES`].
pub fn oracle_named(name: &str) -> Option<Oracle> {
    ORACLES.iter().find(|(n, _)| *n == name).map(|&(_, o)| o)
}

/// One agent process of a scenario replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// `threads1` (the [`BASE_RUN`]), `threads4`, or the oracle's name.
    pub name: String,
    /// `MEMCNN_THREADS` of the agent.
    pub threads: usize,
    /// The oracle the agent runs under, if any.
    pub oracle: Option<Oracle>,
}

/// Bounds the base run's result must hold (`[gate.min]` / `[gate.max]`).
/// Keys are metric names or `host.wall_ratio.<run>`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Gates {
    /// Key → inclusive lower bound. Always holds `requests` (default 1).
    pub min: BTreeMap<String, f64>,
    /// Key → inclusive upper bound.
    pub max: BTreeMap<String, f64>,
}

/// Relative drift tolerances for the baseline diff.
#[derive(Clone, Debug, PartialEq)]
pub struct Tolerances {
    /// Tolerance for metrics without a per-metric entry.
    pub default: f64,
    /// Per-metric overrides (keys are metric names, e.g. `latency.p99`).
    pub per_metric: BTreeMap<String, f64>,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances { default: 0.02, per_metric: BTreeMap::new() }
    }
}

impl Tolerances {
    /// The tolerance applied to `metric`.
    pub fn tol(&self, metric: &str) -> f64 {
        self.per_metric.get(metric).copied().unwrap_or(self.default)
    }
}

/// One parsed scenario.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name (the baseline filename stem).
    pub name: String,
    /// Suite the scenario belongs to (`deterministic`, `chaos`, ...).
    pub suite: String,
    /// Device kinds, one per fleet slot (`titan-black` / `titan-x`).
    pub devices: Vec<String>,
    /// Networks multiplexed over the fleet (model names).
    pub networks: Vec<String>,
    /// Placement policy, by [`Placement::name`].
    pub placement: Placement,
    /// Requests per device in the stream.
    pub requests_per_device: usize,
    /// Workload seed.
    pub seed: u64,
    /// Top-bucket candidates, largest first ([`DEFAULT_BATCH_SIZES`]).
    pub batch_sizes: Vec<usize>,
    /// Queue-delay cap over the top bucket's service time
    /// ([`DEFAULT_QUEUE_DELAY_FACTOR`]).
    pub queue_delay_factor: f64,
    /// Names of the [`ORACLES`] the scenario is also replayed under.
    pub oracles: Vec<String>,
    /// Workload shape.
    pub workload: WorkloadKind,
    /// Service tenants (`[tenant.NAME]` sections, name-ascending).
    /// Empty: the class-blind scheduler, byte-identical to pre-tenant
    /// baselines.
    pub tenants: Vec<TenantSpec>,
    /// Optional kernel-launch fault plan (`[faults]`).
    pub faults: Option<FaultPlan>,
    /// How the fleet answers launch faults (`[faults]` `max_retries`,
    /// `shed_deadline_ms`; the default policy otherwise).
    pub fault_policy: FaultPolicy,
    /// Optional whole-device crash / hang / drain plan
    /// (`[device_faults]`; rates are events per device-second).
    pub device_faults: Option<DeviceFaultPlan>,
    /// Gates on the base run's result.
    pub gates: Gates,
    /// Baseline-diff tolerances.
    pub tolerances: Tolerances,
}

impl ScenarioSpec {
    /// The runs the harness replays this scenario as, [`BASE_RUN`] first:
    /// `MEMCNN_THREADS` 1 and 4, then one `MEMCNN_THREADS=1` run per
    /// oracle.
    pub fn runs(&self) -> Vec<Run> {
        let threads = [1, 4].map(|n| Run { name: format!("threads{n}"), threads: n, oracle: None });
        let oracles = ORACLES.iter().filter(|(name, _)| self.oracles.iter().any(|o| o == name));
        let oracles = oracles.map(|&(name, oracle)| Run {
            name: name.to_string(),
            threads: 1,
            oracle: Some(oracle),
        });
        threads.into_iter().chain(oracles).collect()
    }

    /// Every metric a run of this scenario reports: the same set
    /// [`extract_metrics`] fills, which gate keys are checked against.
    pub fn metric_names(&self) -> BTreeSet<String> {
        let health = self.device_faults.as_ref().is_some_and(|d| !d.is_noop());
        metric_names(&self.tenants, health)
    }
}

/// Metrics every scenario reports, in [`extract_metrics`] order.
const BASE_METRICS: &str = "requests shed shed_rate throughput_ips makespan_ms latency.p50 \
    latency.p95 latency.p99 fault.injected fault.retried fault.degraded fault.shed hist.count \
    hist.p50 hist.p99 queue.peak queue.imbalance";
/// Metrics of tenant-enabled scenarios.
const SLO_METRICS: &str = "slo.violations slo.rejected slo.early_commits slo.preemptions \
    slo.fairness_ratio slo.device_seconds slo.cost";
/// Per-tenant metrics, keyed `tenant.<name>.<field>`.
const TENANT_METRICS: &str = "p99 completed shed rejected violations";
/// Metrics of device-fault scenarios.
const HEALTH_METRICS: &str = "health.downs health.ups health.failed_over health.requeued \
    health.transit_shed health.warm_compiles";

fn metric_names(tenants: &[TenantSpec], health: bool) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = words(BASE_METRICS).map(str::to_string).collect();
    if !tenants.is_empty() {
        names.extend(words(SLO_METRICS).map(str::to_string));
        for t in tenants {
            names.extend(words(TENANT_METRICS).map(|f| format!("tenant.{}.{f}", t.name)));
        }
    }
    if health {
        names.extend(words(HEALTH_METRICS).map(str::to_string));
    }
    names
}

fn words(list: &'static str) -> impl Iterator<Item = &'static str> {
    list.split_whitespace()
}

const SECTIONS: &str = "scenario workload faults device_faults gate.min gate.max tolerances";
const SCENARIO_KEYS: &str = "name suite devices networks placement requests_per_device seed \
    batch_sizes queue_delay_factor oracles";
const TENANT_KEYS: &str = "class p99_budget_ms weight rate";
const FAULT_KEYS: &str = "seed launch_failed device_oom throttle max_retries shed_deadline_ms";
const DEVICE_FAULT_KEYS: &str =
    "seed crash_rate hang_rate drain_rate epoch_ms repair_ms warmup_ms crash_at_ms crash_device";

fn check_keys(sec: &Section, section: &str, allowed: &'static str) -> Result<(), String> {
    match sec.keys().find(|k| !words(allowed).any(|a| a == k.as_str())) {
        Some(key) => Err(format!("[{section}] unknown key `{key}`")),
        None => Ok(()),
    }
}

/// An optional key, converted by `conv`; present but of the wrong type
/// is an error naming `what` the key must be.
fn opt<T>(
    sec: &Section,
    section: &str,
    key: &str,
    what: &str,
    conv: impl Fn(&Value) -> Option<T>,
) -> Result<Option<T>, String> {
    sec.get(key)
        .map(|v| conv(v).ok_or_else(|| format!("[{section}] `{key}` must be {what}")))
        .transpose()
}

fn need<T>(
    sec: &Section,
    section: &str,
    key: &str,
    what: &str,
    conv: impl Fn(&Value) -> Option<T>,
) -> Result<T, String> {
    opt(sec, section, key, what, conv)?.ok_or_else(|| format!("[{section}] is missing `{key}`"))
}

const NUMBER: &str = "a number";
const UINT: &str = "a non-negative integer";

fn opt_f64(sec: &Section, section: &str, key: &str) -> Result<Option<f64>, String> {
    opt(sec, section, key, NUMBER, Value::as_f64)
}

const POSITIVE: &str = "a finite number > 0";

fn positive(v: &Value) -> Option<f64> {
    v.as_f64().filter(|x| x.is_finite() && *x > 0.0)
}

fn opt_positive(sec: &Section, section: &str, key: &str) -> Result<Option<f64>, String> {
    opt(sec, section, key, POSITIVE, positive)
}

fn need_positive(sec: &Section, section: &str, key: &str) -> Result<f64, String> {
    need(sec, section, key, POSITIVE, positive)
}

fn need_u64(sec: &Section, section: &str, key: &str) -> Result<u64, String> {
    need(sec, section, key, UINT, Value::as_u64)
}

fn opt_u32(sec: &Section, section: &str, key: &str) -> Result<Option<u32>, String> {
    opt(sec, section, key, "an integer in 0..=4294967295", |v| {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    })
}

fn need_str<'a>(sec: &'a Section, section: &str, key: &str) -> Result<&'a str, String> {
    sec.get(key)
        .ok_or_else(|| format!("[{section}] is missing `{key}`"))?
        .as_str()
        .ok_or_else(|| format!("[{section}] `{key}` must be a string"))
}

fn need_strs(sec: &Section, section: &str, key: &str) -> Result<Vec<String>, String> {
    let list: Vec<String> = need(sec, section, key, "an array of strings", |v| {
        v.as_str_array().map(|a| a.into_iter().map(str::to_string).collect())
    })?;
    if list.is_empty() {
        return Err(format!("[{section}] `{key}` must not be empty"));
    }
    Ok(list)
}

fn is_slug(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Parse a scenario file.
pub fn parse_spec(text: &str) -> Result<ScenarioSpec, String> {
    let doc = toml_lite::parse(text).map_err(|e| e.to_string())?;
    for section in doc.section_names() {
        let known = words(SECTIONS).any(|s| s == section) || section.starts_with("tenant.");
        if !known && !section.is_empty() {
            return Err(format!("unknown section [{section}]"));
        }
    }

    if let Some(key) = doc.section("").and_then(|s| s.keys().next()) {
        return Err(format!("key `{key}` comes before any [section]"));
    }
    let sc = doc.section("scenario").ok_or("missing [scenario] section")?;
    check_keys(sc, "scenario", SCENARIO_KEYS)?;
    let name = need_str(sc, "scenario", "name")?.to_string();
    if !is_slug(&name) {
        return Err(format!("scenario name {name:?} must be a filename-safe slug"));
    }
    let suite = need_str(sc, "scenario", "suite")?.to_string();
    let devices = need_strs(sc, "scenario", "devices")?;
    if let Some(d) = devices.iter().find(|d| engine_for(d).is_none()) {
        return Err(format!("[scenario] unknown device kind {d:?} (titan-black / titan-x)"));
    }
    let networks = need_strs(sc, "scenario", "networks")?;
    if let Some(n) = networks.iter().find(|n| network_for(n).is_none()) {
        return Err(format!("[scenario] unknown network {n:?}"));
    }
    let placement_name = need_str(sc, "scenario", "placement")?;
    let placement = Placement::from_name(placement_name)
        .ok_or_else(|| format!("[scenario] unknown placement {placement_name:?}"))?;
    let requests_per_device = need_u64(sc, "scenario", "requests_per_device")? as usize;
    let seed = need_u64(sc, "scenario", "seed")?;
    let batch_sizes = opt(sc, "scenario", "batch_sizes", "a non-empty array of sizes > 0", |v| {
        let sizes = v.as_array().filter(|a| !a.is_empty())?.iter();
        sizes.map(|b| b.as_u64().filter(|&b| b > 0).map(|b| b as usize)).collect()
    })?
    .unwrap_or_else(|| DEFAULT_BATCH_SIZES.to_vec());
    let queue_delay_factor =
        opt_positive(sc, "scenario", "queue_delay_factor")?.unwrap_or(DEFAULT_QUEUE_DELAY_FACTOR);
    let oracles = opt(sc, "scenario", "oracles", "distinct \"sequential\" / \"linear\"", |v| {
        let names: Vec<String> = v.as_str_array()?.into_iter().map(str::to_string).collect();
        let known = names.iter().all(|n| oracle_named(n).is_some());
        let distinct = names.iter().enumerate().all(|(i, n)| !names[..i].contains(n));
        (known && distinct).then_some(names)
    })?
    .unwrap_or_default();

    let wl = doc.section("workload").ok_or("missing [workload] section")?;
    let workload = match need_str(wl, "workload", "kind")? {
        "poisson" => {
            check_keys(wl, "workload", "kind load_frac")?;
            WorkloadKind::Poisson { load_frac: need_positive(wl, "workload", "load_frac")? }
        }
        "bursty" => {
            check_keys(wl, "workload", "kind quiet_frac burst_frac")?;
            WorkloadKind::Bursty {
                quiet_frac: need_positive(wl, "workload", "quiet_frac")?,
                burst_frac: need_positive(wl, "workload", "burst_frac")?,
            }
        }
        other => return Err(format!("[workload] unknown kind {other:?} (poisson / bursty)")),
    };

    let mut tenants = Vec::new();
    for section in doc.section_names() {
        let Some(tname) = section.strip_prefix("tenant.") else { continue };
        if !is_slug(tname) {
            return Err(format!("tenant name {tname:?} must be a metrics-key-safe slug"));
        }
        let sec = doc.section(section).expect("section_names yields live sections");
        check_keys(sec, section, TENANT_KEYS)?;
        let weight = opt_positive(sec, section, "weight")?.unwrap_or(1.0);
        let budget_ms = opt_positive(sec, section, "p99_budget_ms")?;
        let class = need_str(sec, section, "class")?;
        let mut spec = match (class, budget_ms) {
            ("interactive", Some(ms)) => TenantSpec::interactive(tname, ms / 1e3, weight),
            ("standard", None) => TenantSpec::standard(tname, weight),
            ("best-effort", None) => TenantSpec::best_effort(tname, weight),
            ("interactive" | "standard" | "best-effort", _) => {
                let rule = "`p99_budget_ms` is required for, and only for, interactive tenants";
                return Err(format!("[{section}] {rule}"));
            }
            _ => return Err(format!("[{section}] unknown class {class:?}")),
        };
        if let Some(rate) = opt_positive(sec, section, "rate")? {
            spec = spec.with_rate_limit(rate);
        }
        tenants.push(spec);
    }

    let mut fault_policy = FaultPolicy::default();
    let faults = match doc.section("faults") {
        None => None,
        Some(f) => {
            check_keys(f, "faults", FAULT_KEYS)?;
            let unit = |v: &Value| v.as_f64().filter(|x| (0.0..=1.0).contains(x));
            let rate = |key: &str| {
                Ok::<f64, String>(opt(f, "faults", key, "a number in [0, 1]", unit)?.unwrap_or(0.0))
            };
            if let Some(n) = opt_u32(f, "faults", "max_retries")? {
                fault_policy.max_retries = n;
            }
            fault_policy.shed_deadline =
                opt_f64(f, "faults", "shed_deadline_ms")?.map(|ms| ms / 1e3);
            let seed = need_u64(f, "faults", "seed")?;
            let (failed, oom, throttle) =
                (rate("launch_failed")?, rate("device_oom")?, rate("throttle")?);
            // A launch rolls one draw against the three rates stacked, so
            // they share one unit interval (up to rounding in the sum).
            let total = failed + oom + throttle;
            if total > 1.0 + 1e-12 {
                return Err(format!(
                    "[faults] `launch_failed` + `device_oom` + `throttle` must be at most 1, \
                     not {total}"
                ));
            }
            Some(FaultPlan::new(seed, failed, oom, throttle))
        }
    };

    let device_faults = match doc.section("device_faults") {
        None => None,
        Some(f) => {
            let s = "device_faults";
            check_keys(f, s, DEVICE_FAULT_KEYS)?;
            let rate = |key: &str| Ok::<f64, String>(opt_f64(f, s, key)?.unwrap_or(0.0));
            let seed = need_u64(f, s, "seed")?;
            let mut plan = DeviceFaultPlan::new(
                seed,
                rate("crash_rate")?,
                rate("hang_rate")?,
                rate("drain_rate")?,
            );
            type With = fn(DeviceFaultPlan, f64) -> DeviceFaultPlan;
            let windows: [(&str, With); 3] = [
                ("epoch_ms", DeviceFaultPlan::with_epoch),
                ("repair_ms", DeviceFaultPlan::with_repair),
                ("warmup_ms", DeviceFaultPlan::with_warmup),
            ];
            for (key, with) in windows {
                if let Some(ms) = opt_f64(f, s, key)? {
                    plan = with(plan, ms / 1e3);
                }
            }
            let fleet = devices.len() as u32;
            let device = opt(f, s, "crash_device", "a device index of this fleet", |v| {
                v.as_u64().filter(|&d| d < fleet as u64).map(|d| d as u32)
            })?;
            match (opt_f64(f, s, "crash_at_ms")?, device) {
                (None, None) => {}
                (Some(ms), Some(d)) => plan = plan.crash_at(ms / 1e3, d),
                _ => return Err(format!("[{s}] set `crash_at_ms` and `crash_device` together")),
            }
            Some(plan)
        }
    };

    let mut tolerances = Tolerances::default();
    if let Some(tl) = doc.section("tolerances") {
        for (key, v) in tl {
            // A NaN tolerance would pass every drift, silently turning the
            // baseline check off.
            let t = v
                .as_f64()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("[tolerances] `{key}` must be a finite number >= 0"))?;
            if key == "default" {
                tolerances.default = t;
            } else {
                tolerances.per_metric.insert(key.clone(), t);
            }
        }
    }

    let mut spec = ScenarioSpec {
        name,
        suite,
        devices,
        networks,
        placement,
        requests_per_device,
        seed,
        batch_sizes,
        queue_delay_factor,
        oracles,
        workload,
        tenants,
        faults,
        fault_policy,
        device_faults,
        gates: Gates::default(),
        tolerances,
    };
    let metrics = spec.metric_names();
    let runs: Vec<String> = spec.runs().into_iter().map(|r| r.name).collect();
    for (section, bounds) in [("gate.min", &mut spec.gates.min), ("gate.max", &mut spec.gates.max)]
    {
        for (key, v) in doc.section(section).into_iter().flatten() {
            let run = key.strip_prefix(WALL_RATIO);
            if !metrics.contains(key) && !run.is_some_and(|r| runs.iter().any(|n| n == r)) {
                return Err(format!(
                    "[{section}] `{key}` names neither a metric of this scenario nor \
                     `{WALL_RATIO}<run>` of a declared run ({})",
                    runs.join(", ")
                ));
            }
            let bound = v
                .as_f64()
                .filter(|b| !b.is_nan())
                .ok_or_else(|| format!("[{section}] `{key}` must be a number other than NaN"))?;
            bounds.insert(key.clone(), bound);
        }
    }
    spec.gates.min.entry("requests".to_string()).or_insert(1.0);
    Ok(spec)
}

/// The measurement context for a device kind, or `None` if unknown.
pub fn engine_for(device: &str) -> Option<Ctx> {
    match device {
        "titan-black" => Some(Ctx::titan_black()),
        "titan-x" => Some(Ctx::titan_x()),
        _ => None,
    }
}

/// A network by model name ([`find_network`]), or `None` if unknown.
/// Besides the paper's models, `stream-tiny` is one small conv and a
/// pool: each batch costs almost nothing to simulate, so host time is
/// dominated by the fleet orchestrator — routing, placement, lane
/// arbitration and commits.
pub fn network_for(name: &str) -> Option<Network> {
    match name {
        "stream-tiny" => NetworkBuilder::new("stream-tiny", Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .ok(),
        _ => find_network(name),
    }
}

/// A scenario expanded into what [`serve_fleet`] consumes. Devices of
/// one kind share one engine, as in a homogeneous fleet, so the fleet's
/// barrier batch-compile dedups their plan misses.
pub struct Fleet {
    /// One context per distinct device kind.
    ctxs: Vec<Ctx>,
    /// Fleet slot → index into `ctxs`.
    slots: Vec<usize>,
    /// Networks multiplexed over the fleet.
    pub nets: Vec<Network>,
    /// Workload, batching policy, placement, tenants and fault plans.
    pub cfg: FleetConfig,
    /// Service time of the first network's top bucket on the first
    /// device, seconds: the unit of the queue-delay cap.
    pub top_service: f64,
}

impl Fleet {
    /// Serve the scenario's stream, under `oracle`'s reference driver if
    /// one is given.
    pub fn serve(&self, oracle: Option<Oracle>) -> Result<FleetReport, String> {
        let engines: Vec<&Engine> = self.slots.iter().map(|&i| &self.ctxs[i].engine).collect();
        match oracle {
            None => serve_fleet(&engines, &self.nets, &self.cfg),
            Some(o) => serve_fleet_oracle(&engines, &self.nets, &self.cfg, o),
        }
        .map_err(|e| format!("{e:?}"))
    }
}

/// Build a scenario's fleet: plan the top bucket, then size the stream
/// and the batching policy from it.
pub fn fleet(spec: &ScenarioSpec) -> Result<Fleet, String> {
    let mut kinds: Vec<&String> = spec.devices.iter().collect();
    kinds.sort();
    kinds.dedup();
    let slot = |d| kinds.binary_search(&d).expect("kinds lists every device");
    let slots: Vec<usize> = spec.devices.iter().map(slot).collect();
    let ctxs = kinds.iter().map(|d| engine_for(d).ok_or_else(|| format!("unknown device {d:?}")));
    let ctxs = ctxs.collect::<Result<Vec<Ctx>, String>>()?;
    let nets: Vec<Network> = spec
        .networks
        .iter()
        .map(|n| network_for(n).ok_or_else(|| format!("unknown network {n:?}")))
        .collect::<Result<_, String>>()?;
    let k = slots.len();

    // Size the stream off the *first* (device, network) pair's saturation
    // — a fixed, documented convention so heterogeneous scenarios stay
    // reproducible without per-device load math.
    let first = &ctxs[slots[0]].engine;
    let (max_batch, top_plan) =
        feasible_max_batch(first, &nets[0], Mechanism::Opt, &spec.batch_sizes)
            .ok_or_else(|| format!("{}: no feasible batch size", nets[0].name))?;
    let capacity = capacity_images_per_sec(max_batch, &top_plan);
    let top_service = top_plan.total_time();
    let policy = BatchPolicy::new(max_batch, (spec.queue_delay_factor * top_service).max(1e-4));
    let mean_images = (IMAGES.0 + IMAGES.1) as f64 / 2.0;
    let total_requests = (spec.requests_per_device.checked_mul(k))
        .ok_or_else(|| format!("{}: requests_per_device x devices overflows", spec.name))?;
    let agg = capacity * k as f64;
    let phases = match spec.workload {
        WorkloadKind::Poisson { load_frac } => {
            let rate = (load_frac * agg / mean_images).max(1.0);
            vec![Phase {
                arrival: Arrival::Poisson { rate },
                duration: total_requests as f64 / rate,
            }]
        }
        WorkloadKind::Bursty { quiet_frac, burst_frac } => {
            let quiet = (quiet_frac * agg / mean_images).max(1.0);
            let burst = (burst_frac * agg / mean_images).max(1.0);
            vec![
                Phase {
                    arrival: Arrival::Poisson { rate: quiet },
                    duration: (total_requests / 4) as f64 / quiet,
                },
                Phase {
                    arrival: Arrival::Poisson { rate: burst },
                    duration: total_requests as f64 / burst,
                },
            ]
        }
    };
    let workload =
        WorkloadConfig { phases, images_min: IMAGES.0, images_max: IMAGES.1, seed: spec.seed };

    let mut cfg = FleetConfig::new(workload, policy, spec.placement);
    cfg.mechanism = Mechanism::Opt;
    if !spec.tenants.is_empty() {
        cfg = cfg.with_tenants(spec.tenants.clone());
    }
    if let Some(plan) = spec.faults {
        cfg = cfg.with_faults(plan, spec.fault_policy);
    }
    if let Some(plan) = &spec.device_faults {
        cfg = cfg.with_device_faults(plan.clone());
    }
    Ok(Fleet { ctxs, slots, nets, cfg, top_service })
}

/// The baselined outcome of one scenario run: the metric map the
/// baseline diff and the gates read, and the run's latency histogram
/// (mergeable across scenarios).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScenarioResult {
    /// Scenario name.
    pub scenario: String,
    /// Suite name.
    pub suite: String,
    /// Metric name → value. Latencies are milliseconds.
    pub metrics: BTreeMap<String, f64>,
    /// The run's served-latency histogram.
    pub hist: Histogram,
}

/// Host-side measurements of one agent run. Never baselined and never
/// compared for identity.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct HostTimes {
    /// Wall time of the `serve_fleet` call, milliseconds.
    pub wall_ms: f64,
}

/// An agent process's last stdout line: the baselined result, the
/// report [`digest`], and the host times. Only the result is baselined;
/// the digest takes part in the identity check alone, and the host times
/// in neither.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AgentLine {
    /// The baselined result.
    pub result: ScenarioResult,
    /// [`digest`] of the fleet report, as 16 hex digits (the JSON number
    /// type cannot carry 64 bits).
    pub digest: String,
    /// Host times of the run.
    pub host: HostTimes,
}

impl AgentLine {
    /// The first deterministic part of this run that differs from the
    /// `base` run, if any: `"metrics"` (compared bit for bit), `"hist"`,
    /// or `"digest"`.
    pub fn differs_from(&self, base: &AgentLine) -> Option<&'static str> {
        let bits = |l: &AgentLine| -> Vec<(String, u64)> {
            l.result.metrics.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
        };
        if bits(self) != bits(base) {
            Some("metrics")
        } else if self.result.hist != base.result.hist {
            Some("hist")
        } else {
            (self.digest != base.digest).then_some("digest")
        }
    }
}

/// The result of one served scenario. Errors if the report's metrics are
/// not exactly [`ScenarioSpec::metric_names`], the set gate keys were
/// checked against.
pub fn result(spec: &ScenarioSpec, report: &FleetReport) -> Result<ScenarioResult, String> {
    let metrics = extract_metrics(report, spec.devices.len());
    let declared = spec.metric_names();
    if !metrics.keys().eq(declared.iter()) {
        return Err(format!(
            "{}: reported metrics {:?} differ from the declared set {declared:?}",
            spec.name,
            metrics.keys().collect::<Vec<_>>()
        ));
    }
    Ok(ScenarioResult {
        scenario: spec.name.clone(),
        suite: spec.suite.clone(),
        metrics,
        hist: report.timeline.latency_hist.clone(),
    })
}

/// Run one scenario in this process, under `oracle`'s reference driver
/// if one is given: build its fleet, time the `serve_fleet` call, and
/// return the agent line plus the full metrics timeline (the caller
/// writes it as `<name>.metrics.json`).
pub fn run(
    spec: &ScenarioSpec,
    oracle: Option<Oracle>,
) -> Result<(AgentLine, MetricsTimeline), String> {
    let fleet = fleet(spec)?;
    let start = Instant::now();
    let report = fleet.serve(oracle).map_err(|e| format!("{}: {e}", spec.name))?;
    let host = HostTimes { wall_ms: start.elapsed().as_secs_f64() * 1e3 };
    let result = result(spec, &report)?;
    let digest = format!("{:016x}", digest(&report));
    Ok((AgentLine { result, digest, host }, report.timeline))
}

/// FNV-1a digest of a fleet run's order-sensitive contents: per-request
/// latency bits and placements, then every device's batch records
/// (launch/done bits, bucket, network). Two runs with equal digests
/// committed the same batches with the same contents in the same order.
pub fn digest(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &l in &report.latencies {
        eat(l.to_bits());
    }
    for &p in &report.placements {
        eat(p as u64);
    }
    for dev in &report.devices {
        for b in &dev.batches {
            eat(b.record.launch.to_bits());
            eat(b.record.done.to_bits());
            eat(b.record.bucket as u64);
            eat(b.network as u64);
        }
    }
    h
}

/// Pair a metric-name list with its values. A length mismatch drops a
/// metric, which [`result`] reports against the declared set.
fn named<const N: usize>(
    names: &'static str,
    values: [f64; N],
) -> impl Iterator<Item = (String, f64)> {
    words(names).map(str::to_string).zip(values)
}

/// Flatten a fleet report (and its timeline) into the scenario metric
/// map. Latency values are milliseconds; `hist.*` percentiles come from
/// the log-bucketed histogram (bucket resolution, bit-deterministic);
/// `queue.*` read the per-device timelines — `queue.imbalance` is the
/// convoy observable (peak device backlog over the mean peak; 1.0 is a
/// perfectly spread fleet).
pub fn extract_metrics(report: &FleetReport, k: usize) -> BTreeMap<String, f64> {
    let lat = report.latency();
    let hist = &report.timeline.latency_hist;
    let peaks: Vec<f64> = (0..k)
        .map(|d| {
            report
                .timeline
                .series(&format!("dev{d}.queue.images"))
                .map_or(0.0, |s| s.samples.iter().map(|p| p.value).fold(0.0, f64::max))
        })
        .collect();
    let peak = peaks.iter().copied().fold(0.0, f64::max);
    let mean_peak = peaks.iter().sum::<f64>() / peaks.len().max(1) as f64;
    let mut m: BTreeMap<String, f64> = named(
        BASE_METRICS,
        [
            report.requests as f64,
            report.shed_requests as f64,
            report.shed_rate(),
            report.throughput_images_per_sec(),
            report.makespan * 1e3,
            lat.p50 * 1e3,
            lat.p95 * 1e3,
            lat.p99 * 1e3,
            report.faults.injected as f64,
            report.faults.retried as f64,
            report.faults.degraded as f64,
            report.faults.shed as f64,
            hist.count() as f64,
            hist.percentile(50.0) * 1e3,
            hist.percentile(99.0) * 1e3,
            peak,
            if mean_peak > 0.0 { peak / mean_peak } else { 1.0 },
        ],
    )
    .collect();
    // Tenant metrics exist only for tenant-enabled scenarios: the diff
    // treats one-sided metrics as schema drift, so emitting them
    // unconditionally would break every pre-tenant baseline.
    if let Some(slo) = &report.slo {
        m.extend(named(
            SLO_METRICS,
            [
                slo.violations as f64,
                slo.rejected as f64,
                slo.early_commits as f64,
                slo.preemptions as f64,
                slo.fairness.ratio,
                slo.device_seconds,
                slo.cost(),
            ],
        ));
        for t in &slo.tenants {
            let values = [
                t.latency.p99 * 1e3,
                t.completed as f64,
                t.shed as f64,
                t.rejected as f64,
                t.violations as f64,
            ];
            m.extend(
                named(TENANT_METRICS, values).map(|(f, v)| (format!("tenant.{}.{f}", t.name), v)),
            );
        }
    }
    // Health metrics exist only for device-fault scenarios, for the
    // same one-sided schema-drift reason as the tenant block.
    if let Some(h) = &report.health {
        m.extend(named(
            HEALTH_METRICS,
            [
                h.downs as f64,
                h.ups as f64,
                h.failed_over as f64,
                h.requeued as f64,
                h.transit_shed as f64,
                h.warm_compiles as f64,
            ],
        ));
    }
    m
}

/// Parse a [`ScenarioResult`] back from its JSON form — a baseline file
/// (the vendored serde has no derive-level deserialization, so this
/// walks the parsed `Value` by hand).
pub fn parse_result(text: &str) -> Result<ScenarioResult, String> {
    let v = serde_json::from_str(text).map_err(|e| format!("bad result JSON: {e}"))?;
    result_from(&v)
}

fn result_from(v: &serde_json::Value) -> Result<ScenarioResult, String> {
    let str_of = |key: &str| -> Result<String, String> {
        Ok(v.get(key)
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("result missing string `{key}`"))?
            .to_string())
    };
    let mut metrics = BTreeMap::new();
    for (name, val) in v
        .get("metrics")
        .and_then(serde_json::Value::as_object)
        .ok_or("result missing `metrics` object")?
    {
        metrics.insert(
            name.clone(),
            val.as_f64().ok_or_else(|| format!("metric `{name}` is not a number"))?,
        );
    }
    let hist = parse_hist(v.get("hist").ok_or("result missing `hist`")?)?;
    Ok(ScenarioResult { scenario: str_of("scenario")?, suite: str_of("suite")?, metrics, hist })
}

/// Parse an agent process's last stdout line.
pub fn parse_agent_line(line: &str) -> Result<AgentLine, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("bad agent line: {e}"))?;
    let result = result_from(v.get("result").ok_or("agent line missing `result`")?)?;
    let digest = v
        .get("digest")
        .and_then(serde_json::Value::as_str)
        .ok_or("agent line missing string `digest`")?
        .to_string();
    let wall_ms = v
        .get("host")
        .and_then(|h| h.get("wall_ms"))
        .and_then(serde_json::Value::as_f64)
        .ok_or("agent line missing `host.wall_ms`")?;
    Ok(AgentLine { result, digest, host: HostTimes { wall_ms } })
}

/// Rebuild a [`Histogram`] from its serialized `{count, buckets}` form.
pub fn parse_hist(v: &serde_json::Value) -> Result<Histogram, String> {
    let mut hist = Histogram::new();
    let buckets = v
        .get("buckets")
        .and_then(serde_json::Value::as_array)
        .ok_or("hist missing `buckets` array")?;
    for pair in buckets {
        let p = pair.as_array().filter(|p| p.len() == 2).ok_or("hist bucket must be a pair")?;
        let idx = p[0]
            .as_u64()
            .and_then(|i| u32::try_from(i).ok())
            .filter(|&i| i <= memcnn_metrics::MAX_INDEX)
            .ok_or("bucket index must be an integer bucket index")?;
        let n = p[1].as_u64().ok_or("bucket count must be an integer")?;
        hist.record_bucket(idx, n);
    }
    let count = v.get("count").and_then(serde_json::Value::as_u64).ok_or("hist missing `count`")?;
    if count != hist.count() {
        return Err(format!("hist count {count} != bucket sum {}", hist.count()));
    }
    Ok(hist)
}

/// A gate's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The bound held.
    Pass,
    /// The bound did not hold.
    Fail,
    /// A `threadsN` wall-ratio gate on a host with fewer than N cores.
    Skipped,
}

/// Check every gate of `spec` against the base run's metrics and each
/// run's wall time (run name → ms). A `host.wall_ratio.threadsN` gate is
/// armed only on a host with at least N `cores`: with fewer, the speedup
/// it asks for cannot exist, so it is skipped. Each verdict comes with a
/// line describing the value, the bound and, for host gates, both times.
pub fn check_gates(
    spec: &ScenarioSpec,
    metrics: &BTreeMap<String, f64>,
    wall_ms: &BTreeMap<String, f64>,
    cores: usize,
) -> Vec<(Verdict, String)> {
    let mins = spec.gates.min.iter().map(|(k, &b)| (k, b, true));
    let maxs = spec.gates.max.iter().map(|(k, &b)| (k, b, false));
    mins.chain(maxs)
        .map(|(key, bound, is_min)| {
            let kind = if is_min { "min" } else { "max" };
            let (value, times, need) = match key.strip_prefix(WALL_RATIO) {
                None => (metrics.get(key).copied().unwrap_or(f64::NAN), String::new(), 0),
                Some(run) => {
                    let (b, r) = (wall_ms.get(BASE_RUN), wall_ms.get(run));
                    let value = match (b, r) {
                        (Some(b), Some(r)) if *b > 0.0 => r / b,
                        _ => f64::NAN,
                    };
                    let ms = |t: Option<&f64>| t.map_or("?".to_string(), |t| format!("{t:.1}"));
                    let times = format!(" ({BASE_RUN} {} ms, {run} {} ms)", ms(b), ms(r));
                    let need = run.strip_prefix("threads").and_then(|n| n.parse().ok());
                    (value, times, need.unwrap_or(0))
                }
            };
            let line = format!("gate={key} value={value:.4} {kind}={bound}{times}");
            let held = if is_min { value >= bound } else { value <= bound };
            if cores < need {
                (Verdict::Skipped, format!("{line}: host has {cores} core(s), needs {need}"))
            } else if held {
                (Verdict::Pass, line)
            } else {
                (Verdict::Fail, line)
            }
        })
        .collect()
}

/// One out-of-tolerance metric.
#[derive(Clone, Debug, Serialize)]
pub struct Drift {
    /// The drifting metric.
    pub metric: String,
    /// Baseline value (NaN: the metric is new — no baseline entry).
    pub baseline: f64,
    /// Current value (NaN: the metric disappeared).
    pub current: f64,
    /// Relative drift `|current - baseline| / max(|baseline|, 1e-9)`.
    pub rel: f64,
    /// The tolerance that was applied.
    pub tol: f64,
}

/// Diff a current metric map against its baseline. Returns every metric
/// whose relative drift exceeds its tolerance, plus metrics present on
/// only one side (schema drift is a regression too — refresh baselines
/// deliberately with `--update-baselines`, not by accident). Errors if a
/// per-metric tolerance names no baseline metric: a typoed key would
/// otherwise silently fall back to the default tolerance.
pub fn diff_metrics(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    tol: &Tolerances,
) -> Result<Vec<Drift>, String> {
    if let Some(key) = tol.per_metric.keys().find(|k| !baseline.contains_key(*k)) {
        return Err(format!("[tolerances] `{key}` matches no baseline metric"));
    }
    let drift = |metric: &String, baseline, current, rel| Drift {
        metric: metric.clone(),
        baseline,
        current,
        rel,
        tol: tol.tol(metric),
    };
    let changed = baseline.iter().filter_map(|(metric, &base)| {
        let cur = current.get(metric).copied();
        let rel = cur.map_or(f64::INFINITY, |c| (c - base).abs() / base.abs().max(1e-9));
        (rel > tol.tol(metric)).then(|| drift(metric, base, cur.unwrap_or(f64::NAN), rel))
    });
    let added = current.iter().filter(|(metric, _)| !baseline.contains_key(*metric));
    let added = added.map(|(metric, &cur)| drift(metric, f64::NAN, cur, f64::INFINITY));
    Ok(changed.chain(added).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
[scenario]
name = "unit-poisson"
suite = "deterministic"
devices = ["titan-black"]
networks = ["alexnet"]
placement = "least-loaded"
requests_per_device = 8
seed = 42

[workload]
kind = "poisson"
load_frac = 0.5

[gate.min]
requests = 4

[tolerances]
default = 0.02
"latency.p99" = 0.05
"#;

    const TENANTS: &str = r#"
[tenant.frontend]
class = "interactive"
p99_budget_ms = 25.0
weight = 1.0
rate = 200.0

[tenant.analytics]
class = "best-effort"
weight = 2.0
"#;

    const DEVICE_FAULTS: &str = r#"
[device_faults]
seed = 7
drain_rate = 0.2
crash_at_ms = 120.0
crash_device = 0
repair_ms = 40.0
warmup_ms = 15.0
"#;

    #[test]
    fn parse_hist_round_trips_and_rejects_indices_past_the_last_bucket() {
        let parse = |text: &str| parse_hist(&serde_json::from_str(text).unwrap());
        let h = parse(r#"{"count":3,"buckets":[[0,1],[16352,2]]}"#).unwrap();
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(0, 1), (16352, 2)]);
        let top = memcnn_metrics::MAX_INDEX;
        assert!(parse(&format!(r#"{{"count":1,"buckets":[[{top},1]]}}"#)).is_ok());
        for bad in [u64::from(top) + 1, 1 << 32] {
            let text = format!(r#"{{"count":1,"buckets":[[{bad},1]]}}"#);
            assert!(parse(&text).is_err(), "index {bad} must be rejected, not wrapped");
        }
    }

    #[test]
    fn spec_parses_with_defaults() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.name, "unit-poisson");
        assert_eq!(spec.placement, Placement::LeastLoaded);
        assert_eq!(spec.workload, WorkloadKind::Poisson { load_frac: 0.5 });
        assert_eq!(spec.gates.min["requests"], 4.0);
        assert!(spec.gates.max.is_empty());
        assert_eq!(spec.batch_sizes, DEFAULT_BATCH_SIZES);
        assert_eq!(spec.queue_delay_factor, DEFAULT_QUEUE_DELAY_FACTOR);
        assert_eq!(spec.tolerances.tol("latency.p99"), 0.05);
        assert_eq!(spec.tolerances.tol("anything-else"), 0.02);
        assert!(spec.oracles.is_empty() && spec.tenants.is_empty());
        assert!(spec.faults.is_none() && spec.device_faults.is_none());
        // Without a [gate.min] entry, `requests >= 1` is still gated.
        let bare = parse_spec(&SPEC.replace("requests = 4", "")).unwrap();
        assert_eq!(bare.gates.min["requests"], 1.0);

        let extra = "seed = 42\nbatch_sizes = [64, 32]\nqueue_delay_factor = 3.0\n\
                     oracles = [\"linear\", \"sequential\"]";
        let spec = parse_spec(&SPEC.replacen("seed = 42", extra, 1)).unwrap();
        assert_eq!((&spec.batch_sizes[..], spec.queue_delay_factor), (&[64, 32][..], 3.0));
        let runs: Vec<(String, usize, Option<Oracle>)> =
            spec.runs().into_iter().map(|r| (r.name, r.threads, r.oracle)).collect();
        let (seq, lin) = (Some(Oracle::Sequential), Some(Oracle::Linear));
        let want = [("threads1", 1, None), ("threads4", 4, None), ("sequential", 1, seq)];
        let want = want.into_iter().chain([("linear", 1, lin)]);
        assert_eq!(runs, want.map(|(n, t, o)| (n.to_string(), t, o)).collect::<Vec<_>>());
        assert_eq!(runs[0].0, BASE_RUN);
    }

    /// Every malformed spec is an error, and the error names the section
    /// and the key. Each row edits `SPEC` (`from` → `to`; an empty `from`
    /// appends `to`) and lists what the error must mention.
    #[test]
    fn malformed_specs_are_errors_naming_the_section_and_key() {
        let oracle = "seed = 42\noracles = [\"sequential\"]";
        let rows: &[(&str, &str, &[&str])] = &[
            ("alexnet", "resnet", &["[scenario]", "resnet"]),
            ("titan-black", "h100", &["[scenario]", "h100"]),
            ("least-loaded", "random", &["[scenario]", "random"]),
            ("\"poisson\"", "\"steady\"", &["[workload]", "steady"]),
            // A leftover [expect] section must not be ignored silently.
            ("[gate.min]", "[expect]", &["[expect]"]),
            ("[scenario]", "stray = 1\n[scenario]", &["stray"]),
            ("seed = 42", "seed = 42\nlaod_frac = 0.5", &["[scenario]", "laod_frac"]),
            ("load_frac = 0.5", "load_frac = 0.5\nquiet_frac = 0.1", &["[workload]", "quiet_frac"]),
            ("seed = 42", "seed = 42\nbatch_sizes = [64, 0]", &["[scenario]", "batch_sizes"]),
            ("seed = 42", "seed = 42\nbatch_sizes = []", &["[scenario]", "batch_sizes"]),
            ("seed = 42", "seed = 42\nqueue_delay_factor = 0", &["[scenario]", "queue_delay"]),
            ("seed = 42", "seed = 42\nqueue_delay_factor = inf", &["[scenario]", "queue_delay"]),
            ("load_frac = 0.5", "load_frac = nan", &["[workload]", "load_frac"]),
            ("load_frac = 0.5", "load_frac = -3", &["[workload]", "load_frac"]),
            ("load_frac = 0.5", "load_frac = inf", &["[workload]", "load_frac"]),
            ("load_frac = 0.5", "load_frac = 0", &["[workload]", "load_frac"]),
            (
                "kind = \"poisson\"\nload_frac = 0.5",
                "kind = \"bursty\"\nquiet_frac = nan\nburst_frac = 1.5",
                &["[workload]", "quiet_frac"],
            ),
            (
                "kind = \"poisson\"\nload_frac = 0.5",
                "kind = \"bursty\"\nquiet_frac = 0.3\nburst_frac = -inf",
                &["[workload]", "burst_frac"],
            ),
            ("default = 0.02", "default = nan", &["[tolerances]", "default"]),
            ("default = 0.02", "default = inf", &["[tolerances]", "default"]),
            ("default = 0.02", "default = -0.01", &["[tolerances]", "default"]),
            ("\"latency.p99\" = 0.05", "\"latency.p99\" = nan", &["[tolerances]", "latency.p99"]),
            ("requests = 4", "requests = nan", &["[gate.min]", "requests"]),
            ("", "[gate.max]\nshed_rate = nan", &["[gate.max]", "shed_rate"]),
            ("seed = 42", "seed = 42\noracles = [\"fast\"]", &["[scenario]", "oracles"]),
            ("seed = 42", "seed = 42\noracles = [\"linear\", \"linear\"]", &["oracles"]),
            ("requests = 4", "requets = 4", &["[gate.min]", "requets"]),
            ("requests = 4", "requests = \"4\"", &["[gate.min]", "requests"]),
            ("requests = 4", "\"host.wall_ratio.linear\" = 2", &["[gate.min]", "linear"]),
            ("requests = 4", "\"tenant.chat.p99\" = 1", &["[gate.min]", "tenant.chat.p99"]),
            ("", "[faults]\nseed = 7\nmax_retries = \"3\"", &["[faults]", "max_retries"]),
            ("", "[faults]\nseed = 7\nmax_retries = 4294967296", &["[faults]", "max_retries"]),
            ("", "[faults]\nseed = 7\nlaunch_failed = \"0.1\"", &["[faults]", "launch_failed"]),
            ("", "[faults]\nseed = 7\nlaunch_failed = -0.1", &["[faults]", "launch_failed"]),
            ("", "[faults]\nseed = 7\ndevice_oom = 1.5", &["[faults]", "device_oom"]),
            ("", "[faults]\nseed = 7\nthrottle = nan", &["[faults]", "throttle"]),
            ("", "[faults]\nseed = 7\nthrottle = inf", &["[faults]", "throttle"]),
            (
                "",
                "[faults]\nseed = 7\nlaunch_failed = 0.6\nthrottle = 0.5",
                &["[faults]", "launch_failed", "device_oom", "throttle"],
            ),
            ("", "[faults]\nseed = 7\nshed_deadline_ms = true", &["[faults]", "shed_deadline"]),
            ("", "[faults]\nseed = 7\ntypo = 1", &["[faults]", "typo"]),
            ("", "[faults]\nlaunch_failed = 0.1", &["[faults]", "seed"]),
            ("", "[device_faults]\ncrash_rate = 0.1", &["[device_faults]", "seed"]),
            ("", "[device_faults]\nseed = 7\nrepair_ms = \"4\"", &["[device_faults]", "repair_ms"]),
            (
                "",
                "[device_faults]\nseed = 7\ncrash_device = 0",
                &["[device_faults]", "crash_at_ms"],
            ),
            ("", "[device_faults]\nseed = 7\ncrash_at_ms = 1\ncrash_device = 9", &["crash_device"]),
            (
                "",
                "[device_faults]\nseed = 7\ncrash_at_ms = 1\ncrash_device = -1",
                &["crash_device"],
            ),
            ("", "[tenant.a]\nclass = \"premium\"", &["[tenant.a]", "class"]),
            ("", "[tenant.a]\nclass = \"interactive\"", &["[tenant.a]", "p99_budget_ms"]),
            ("", "[tenant.a]\nclass = \"standard\"\np99_budget_ms = 9", &["[tenant.a]", "p99"]),
            ("", "[tenant.a]\nclass = \"standard\"\nweight = -1", &["[tenant.a]", "weight"]),
            ("", "[tenant.a]\nclass = \"standard\"\nweight = inf", &["[tenant.a]", "weight"]),
            ("", "[tenant.a]\nclass = \"standard\"\nrate = inf", &["[tenant.a]", "rate"]),
            ("", "[tenant.a]\nclass = \"standard\"\nweight = \"2\"", &["[tenant.a]", "weight"]),
            ("", "[tenant.a]\nclass = \"standard\"\nburst = 2", &["[tenant.a]", "burst"]),
            ("", "[tenant.bad name]\nclass = \"standard\"", &["bad name"]),
        ];
        for &(from, to, parts) in rows {
            let text =
                if from.is_empty() { format!("{SPEC}{to}\n") } else { SPEC.replacen(from, to, 1) };
            assert_ne!(text, SPEC, "the edit {from:?} must apply");
            let e = parse_spec(&text).expect_err(to);
            assert!(parts.iter().all(|p| e.contains(p)), "{e:?} should name {parts:?}");
        }
        // Declared runs and this scenario's own metrics are valid gate keys.
        let text = SPEC.replacen("seed = 42", oracle, 1).replace(
            "requests = 4",
            "\"host.wall_ratio.sequential\" = 2.0\n\"host.wall_ratio.threads4\" = 0.1",
        );
        assert_eq!(parse_spec(&text).unwrap().gates.min.len(), 3);
        // A zero tolerance (exact match) and an infinite gate bound parse.
        let text = SPEC.replace("default = 0.02", "default = 0");
        assert_eq!(
            parse_spec(&format!("{text}\n[gate.max]\nshed_rate = inf\n"))
                .unwrap()
                .tolerances
                .default,
            0.0
        );
        let faults = "\n[faults]\nseed = 7\nmax_retries = 4294967295\nshed_deadline_ms = 5";
        let spec = parse_spec(&format!("{SPEC}{faults}")).unwrap();
        assert_eq!(spec.fault_policy.max_retries, u32::MAX);
        assert_eq!(spec.fault_policy.shed_deadline, Some(0.005));
        // Rates at the edges of [0, 1], and a sum of 1 up to rounding
        // (0.34 + 0.56 + 0.1 adds to 1.0000000000000002), parse.
        let sum_one = "launch_failed = 0.34\ndevice_oom = 0.56\nthrottle = 0.1";
        for rates in ["launch_failed = 1", "device_oom = 0\nthrottle = 1.0", sum_one] {
            let text = format!("{SPEC}\n[faults]\nseed = 7\n{rates}\n");
            assert!(parse_spec(&text).unwrap().faults.is_some(), "{rates}");
        }
    }

    #[test]
    fn tenant_and_device_fault_sections_parse() {
        let spec = parse_spec(&format!("{SPEC}{TENANTS}{DEVICE_FAULTS}")).unwrap();
        // Section names come back ascending, so `analytics` leads — the
        // order is part of the attribution function and must be stable.
        assert_eq!(spec.tenants.len(), 2);
        assert_eq!(spec.tenants[0].name, "analytics");
        assert_eq!(spec.tenants[0].class.name(), "best-effort");
        assert_eq!((spec.tenants[0].weight, spec.tenants[0].rate_limit), (2.0, None));
        assert_eq!(spec.tenants[1].name, "frontend");
        assert_eq!(spec.tenants[1].class.p99_budget(), Some(0.025));
        assert_eq!(spec.tenants[1].rate_limit, Some(200.0));
        let names = spec.metric_names();
        assert!(["tenant.frontend.p99", "slo.cost", "health.downs"]
            .iter()
            .all(|m| names.contains(*m)));

        let plan = spec.device_faults.expect("[device_faults] parses");
        assert_eq!((plan.seed, plan.drain_rate, plan.repair, plan.warmup), (7, 0.2, 0.04, 0.015));
        assert_eq!(plan.scheduled.len(), 1);
        assert_eq!((plan.scheduled[0].t, plan.scheduled[0].device), (0.12, 0));
        assert!(!plan.is_noop());
    }

    #[test]
    fn gates_bound_metrics_and_arm_thread_ratios_by_core_count() {
        let text = SPEC.replacen("seed = 42", "seed = 42\noracles = [\"linear\"]", 1).replace(
            "requests = 4",
            "requests = 4\n\"host.wall_ratio.linear\" = 2.0\n\n[gate.max]\nshed_rate = 0.1\n\
             \"host.wall_ratio.threads4\" = 0.5",
        );
        let spec = parse_spec(&text).unwrap();
        let mut metrics: BTreeMap<String, f64> =
            [("requests".to_string(), 8.0), ("shed_rate".to_string(), 0.0)].into();
        let runs = [("threads1", 800.0), ("threads4", 300.0), ("linear", 4000.0)];
        let walls: BTreeMap<String, f64> = runs.map(|(r, t)| (r.to_string(), t)).into();
        let verdicts = |m: &BTreeMap<String, f64>, w: &BTreeMap<String, f64>, cores: usize| {
            check_gates(&spec, m, w, cores).into_iter().map(|(v, _)| v).collect::<Vec<_>>()
        };
        // Order: [gate.min] keys ascending (linear, requests), then
        // [gate.max] keys (threads4, shed_rate).
        use Verdict::*;
        assert_eq!(verdicts(&metrics, &walls, 4), vec![Pass, Pass, Pass, Pass]);
        assert_eq!(verdicts(&metrics, &walls, 2), vec![Pass, Pass, Skipped, Pass]);
        let skipped = &check_gates(&spec, &metrics, &walls, 2)[2].1;
        assert!(skipped.contains("threads1 800.0 ms") && skipped.contains("threads4 300.0 ms"));

        let slow = [("threads1", 800.0), ("threads4", 500.0), ("linear", 1000.0)];
        let slow: BTreeMap<String, f64> = slow.map(|(r, t)| (r.to_string(), t)).into();
        assert_eq!(verdicts(&metrics, &slow, 4), vec![Fail, Pass, Fail, Pass]);
        metrics.insert("requests".to_string(), 3.0);
        metrics.insert("shed_rate".to_string(), 0.5);
        assert_eq!(verdicts(&metrics, &walls, 4), vec![Pass, Fail, Pass, Fail]);
        metrics.remove("shed_rate");
        assert_eq!(verdicts(&metrics, &walls, 4)[3], Fail, "a missing metric cannot pass");
    }

    #[test]
    fn diff_flags_drift_beyond_tolerance_and_schema_changes() {
        let tol = Tolerances { default: 0.02, per_metric: BTreeMap::new() };
        let base: BTreeMap<String, f64> =
            [("latency.p99".to_string(), 10.0), ("requests".to_string(), 200.0)].into();
        let mut cur = base.clone();
        assert!(diff_metrics(&base, &cur, &tol).unwrap().is_empty(), "identical maps must pass");

        // 1% drift passes at 2% tolerance; 5% fails and names the metric.
        cur.insert("latency.p99".to_string(), 10.1);
        assert!(diff_metrics(&base, &cur, &tol).unwrap().is_empty());
        cur.insert("latency.p99".to_string(), 10.5);
        let drifts = diff_metrics(&base, &cur, &tol).unwrap();
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "latency.p99");
        assert!((drifts[0].rel - 0.05).abs() < 1e-12);

        // A metric on only one side is schema drift.
        cur.insert("latency.p99".to_string(), 10.0);
        cur.remove("requests");
        cur.insert("brand_new".to_string(), 1.0);
        let drifts = diff_metrics(&base, &cur, &tol).unwrap();
        let names: Vec<&str> = drifts.iter().map(|d| d.metric.as_str()).collect();
        assert_eq!(names, vec!["requests", "brand_new"]);
        assert!(drifts.iter().all(|d| d.rel.is_infinite()));

        // A tolerance for a metric the baseline lacks is an error.
        let mut typo = tol.clone();
        typo.per_metric.insert("latency.p999".to_string(), 0.1);
        let e = diff_metrics(&base, &base, &typo).unwrap_err();
        assert!(e.contains("[tolerances]") && e.contains("latency.p999"), "{e}");
    }

    #[test]
    fn agent_line_round_trips_and_results_compare_exactly() {
        let mut hist = Histogram::new();
        hist.record(0.002);
        hist.record_n(0.004, 3);
        let r = ScenarioResult {
            scenario: "unit".to_string(),
            suite: "deterministic".to_string(),
            metrics: [("latency.p99".to_string(), 4.25), ("requests".to_string(), 4.0)].into(),
            hist,
        };
        let line = AgentLine {
            result: r.clone(),
            digest: "00ff00ff00ff00ff".to_string(),
            host: HostTimes { wall_ms: 12.5 },
        };
        let back = parse_agent_line(&serde_json::to_string(&line).unwrap()).unwrap();
        assert_eq!(back, line);
        // Host times are not part of a run's identity.
        let slower = AgentLine { host: HostTimes { wall_ms: 99.0 }, ..line.clone() };
        assert_eq!(slower.differs_from(&line), None);
        // A baseline is the bare result: no digest, no host times.
        let baseline = serde_json::to_string(&r).unwrap();
        assert!(!baseline.contains("digest") && !baseline.contains("host"));
        assert_eq!(parse_result(&baseline).unwrap(), r);

        let mut other = line.clone();
        other.result.metrics.insert("latency.p99".to_string(), 4.25 + 1e-12);
        assert_eq!(other.differs_from(&line), Some("metrics"));
        other = line.clone();
        other.result.hist.record(0.001);
        assert_eq!(other.differs_from(&line), Some("hist"));
        other = AgentLine { digest: "00ff00ff00ff00fe".to_string(), ..line.clone() };
        assert_eq!(other.differs_from(&line), Some("digest"));
        assert!(parse_result("{}").is_err());
        assert!(parse_agent_line(&serde_json::to_string(&r).unwrap()).is_err());
    }
}
