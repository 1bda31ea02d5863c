//! Multi-tenant SLO serving comparison: the harness behind the `slo`
//! binary and `BENCH_slo.json`, plus the per-class attribution the
//! `fleet` binary's bursty table reuses.
//!
//! The comparison runs the same seeded bursty stream twice on the same
//! fleet: once with the deadline-aware tenant scheduler, once class-blind
//! (the same config with no tenants).
//! Because tenant attribution is a pure function of `(seed, request id)`
//! and never perturbs the stream, the blind run's per-class latencies
//! can be recovered post hoc with [`tenant_tags`] — both runs served the
//! exact same requests, so the per-class deltas are pure scheduling.

use crate::fleet::REQUESTS_PER_DEVICE;
use crate::serving::{IMAGES_MAX, IMAGES_MIN};
use crate::util::{Ctx, Table};
use memcnn_core::{EngineError, Network};
use memcnn_serve::{
    generate, latency_stats, serve_fleet, tenant_tags, Arrival, BatchPolicy, FleetConfig,
    FleetReport, Phase, Placement, TenantSpec, WorkloadConfig,
};
use serde::Serialize;

/// Devices in the SLO comparison fleet.
pub const SLO_DEVICES: usize = 4;

/// Two-phase stream for the SLO comparison: a steady spell at 15% of
/// the K-device aggregate capacity, then a rush at 30% — deliberately
/// subcritical, because that is the regime the deadline-aware commit
/// rule governs. Under the throughput-first delay
/// ([`SLO_DELAY_FACTOR`]), tail latency here comes from the batcher's
/// queue-delay policy (what the tenant scheduler changes per class); a
/// saturating burst would instead measure the backlog drain, where
/// weighted fairness, not deadlines, decides who waits — and where the
/// per-lane fragmentation of part-full batches costs more capacity than
/// early commits can buy back.
pub fn slo_workload(k: usize, capacity_ips: f64, seed: u64) -> WorkloadConfig {
    let mean_images = (IMAGES_MIN + IMAGES_MAX) as f64 / 2.0;
    let agg = capacity_ips * k as f64;
    let steady = (0.15 * agg / mean_images).max(1.0);
    let rush = (0.3 * agg / mean_images).max(1.0);
    WorkloadConfig {
        phases: vec![
            Phase {
                arrival: Arrival::Poisson { rate: steady },
                duration: (REQUESTS_PER_DEVICE * k / 4) as f64 / steady,
            },
            Phase {
                arrival: Arrival::Poisson { rate: rush },
                duration: (REQUESTS_PER_DEVICE * k) as f64 / rush,
            },
        ],
        images_min: IMAGES_MIN,
        images_max: IMAGES_MAX,
        seed,
    }
}

/// The blind queue-delay cap, as a multiple of the top bucket's service
/// time. Deliberately throughput-first: the batcher holds arrivals long
/// enough to fill the top bucket even in the steady phase — the
/// configuration a multi-tenant operator runs for fleet efficiency, and
/// exactly the regime where a uniform delay costs interactive requests
/// the most (their tail is the shared batching delay, not service).
pub const SLO_DELAY_FACTOR: f64 = 3.0;

/// The bench's tenant mix: a small latency-sensitive interactive
/// minority (~6% of arrivals), a standard tenant, and a best-effort
/// bulk tenant carrying half the traffic. The interactive share must
/// stay small for the comparison to be favorable at all: its tight
/// commit budget forms tiny part-full batches, and the simulator's
/// per-batch fixed cost (~6.5 ms on AlexNet) makes those ~4x less
/// efficient than full buckets — a cost only a minority tenant can pay
/// without saturating the fleet. The interactive p99 budget is 40% of
/// the blind delay, so its commit budget (half the p99 budget) fires at
/// a fifth of the delay every class-blind batch waits out.
pub fn slo_tenants(policy_delay: f64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::interactive("interactive", 0.4 * policy_delay, 0.25),
        TenantSpec::standard("standard", 1.75),
        TenantSpec::best_effort("batch", 2.0),
    ]
}

/// Run one tenant-enabled fleet point (K homogeneous copies of the
/// context's engine draining `workload`).
pub fn run_slo_fleet(
    ctx: &Ctx,
    net: &Network,
    policy: BatchPolicy,
    workload: WorkloadConfig,
    placement: Placement,
    k: usize,
    tenants: Vec<TenantSpec>,
) -> Result<FleetReport, EngineError> {
    let engines: Vec<&memcnn_core::Engine> = (0..k).map(|_| &ctx.engine).collect();
    let mut cfg = FleetConfig::new(workload, policy, placement).with_tenants(tenants);
    cfg.mechanism = ctx.mechanism();
    serve_fleet(&engines, std::slice::from_ref(net), &cfg)
}

/// One service class, deadline-aware vs class-blind, on the same stream.
#[derive(Serialize)]
pub struct ClassCompare {
    /// Tenant name.
    pub class: String,
    /// Service-class kind (`interactive` / `standard` / `best-effort`).
    pub kind: String,
    /// Arrival weight.
    pub weight: f64,
    /// Class-blind p99 (post-hoc attribution), milliseconds.
    pub blind_p99_ms: f64,
    /// Deadline-aware p99 (from the SLO report), milliseconds.
    pub aware_p99_ms: f64,
    /// Class-blind mean latency, milliseconds.
    pub blind_mean_ms: f64,
    /// Deadline-aware mean latency, milliseconds.
    pub aware_mean_ms: f64,
    /// p99-budget violations in the blind run (post hoc; 0 for classes
    /// without a budget).
    pub blind_violations: u64,
    /// p99-budget violations in the aware run.
    pub aware_violations: u64,
    /// Completed requests, blind run.
    pub blind_completed: u64,
    /// Completed requests, aware run.
    pub aware_completed: u64,
    /// Requests shed after admission, aware run.
    pub aware_shed: u64,
    /// Images the blind run completed for this class.
    pub blind_images: u64,
    /// Images the aware run completed for this class.
    pub aware_images: u64,
}

/// Per-class rollup of a class-blind run: served latencies, completed
/// count, completed images, and post-hoc p99-budget violations —
/// recovered from the latency vector with the deterministic tags, since
/// the blind scheduler never saw the tenants.
fn blind_points(
    report: &FleetReport,
    workload: &WorkloadConfig,
    tenants: &[TenantSpec],
) -> Vec<(Vec<f64>, u64, u64, u64)> {
    let requests = generate(workload);
    let tags = tenant_tags(workload.seed, requests.len(), tenants);
    let mut per: Vec<(Vec<f64>, u64, u64, u64)> = vec![Default::default(); tenants.len()];
    for (i, req) in requests.iter().enumerate() {
        let lat = report.latencies[i];
        if lat <= 0.0 {
            continue; // shed sentinel — never completed
        }
        let p = &mut per[tags[i] as usize];
        p.0.push(lat);
        p.1 += 1;
        p.2 += req.images as u64;
        if tenants[tags[i] as usize].class.p99_budget().is_some_and(|b| lat > b) {
            p.3 += 1;
        }
    }
    per
}

/// Build the per-class comparison: aware-side numbers straight from the
/// aware run's SLO report, blind-side numbers by post-hoc attribution
/// over the identical stream.
pub fn compare_classes(
    aware: &FleetReport,
    blind: &FleetReport,
    workload: &WorkloadConfig,
    tenants: &[TenantSpec],
) -> Vec<ClassCompare> {
    let slo = aware.slo.as_ref().expect("aware run must carry an SLO report");
    let blind_per = blind_points(blind, workload, tenants);
    slo.tenants
        .iter()
        .zip(&blind_per)
        .map(|(t, (lats, completed, images, violations))| {
            let b = latency_stats(lats);
            ClassCompare {
                class: t.name.clone(),
                kind: t.class.name().to_string(),
                weight: t.weight,
                blind_p99_ms: b.p99 * 1e3,
                aware_p99_ms: t.latency.p99 * 1e3,
                blind_mean_ms: b.mean * 1e3,
                aware_mean_ms: t.latency.mean * 1e3,
                blind_violations: *violations,
                aware_violations: t.violations,
                blind_completed: *completed,
                aware_completed: t.completed,
                aware_shed: t.shed,
                blind_images: *images,
                aware_images: t.images,
            }
        })
        .collect()
}

/// Tabulate a per-class comparison (shared by the `slo` and `fleet`
/// binaries).
pub fn class_table(title: String, classes: &[ClassCompare]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "class",
            "kind",
            "weight",
            "blind p99 ms",
            "aware p99 ms",
            "blind viol",
            "aware viol",
            "completed",
            "shed",
        ],
    );
    for c in classes {
        t.row(vec![
            c.class.clone(),
            c.kind.clone(),
            format!("{:.1}", c.weight),
            format!("{:.3}", c.blind_p99_ms),
            format!("{:.3}", c.aware_p99_ms),
            c.blind_violations.to_string(),
            c.aware_violations.to_string(),
            c.aware_completed.to_string(),
            c.aware_shed.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_mix_is_commit_tight() {
        let delay = 0.004;
        let tenants = slo_tenants(delay);
        assert_eq!(tenants.len(), 3);
        // The interactive commit budget must undercut the blind delay,
        // or the deadline-aware path degenerates to class-blind.
        assert!(tenants[0].class.commit_budget(delay) < delay);
        assert!(tenants[0].class.p99_budget().is_some());
        let total: f64 = tenants.iter().map(|t| t.weight).sum();
        assert!((tenants[2].weight / total - 0.5).abs() < 1e-12, "bulk carries half the traffic");
    }
}
