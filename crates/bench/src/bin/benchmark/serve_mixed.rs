//! `serve-mixed`: AlexNet and CIFAR multiplexed on two Titan Blacks and two
//! Titan Xs, with three tenants — `frontend` (interactive, 60 ms p99
//! budget), `api` (standard) and `batch` (best-effort) — seeded kernel
//! faults, and seeded device crashes and drains that heal. The stream is
//! open-loop Poisson in two phases, quiet then burst, sized from each
//! device type's capacity for the network mix. Latency runs from each
//! request's scheduled arrival on the simulated clock, so generator
//! lateness is zero by construction. Set-up compiles every bucket plan of
//! both networks on both device types, cold. The seed picks the stream,
//! the tenant of each request, the kernel faults and the exact time of
//! each device outage.

use crate::clock::Stopwatch;
use crate::serving::{self, IMAGES_MAX, IMAGES_MIN, MEAN_IMAGES};
use crate::stats::{bisect_max, geomean, median, rate};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};
use memcnn_core::{Engine, LayoutThresholds, Mechanism, Network};
use memcnn_gpusim::{simcache, DeviceConfig, DeviceFaultPlan, FaultPlan};
use memcnn_serve::{
    buckets, serve_fleet, tenant_tags, Arrival, BatchPolicy, FaultPolicy, FleetConfig, FleetReport,
    Phase, Placement, TenantSpec, WorkloadConfig,
};

/// How much of the workload to run.
pub struct Size {
    /// The multiplexed networks (request `id % len` picks one).
    pub nets: fn() -> Vec<Network>,
    /// Largest batch bucket.
    pub max_batch: usize,
    /// Requests in the measured stream (about; Poisson).
    pub requests: usize,
    /// Requests in each stream of the capacity search.
    pub search_requests: usize,
    /// Halvings of the capacity search's bracket.
    pub search_iters: usize,
    /// Repetitions measured even when `--seconds` is already spent.
    pub min_reps: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            nets: || {
                vec![
                    memcnn_models::alexnet().expect("AlexNet builds"),
                    memcnn_models::cifar10().expect("CIFAR builds"),
                ]
            },
            max_batch: 16,
            requests: 120_000,
            search_requests: 40_000,
            search_iters: 10,
            min_reps: 3,
        }
    }
}

/// Offered load of the quiet and burst phases, as shares of the fleet's
/// capacity for the network mix; each phase carries half the requests.
const QUIET: f64 = 0.15;
const BURST: f64 = 0.4;
/// Devices: two Titan Blacks, then two Titan Xs.
const DEVICES: u32 = 4;
/// The interactive tenant's p99 budget, seconds.
const FRONTEND_BUDGET: f64 = 0.060;
/// Largest failed share a capacity-search point may have.
const MAX_FAILED: f64 = 0.01;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::interactive("frontend", FRONTEND_BUDGET, 0.12),
        TenantSpec::standard("api", 0.44),
        TenantSpec::best_effort("batch", 0.44),
    ]
}

/// Kernel-launch faults: rare transient failures and throttles, retried
/// or absorbed by the serving ladder.
fn kernel_faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed, 0.001, 0.0, 0.002)
}

/// One outage per device over a stream of `duration` simulated seconds,
/// each followed by a short repair and warmup: device `d` drains (even `d`)
/// or crashes (odd `d`) about `(d + 1) / 5` of the way through, so the last
/// crash falls in the burst. The seed moves each outage by up to 2% of the
/// stream: it changes when a device fails, not which phase it fails in.
/// With outages anywhere in the stream, the frontend p99 swung by 12%
/// between seeds.
fn device_faults(seed: u64, duration: f64) -> DeviceFaultPlan {
    let plan =
        DeviceFaultPlan::quiet(seed).with_repair(0.02 * duration).with_warmup(0.01 * duration);
    (0..DEVICES).fold(plan, |plan, d| {
        let draw = splitmix(seed ^ (d as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let jitter = 0.02 * (2.0 * (draw >> 11) as f64 / (1u64 << 53) as f64 - 1.0);
        let t = duration * (f64::from(d + 1) / f64::from(DEVICES + 1) + jitter);
        if d % 2 == 0 {
            plan.drain_at(t, d)
        } else {
            plan.crash_at(t, d)
        }
    })
}

/// The splitmix64 finalizer: a well-mixed 64-bit draw from `x`.
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fleet config for a stream: fixed tenants and fault plans.
fn config(workload: WorkloadConfig, policy: BatchPolicy) -> FleetConfig {
    let seed = workload.seed;
    let duration = workload.duration();
    FleetConfig::new(workload, policy, Placement::QueueWeighted)
        .with_tenants(tenants())
        .with_faults(kernel_faults(seed), FaultPolicy::default())
        .with_device_faults(device_faults(seed, duration))
}

/// The frontend tenant's report: (admitted, completed, violations, p99).
fn frontend(report: &FleetReport) -> Option<(u64, u64, u64, f64)> {
    let t = report.slo.as_ref()?.tenants.first()?;
    Some((t.admitted, t.completed, t.violations, t.latency.p99))
}

pub fn run(cfg: &RunCfg, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let devices = [DeviceConfig::titan_black(), DeviceConfig::titan_x()];
    let thresholds = [LayoutThresholds::titan_black_paper(), LayoutThresholds::titan_x_paper()];
    let nets = (size.nets)();
    let all_buckets = buckets(&BatchPolicy::new(size.max_batch, 1.0));

    // Set-up: every bucket of every network on both device types, cold.
    let mut setup = Vec::new();
    let mut state = None;
    while cfg.more_setups(&setup) {
        simcache::clear();
        let t = Stopwatch::start();
        let engines: Vec<Engine> =
            devices.iter().zip(thresholds).map(|(d, th)| Engine::new(d.clone(), th)).collect();
        let mut failed = 0;
        // Top-bucket service time per (device type, network).
        let mut top = vec![vec![0.0; nets.len()]; engines.len()];
        for (d, engine) in engines.iter().enumerate() {
            for (n, net) in nets.iter().enumerate() {
                for &b in &all_buckets {
                    match engine.plan_at(net, Mechanism::Opt, b) {
                        Ok(p) => top[d][n] = p.total_time(),
                        Err(_) => failed += 1,
                    }
                }
            }
        }
        setup.push(t.secs());
        out.check("every bucket plan compiles on both device types", failed == 0, || {
            format!("{failed} plans failed")
        });
        state = Some((engines, top));
    }
    out.set_host("setup_s", &setup);
    let (engines, top) = state.expect("at least one set-up");

    // Capacity for the mix: requests alternate networks, so a device's
    // image time is the mean over networks of its top bucket's per-image
    // service time. The fleet is two of each device type.
    let per_type: Vec<f64> = top
        .iter()
        .map(|t| 1.0 / (t.iter().sum::<f64>() / t.len() as f64 / size.max_batch as f64))
        .collect();
    let capacity = 2.0 * per_type.iter().sum::<f64>() / MEAN_IMAGES;
    let policy = BatchPolicy::new(size.max_batch, 0.25 * top[0][0]);
    let fleet: Vec<&Engine> = vec![&engines[0], &engines[0], &engines[1], &engines[1]];
    let (quiet, burst) = (QUIET * capacity, BURST * capacity);
    let half = size.requests as f64 / 2.0;
    let workload = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: quiet }, duration: half / quiet },
            Phase { arrival: Arrival::Poisson { rate: burst }, duration: half / burst },
        ],
        images_min: IMAGES_MIN,
        images_max: IMAGES_MAX,
        seed: cfg.seed,
    };
    let mixed = config(workload.clone(), policy);
    out.note("mixed.capacity_per_s", capacity, "req/s");
    let serve = |tr: &mut Tracer, c: &FleetConfig, id: u64| {
        tr.span("serve", "serve_fleet", id, |_| serve_fleet(&fleet, &nets, c))
    };

    // Measurement: warm repetitions of the stream.
    let measured = serving::repeat(
        &mut out,
        cfg,
        size.min_reps,
        |id| serve(&mut Tracer::off(), &mixed, id),
        check_invariants,
    );
    let Some((report, first_digest, secs)) = measured else { return out };
    let rps: Vec<f64> = secs.iter().map(|&s| rate(report.requests as f64, s)).collect();
    out.note_host("mixed.requests_per_s", "req/s", &rps);
    out.set("ops_per_s", median(&rps));

    let tags = tenant_tags(workload.seed, report.requests, &tenants());
    let front = report.latencies.iter().zip(&tags).filter(|(_, &t)| t == 0).map(|(&l, _)| l);
    serving::note_latency(&mut out, "mixed.frontend", front, FRONTEND_BUDGET);
    let (admitted, completed, violations, _) = frontend(&report).unwrap_or_default();
    let attainment = rate(completed.saturating_sub(violations) as f64, admitted as f64);
    out.note("mixed.slo_attainment", attainment, "fraction");
    out.set("sim.slo_attainment", attainment);
    if let Some(h) = &report.health {
        out.note("mixed.health.downs", h.downs as f64, "count");
        out.note("mixed.health.ups", h.ups as f64, "count");
        out.note("mixed.failover.requeued", h.requeued as f64, "count");
    }
    out.note("mixed.faults.injected", report.faults.injected as f64, "count");

    // What Opt buys over the best baseline on the top bucket, per
    // (device type, network).
    let mut speedups = Vec::new();
    for (d, engine) in engines.iter().enumerate() {
        for (n, net) in nets.iter().enumerate() {
            let best = Mechanism::ALL
                .iter()
                .filter(|&&m| m != Mechanism::Opt)
                .filter_map(|&m| {
                    engine.plan_at(net, m, size.max_batch).ok().map(|p| p.total_time())
                })
                .fold(f64::INFINITY, f64::min);
            speedups.push(best / top[d][n]);
        }
    }
    out.set("sim.opt_speedup", geomean(&speedups));

    // Capacity at the SLO: the highest Poisson rate at which the frontend
    // p99 stays within budget and at most 1% of requests fail, on a fixed
    // shorter stream with the same tenants and fault environment.
    let meets = |r: f64| {
        let w = serving::poisson(r, size.search_requests, cfg.seed);
        serve(&mut Tracer::off(), &config(w, policy), 0).is_ok_and(|rep| {
            let p99 = frontend(&rep).map_or(f64::INFINITY, |f| f.3);
            p99 <= FRONTEND_BUDGET
                && serving::failed(&rep) as f64 <= MAX_FAILED * rep.requests as f64
        })
    };
    let found = bisect_max(0.02 * capacity, capacity, size.search_iters, meets);
    out.check(
        "the capacity search finds a rate within the frontend budget",
        found.is_some(),
        String::new,
    );
    out.note("mixed.max_rps_at_slo", found.unwrap_or(0.0), "req/s");
    out.set("sim.capacity_per_s", found.unwrap_or(0.0));

    if let Some(dir) = &cfg.trace {
        serving::traced(&mut out, dir, "serve-mixed", &workload, first_digest, &secs, |tr, id| {
            serve(tr, &mixed, id)
        });
    }
    out
}

/// The tenant, fault-ladder and failover books of one repetition.
fn check_invariants(out: &mut Outcome, r: &FleetReport, rep: usize) {
    let slo = r.slo.as_ref().is_some_and(|s| s.balanced());
    out.check(&format!("SloReport::balanced (repetition {rep})"), slo, String::new);
    let faults = r.faults.balanced() && r.devices.iter().all(|d| d.faults.balanced());
    out.check(
        &format!("FaultStats::balanced, fleet and per device (repetition {rep})"),
        faults,
        || format!("{:?}", r.faults),
    );
    let failover = r.health.as_ref().is_some_and(|h| {
        h.failed_over == h.requeued + h.transit_shed && h.failed_over_in_transit == 0
    });
    out.check(&format!("failover conserves requests (repetition {rep})"), failover, || {
        format!("{:?}", r.health)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_serve_mixed_runs_traced_and_passes_its_gates() {
        let size = Size {
            nets: || {
                vec![
                    memcnn_models::cifar10().expect("CIFAR builds"),
                    memcnn_models::lenet().expect("LeNet builds"),
                ]
            },
            max_batch: 8,
            requests: 4_000,
            search_requests: 1_000,
            search_iters: 3,
            min_reps: 2,
        };
        let dir = std::env::temp_dir().join(format!("memcnn-benchmark-sm-{}", std::process::id()));
        let cfg = RunCfg { seed: 7, seconds: 0.0, trace: Some(dir.clone()) };
        let out = run(&cfg, &size);
        crate::assert_complete(&out);
        assert!(out.attempted > 6_000);
        assert!(out.metrics["sim.opt_speedup"] >= 1.0);
        assert!(out.metrics["serve.events"] > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
