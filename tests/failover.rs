//! Device-failure integration tests: bit-identical failover replay
//! across thread counts, the zero-rate no-op equivalence, the extended
//! accounting balance invariant (`admitted == completed + shed +
//! rejected + in_flight + failed_over_in_transit`), and total-fleet-loss
//! survival.
//!
//! Like `tests/fleet.rs`, this binary reads process-global state (the
//! perf registry), so everything lives in ONE `#[test]`, run under a
//! 4-thread budget (`rayon::with_max_threads`).

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, DeviceFaultPlan};
use memcnn::serve::{
    serve_fleet, Arrival, BatchPolicy, FleetConfig, FleetReport, Phase, Placement, TenantSpec,
    WorkloadConfig,
};
use memcnn::tensor::Shape;

fn black() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

/// Replay-relevant bits of a fleet report under device faults:
/// latencies, placements, shed total, and the whole health block.
fn digest(r: &FleetReport) -> (Vec<u64>, Vec<u32>, usize, String) {
    let health = r.health.as_ref().expect("fault-enabled run must carry a health report");
    (
        r.latencies.iter().map(|l| l.to_bits()).collect(),
        r.placements.clone(),
        r.shed_requests,
        serde_json::to_string(health).unwrap(),
    )
}

/// Field-wise equality of everything except the config echo (which
/// legitimately differs when one config carries a no-op fault plan).
fn assert_same_schedule(a: &FleetReport, b: &FleetReport, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.latencies), bits(&b.latencies), "{what}: latencies diverged");
    assert_eq!(a.placements, b.placements, "{what}: placements diverged");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{what}: makespan diverged");
    assert_eq!(a.shed_requests, b.shed_requests, "{what}: shed totals diverged");
    assert_eq!(
        serde_json::to_string(&a.devices).unwrap(),
        serde_json::to_string(&b.devices).unwrap(),
        "{what}: device reports diverged"
    );
    assert_eq!(
        serde_json::to_string(&a.faults).unwrap(),
        serde_json::to_string(&b.faults).unwrap(),
        "{what}: fault stats diverged"
    );
    assert_eq!(
        serde_json::to_string(&a.timeline).unwrap(),
        serde_json::to_string(&b.timeline).unwrap(),
        "{what}: timelines diverged"
    );
}

#[test]
fn device_failover_is_deterministic_balanced_and_lossless() {
    rayon::with_max_threads(4, failover_checks);
}

fn failover_checks() {
    let net = NetworkBuilder::new("failover-net", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let wl = WorkloadConfig {
        phases: vec![Phase { arrival: Arrival::Poisson { rate: 3000.0 }, duration: 0.25 }],
        images_min: 1,
        images_max: 8,
        seed: 91,
    };
    let tenants =
        vec![TenantSpec::interactive("chat", 0.05, 2.0), TenantSpec::best_effort("offline", 1.0)];
    let policy = BatchPolicy::new(64, 0.004);
    // A mid-run hang, crash, and planned drain, plus a seeded
    // background drain rate; short repair + warmup so dead devices heal
    // and serve again inside the 0.25 s stream.
    let faults = DeviceFaultPlan::new(7, 0.0, 0.0, 0.3)
        .with_repair(0.03)
        .with_warmup(0.01)
        .hang_at(0.05, 3)
        .crash_at(0.1, 1)
        .drain_at(0.15, 2);
    let cfg = FleetConfig::new(wl.clone(), policy, Placement::LeastLoaded)
        .with_tenants(tenants.clone())
        .with_device_faults(faults.clone());

    let shared = black();
    let engines: Vec<&Engine> = vec![&shared, &shared, &shared, &shared];
    let nets = std::slice::from_ref(&net);

    // (1) Bit-identical failover replay under thread budgets {1, 13}
    // besides 4.
    let run = || serve_fleet(&engines, nets, &cfg).unwrap();
    let report = run();
    let base = digest(&report);
    for threads in [1, 13] {
        let rerun = digest(&rayon::with_max_threads(threads, run));
        assert_eq!(base, rerun, "failover run diverged under a {threads}-thread budget");
    }

    // (2) The fault plan actually fired and the fleet recovered: every
    // down device healed, failed-over work was re-placed, and the
    // per-device counts add up to the fleet total.
    let health = report.health.as_ref().unwrap();
    assert!(health.downs >= 3, "the scheduled hang, crash, and drain must all fire");
    assert!(health.ups >= 1, "short repair + warmup heals inside the stream");
    assert!(health.ups <= health.downs, "a device cannot heal without going down first");
    assert!(health.failed_over > 0, "the mid-run crash must fail over queued work");
    assert_eq!(
        health.device_failed_over.iter().sum::<u64>(),
        health.failed_over,
        "per-device failover counts must add up to the fleet total"
    );
    assert_eq!(
        health.requeued + health.transit_shed,
        health.failed_over,
        "every failed-over request is re-placed or shed"
    );
    assert!(health.warm_compiles > 0, "healing resets warm plan caches cold");

    // (3) Extended balance: per tenant and in aggregate, with the
    // transit residual zero on a drained run — nothing is lost
    // silently. The 0.0-latency sentinels are exactly the rejected
    // plus shed requests.
    let slo = report.slo.as_ref().unwrap();
    assert!(slo.balanced(), "aggregate accounting out of balance under device faults");
    assert_eq!(slo.failed_over_in_transit, 0, "a drained run leaves nothing in transit");
    assert_eq!(health.failed_over_in_transit, 0);
    for t in &slo.tenants {
        assert!(t.balanced(), "tenant {} out of balance under device faults", t.name);
        assert_eq!(t.in_flight, 0, "a drained run leaves nothing in flight");
        assert_eq!(t.failed_over_in_transit, 0);
    }
    assert_eq!(slo.failed_over, health.failed_over, "slo and health failover tallies agree");
    assert_eq!(
        report.latencies.iter().filter(|&&l| l == 0.0).count() as u64,
        slo.rejected + report.shed_requests as u64,
        "0.0 latency sentinels are the rejected plus shed requests"
    );
    assert!(slo.device_seconds > 0.0, "busy devices must accrue device-seconds");
    assert!(slo.cost().is_finite() && slo.cost() >= 0.0, "slo.cost must be finite");

    // (4) A zero-rate, unscheduled plan is a byte-identical no-op: the
    // run must replay the plan-free schedule field for field (only the
    // config echo differs) and must not fabricate a health report.
    let plain_cfg =
        FleetConfig::new(wl.clone(), policy, Placement::LeastLoaded).with_tenants(tenants.clone());
    let noop_cfg = plain_cfg.clone().with_device_faults(DeviceFaultPlan::new(7, 0.0, 0.0, 0.0));
    let plain = serve_fleet(&engines, nets, &plain_cfg).unwrap();
    let noop = serve_fleet(&engines, nets, &noop_cfg).unwrap();
    assert!(noop.health.is_none(), "a no-op plan must not fabricate a health report");
    assert_same_schedule(&plain, &noop, "zero-rate no-op plan");
    let plain_json = serde_json::to_string(&plain).unwrap();
    for key in ["\"health\"", "\"device_faults\""] {
        assert!(!plain_json.contains(key), "default-config report leaked new key {key}");
    }

    // (5) Crash K-1 devices at t = 0: the survivor carries the whole
    // stream (with the deadline ladder shedding what it must) and the
    // run still returns Ok with the books balanced.
    let apocalypse = DeviceFaultPlan::new(11, 0.0, 0.0, 0.0)
        .with_repair(10.0) // longer than the stream: no heal
        .crash_at(0.0, 1)
        .crash_at(0.0, 2)
        .crash_at(0.0, 3);
    let acfg = FleetConfig::new(wl, policy, Placement::LeastLoaded)
        .with_tenants(tenants)
        .with_device_faults(apocalypse);
    let survived = serve_fleet(&engines, nets, &acfg).unwrap();
    let ah = survived.health.as_ref().unwrap();
    assert_eq!(ah.downs, 3, "all three scheduled crashes fire");
    assert_eq!(ah.ups, 0, "repair outlasts the stream: nobody heals");
    let aslo = survived.slo.as_ref().unwrap();
    assert!(aslo.balanced(), "accounting out of balance after losing K-1 devices");
    assert_eq!(aslo.failed_over_in_transit, 0);
    for t in &aslo.tenants {
        assert!(t.balanced(), "tenant {} out of balance after losing K-1 devices", t.name);
        assert_eq!(t.in_flight, 0, "everything is served or shed, nothing stranded");
    }
    assert!(
        survived.placements.iter().filter(|&&p| p != u32::MAX).all(|&p| p == 0)
            || survived.shed_requests > 0,
        "post-crash placements land on the survivor"
    );
}
