//! Differential fleet serving over generated fleets: for every sampled
//! fleet — 1 to 6 devices of either kind (one device is the
//! single-device server), one or two networks, every placement policy,
//! tenants on or off, kernel faults, device faults, adaptive delay on or
//! off — the shipping loop under 1- and 4-thread budgets and both
//! reference drivers ([`Oracle::Sequential`], [`Oracle::Linear`]) serve
//! byte-identical reports, and the fault and SLO books balance. Two
//! physical bounds hold as well: no request is served faster than the
//! shortest plan its network has, and no device launches a batch while
//! a crash holds it down.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, DeviceFaultKind, DeviceFaultPlan, FaultPlan};
use memcnn::serve::{
    buckets, generate, serve_fleet, serve_fleet_oracle, AdaptivePolicy, Arrival, BatchPolicy,
    FaultPolicy, FleetConfig, FleetReport, Oracle, Phase, Placement, TenantSpec, WorkloadConfig,
};
use memcnn::tensor::Shape;
use proptest::prelude::*;

const PLACEMENTS: [Placement; 4] = [
    Placement::RoundRobin,
    Placement::LeastLoaded,
    Placement::QueueWeighted,
    Placement::MemoryAware,
];

fn engine(titan_x: bool) -> Engine {
    let (device, thresholds) = if titan_x {
        (DeviceConfig::titan_x(), LayoutThresholds::titan_x_paper())
    } else {
        (DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
    };
    Engine::new(device, thresholds).with_layout_policy(LayoutPolicy::Heuristic)
}

/// One or two networks small enough that planning costs little.
fn networks(two: bool) -> Vec<Network> {
    let a = NetworkBuilder::new("oracle-a", Shape::new(1, 4, 16, 16))
        .conv("CV", 8, 3, 1, 1)
        .max_pool("PL", 2, 2)
        .build()
        .unwrap();
    let b = NetworkBuilder::new("oracle-b", Shape::new(1, 8, 8, 8)).conv("CV", 16, 3, 1, 1);
    if two {
        vec![a, b.build().unwrap()]
    } else {
        vec![a]
    }
}

/// A stream of about `requests` arrivals at `rate` per second: one
/// phase, or a quiet quarter then a burst (the phase boundary is where
/// adaptive delay re-estimates).
fn workload(seed: u64, requests: usize, rate: f64, bursty: bool) -> WorkloadConfig {
    let n = requests as f64;
    let phases = if bursty {
        let quiet = rate / 8.0;
        vec![
            Phase { arrival: Arrival::Poisson { rate: quiet }, duration: n / 4.0 / quiet },
            Phase { arrival: Arrival::Poisson { rate }, duration: 0.75 * n / rate },
        ]
    } else {
        vec![Phase { arrival: Arrival::Poisson { rate }, duration: n / rate }]
    };
    WorkloadConfig { phases, images_min: 1, images_max: 8, seed }
}

fn json(report: &FleetReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// The shortest simulated service time of any plan `net` has on any of
/// `engines`, over every bucket `cfg`'s policy can form.
fn shortest_service(engines: &[&Engine], net: &Network, cfg: &FleetConfig) -> f64 {
    let mut best = f64::INFINITY;
    for engine in engines {
        for bucket in buckets(&cfg.policy) {
            if let Ok(plan) = engine.plan_at(net, cfg.mechanism, bucket) {
                best = best.min(plan.total_time());
            }
        }
    }
    best
}

/// `(device, t)` of every crash in `cfg`'s device-fault plan that is its
/// device's first lifecycle event: the device is surely healthy when it
/// lands, so it is `Down` for the plan's whole repair time. (A later event
/// may land on a device that is already down or warming, which spends
/// it.)
fn first_crashes(cfg: &FleetConfig, k: usize) -> Vec<(usize, f64)> {
    let Some(plan) = &cfg.device_faults else { return Vec::new() };
    let horizon = generate(&cfg.workload).last().map_or(0.0, |r| r.arrival);
    let events = plan.events_for(k, horizon);
    (0..k)
        .filter_map(|d| {
            let first = events.iter().find(|e| e.device as usize == d)?;
            (first.kind == DeviceFaultKind::Crash).then_some((d, first.t))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_driver_and_thread_budget_serves_the_same_report(
        kinds in prop::collection::vec(prop::bool::ANY, 1..=6),
        (two_nets, placement, tenants, adaptive) in
            (prop::bool::ANY, 0usize..4, prop::bool::ANY, prop::bool::ANY),
        (seed, requests, rate, bursty) in (any::<u64>(), 20usize..=300, 300.0f64..6000.0, prop::bool::ANY),
        (max_batch, delay) in (0u32..3, 0.0005f64..0.01),
        (faulty, failed, oom, throttle, retries, shed) in
            (0u32..3, 0.0f64..0.2, 0.0f64..0.05, 0.0f64..0.1, 0u32..4, 0u32..3),
        (crashy, crash_rate, drain_rate, scheduled) in
            (0u32..3, 0.0f64..8.0, 0.0f64..4.0, 0u32..3),
    ) {
        let engines: Vec<Engine> = kinds.iter().map(|&x| engine(x)).collect();
        let engines: Vec<&Engine> = engines.iter().collect();
        let k = engines.len();
        let nets = networks(two_nets);
        let mut cfg = FleetConfig::new(
            workload(seed, requests, rate, bursty),
            BatchPolicy::new(16 << max_batch, delay),
            PLACEMENTS[placement],
        );
        if tenants {
            cfg = cfg.with_tenants(vec![
                TenantSpec::interactive("chat", 2.0 * delay, 2.0),
                TenantSpec::standard("search", 1.0),
                TenantSpec::best_effort("offline", 1.0).with_rate_limit(rate / 4.0),
            ]);
        }
        if adaptive {
            cfg = cfg.with_adaptive(AdaptivePolicy::default());
        }
        // Two thirds of the fleets inject kernel faults; a third of those
        // shed on a deadline.
        if faulty > 0 {
            let policy = FaultPolicy {
                max_retries: retries,
                shed_deadline: (shed == 0).then_some(20.0 * delay),
                ..FaultPolicy::default()
            };
            cfg = cfg.with_faults(FaultPlan::new(seed ^ 0x5eed, failed, oom, throttle), policy);
        }
        // Two thirds of the fleets also crash, hang or drain devices.
        if crashy > 0 {
            let horizon: f64 = cfg.workload.phases.iter().map(|p| p.duration).sum();
            let mut plan = DeviceFaultPlan::new(seed.rotate_left(17), crash_rate, 0.5, drain_rate)
                .with_repair(0.2 * horizon)
                .with_warmup(0.05 * horizon);
            if scheduled > 0 {
                plan = plan.crash_at(0.3 * horizon, (seed % k as u64) as u32);
            }
            cfg = cfg.with_device_faults(plan);
        }

        let shipping = |threads| {
            rayon::with_max_threads(threads, || serve_fleet(&engines, &nets, &cfg).unwrap())
        };
        let report = shipping(4);
        let base = json(&report);
        prop_assert_eq!(&base, &json(&shipping(1)), "1-thread budget diverged: {:?}", cfg);
        for oracle in [Oracle::Sequential, Oracle::Linear] {
            let reference = rayon::with_max_threads(4, || {
                serve_fleet_oracle(&engines, &nets, &cfg, oracle).unwrap()
            });
            prop_assert_eq!(&base, &json(&reference), "{:?} diverged: {:?}", oracle, cfg);
        }

        prop_assert_eq!(report.placements.len(), report.requests);
        prop_assert!(report.faults.balanced(), "fleet faults out of balance: {:?}", report.faults);
        for dev in &report.devices {
            prop_assert!(dev.faults.balanced(), "device {} faults: {:?}", dev.device, dev.faults);
        }
        let injected: u64 = report.devices.iter().map(|d| d.faults.injected).sum();
        prop_assert_eq!(report.faults.injected, injected, "aggregate != per-device sum");
        if let Some(slo) = &report.slo {
            prop_assert!(slo.balanced(), "SLO books out of balance: {:?}", cfg);
            let admitted: u64 = slo.tenants.iter().map(|t| t.admitted).sum();
            prop_assert_eq!(admitted, report.requests as u64, "every request has one tenant");
        }
        if let Some(health) = &report.health {
            prop_assert!(health.ups <= health.downs, "a device healed without going down");
        }

        // No served request beats the shortest plan of its network (0.0
        // marks shed and rejected requests). The tolerance absorbs the
        // rounding of summing layer times in a different order.
        let floors: Vec<f64> = nets.iter().map(|n| shortest_service(&engines, n, &cfg)).collect();
        for (id, &latency) in report.latencies.iter().enumerate() {
            let floor = floors[id % nets.len()];
            prop_assert!(
                latency == 0.0 || latency >= floor * (1.0 - 1e-9),
                "request {} served in {} < shortest plan {}: {:?}", id, latency, floor, cfg
            );
        }
        // A crashed device launches nothing until its repair is over.
        if let Some(plan) = &cfg.device_faults {
            for (d, t) in first_crashes(&cfg, k) {
                let down = t..t + plan.repair;
                for b in &report.devices[d].batches {
                    prop_assert!(
                        !down.contains(&b.record.launch),
                        "device {} launched at {} while down over {:?}: {:?}",
                        d, b.record.launch, down, cfg
                    );
                }
            }
        }
    }
}
