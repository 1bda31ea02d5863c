//! Fleet-serving integration tests: bit-identical determinism across
//! thread counts, balanced per-device and aggregate fault accounting,
//! and load-aware placement actually spreading a heterogeneous fleet.
//!
//! Like `tests/serve.rs`, this binary reads process-global state (the
//! perf registry), so everything lives in ONE `#[test]`. It runs under a
//! 4-thread budget (`rayon::with_max_threads`) whatever the host's core
//! count, so the fleet's plan compiles exercise the parallel probe
//! fan-out (and its per-worker trace merge path) rather than the
//! single-threaded fallback; each thread matrix below re-runs a fleet
//! under budgets of 1 and 13 threads.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, DeviceFaultPlan, FaultPlan};
use memcnn::serve::{
    feasible_max_batch, serve_fleet, serve_fleet_oracle, Arrival, BatchPolicy, FaultPolicy,
    FleetConfig, FleetReport, Oracle, Phase, Placement, WorkloadConfig,
};
use memcnn::tensor::Shape;

/// One batch's replay-relevant bits: (launch, done, bucket, network).
type BatchBits = (u64, u64, usize, u32);

/// Digest of everything the ISSUE requires to replay bit-identically:
/// the full latency vector, every placement decision, and every
/// device's batch timeline (launch/done bits, bucket, network).
fn digest(r: &FleetReport) -> (Vec<u64>, Vec<u32>, Vec<Vec<BatchBits>>) {
    (
        r.latencies.iter().map(|l| l.to_bits()).collect(),
        r.placements.clone(),
        r.devices
            .iter()
            .map(|d| {
                d.batches
                    .iter()
                    .map(|b| {
                        (
                            b.record.launch.to_bits(),
                            b.record.done.to_bits(),
                            b.record.bucket,
                            b.network,
                        )
                    })
                    .collect()
            })
            .collect(),
    )
}

/// 64-bit FNV-1a of `text`, as 16 hex digits: the form of the pins below.
fn pin(text: &str) -> String {
    let h = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("{h:016x}")
}

/// [`pin`]s of the base runs below — the `Debug` text of a [`digest`]
/// (integers only), or a whole report's JSON — recorded while the
/// sequential and linear oracles were still switched by env vars. A
/// change that moves every run alike passes the rerun and oracle
/// comparisons; it fails here.
const PIN_HETERO: &str = "f7946cd0ad41b7c6";
const PIN_K8: &str = "f60db8e10ced4c55";
const PIN_K8_REPORT: &str = "0088fa89b453105c";
const PIN_K64: &str = "8b518fa4b32de6b0";

fn black() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

fn titan_x() -> Engine {
    Engine::new(DeviceConfig::titan_x(), LayoutThresholds::titan_x_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

#[test]
fn fleet_is_deterministic_exact_at_k1_and_balanced_under_faults() {
    rayon::with_max_threads(4, fleet_checks);
}

fn fleet_checks() {
    let net_a = NetworkBuilder::new("fleet-a", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let net_b = NetworkBuilder::new("fleet-b", Shape::new(1, 32, 8, 8))
        .conv("CV1", 48, 3, 1, 1)
        .build()
        .unwrap();
    let nets = [net_a.clone(), net_b.clone()];

    // A quiet spell then a hard burst: the burst forces queueing, which
    // is what makes placement observable.
    let wl = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 100.0 }, duration: 0.2 },
            Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.1 },
        ],
        images_min: 1,
        images_max: 8,
        seed: 77,
    };
    let cfg = FleetConfig::new(wl.clone(), BatchPolicy::new(128, 0.004), Placement::LeastLoaded);

    // (1) Heterogeneous 2-device, 2-network fleet: its pinned digest,
    // and the same digest under 1- and 13-thread budgets.
    let run = || serve_fleet(&[&black(), &titan_x()], &nets, &cfg).unwrap();
    let hetero = run();
    let base = digest(&hetero);
    assert_eq!(pin(&format!("{base:?}")), PIN_HETERO, "hetero fleet digest drifted");
    for threads in [1, 13] {
        let rerun = digest(&rayon::with_max_threads(threads, run));
        assert_eq!(base, rerun, "fleet diverged under a {threads}-thread budget");
    }
    assert_eq!(hetero.placements.len(), hetero.requests);
    assert!(hetero.placements.iter().all(|&p| p < 2), "placement out of range");
    assert!(
        hetero.devices.iter().all(|d| !d.batches.is_empty()),
        "least-loaded must spread the burst across both devices"
    );
    assert_eq!(hetero.devices.iter().map(|d| d.requests).sum::<usize>(), hetero.requests);
    // Both networks multiplex through the fleet.
    for n in [0u32, 1u32] {
        assert!(
            hetero.devices.iter().any(|d| d.batches.iter().any(|b| b.network == n)),
            "network {n} never served"
        );
    }
    // Per-device batches never overlap on that device.
    for dev in &hetero.devices {
        for w in dev.batches.windows(2) {
            assert!(w[0].record.done <= w[1].record.launch + 1e-12);
        }
    }

    // (2) Injected faults: accounting balances per device AND in the
    // fleet aggregate (which must be exactly the per-device sum).
    let fpol = FaultPolicy { max_retries: 2, shed_deadline: Some(0.02), ..FaultPolicy::default() };
    let faulted = serve_fleet(
        &[&black(), &titan_x()],
        &nets,
        &cfg.clone().with_faults(FaultPlan::new(33, 0.15, 0.05, 0.15), fpol),
    )
    .unwrap();
    let mut injected = 0u64;
    let mut handled = 0u64;
    for dev in &faulted.devices {
        assert!(
            dev.faults.balanced(),
            "device {} fault accounting out of balance: {:?}",
            dev.device,
            dev.faults
        );
        injected += dev.faults.injected;
        handled += dev.faults.retried + dev.faults.degraded + dev.faults.shed;
    }
    assert!(injected > 0, "the fault plan must actually inject at these rates");
    assert_eq!(faulted.faults.injected, injected, "aggregate != per-device sum");
    assert_eq!(faulted.faults.injected, handled, "fleet-wide injected != retried+degraded+shed");
    assert!(faulted.faults.balanced());
    // Latency sentinels agree with the shed count.
    assert_eq!(
        faulted.latencies.iter().filter(|&&l| l == 0.0).count(),
        faulted.shed_requests,
        "0.0 sentinels must be exactly the shed requests"
    );
    assert_eq!(
        faulted.devices.iter().map(|d| d.shed_requests).sum::<usize>(),
        faulted.shed_requests
    );

    // (3) K = 8: its pinned digest, and the same digest under thread
    // budgets {1, 13} as under 4. A homogeneous 8-device fleet shares one
    // engine, so the parallel path's barrier batch-compile dedups shared
    // (network, bucket) misses.
    let shared = black();
    let eights: Vec<&Engine> = std::iter::repeat_n(&shared, 8).collect();
    let k8 = || digest(&serve_fleet(&eights, &nets, &cfg).unwrap());
    let k8_base = k8();
    assert_eq!(pin(&format!("{k8_base:?}")), PIN_K8, "K=8 fleet digest drifted");
    for threads in [1, 13] {
        let rerun = rayon::with_max_threads(threads, k8);
        assert_eq!(k8_base, rerun, "K=8 fleet diverged under a {threads}-thread budget");
    }

    // (4) Sequential-vs-parallel byte-identity: the retained legacy loop
    // (`Oracle::Sequential`) must reproduce the parallel path's
    // *entire* report — config echo, latencies, batch records, fault
    // counters, and the metrics timeline — byte for byte (serde_json
    // prints f64s shortest-roundtrip, so equal strings == equal bits).
    // Every serve_fleet call cold-starts its plan caches, so comparing
    // serve.plan.hit/miss deltas between the two runs is exactly the
    // cold-start check: batched barrier compilation must leave the same
    // miss-then-hit discipline (and, via the report's per-network bucket
    // rollups inside the JSON, the same PlanCache contents) as compiling
    // serially on first launch.
    let before_par = memcnn::trace::perf::baseline();
    let par = serve_fleet(&eights, &nets, &cfg).unwrap();
    assert_eq!(pin(&serde_json::to_string(&par).unwrap()), PIN_K8_REPORT, "K=8 report drifted");
    let par_hits = before_par.delta_of("serve.plan.hit");
    let par_misses = before_par.delta_of("serve.plan.miss");
    assert!(
        before_par.delta_of("fleet.barrier.count") > 0,
        "the parallel path must count routing barriers"
    );
    assert!(
        before_par.delta_of("fleet.step.parallel") > 0,
        "an 8-device burst must step devices concurrently"
    );
    assert!(
        before_par.delta_of("fleet.plan.batch_compile") > 0,
        "cold buckets at a barrier must batch-compile"
    );
    let before_seq = memcnn::trace::perf::baseline();
    let seq = serve_fleet_oracle(&eights, &nets, &cfg, Oracle::Sequential).unwrap();
    assert_eq!(par_hits, before_seq.delta_of("serve.plan.hit"), "plan-cache hits diverged");
    assert_eq!(par_misses, before_seq.delta_of("serve.plan.miss"), "plan-cache misses diverged");
    assert_eq!(
        before_seq.delta_of("fleet.plan.batch_compile"),
        0,
        "the sequential loop must not batch-compile"
    );
    assert_eq!(
        serde_json::to_string(&par).unwrap(),
        serde_json::to_string(&seq).unwrap(),
        "sequential and parallel fleet reports must be byte-identical"
    );

    // (5) Route-index equivalence at K = 8 (an existing <=16-device
    // scenario): `Oracle::Linear` retains the pre-index linear
    // global-best scan and lane-walking load snapshots, and its *entire*
    // report — latencies, placements, batch records, metrics timeline —
    // must match the indexed router's byte for byte. (Debug builds also
    // cross-check every indexed selection and every placement row against
    // the scan and the walk inline.) Every placement policy runs, each
    // reading the index's rows differently; MemoryAware runs on a mixed
    // Titan Black + Titan X fleet with a network whose top bucket only
    // the Titan X can plan, so its rows' feasible caps differ. One more
    // run adds a device-fault plan (hang, crashes, drain, heals) so the
    // failover, heal and transit mark sites all feed the rows.
    let linear = |engines: &[&Engine], nets: &[Network], cfg: &FleetConfig| {
        let report = serve_fleet_oracle(engines, nets, cfg, Oracle::Linear).unwrap();
        serde_json::to_string(&report).unwrap()
    };
    let wide = NetworkBuilder::new("fleet-wide", Shape::new(1, 3, 512, 512))
        .conv("CV1", 64, 3, 1, 1)
        .build()
        .unwrap();
    let x = titan_x();
    let mixed: Vec<&Engine> = (0..8).map(|d| if d % 2 == 0 { &shared } else { &x }).collect();
    let wide_wl = WorkloadConfig {
        phases: vec![Phase { arrival: Arrival::Poisson { rate: 400.0 }, duration: 0.2 }],
        images_min: 1,
        images_max: 120,
        seed: 5,
    };
    let faults = DeviceFaultPlan::new(7, 0.0, 0.0, 0.0)
        .with_repair(0.03)
        .with_warmup(0.01)
        .hang_at(0.05, 3)
        .crash_at(0.21, 1)
        .drain_at(0.22, 2)
        .crash_at(0.25, 5);
    let runs: Vec<(&str, Vec<&Engine>, Vec<Network>, FleetConfig)> = vec![
        ("least-loaded", eights.clone(), nets.to_vec(), cfg.clone()),
        (
            "round-robin",
            eights.clone(),
            nets.to_vec(),
            FleetConfig::new(wl.clone(), BatchPolicy::new(128, 0.004), Placement::RoundRobin),
        ),
        (
            "queue-weighted",
            eights.clone(),
            nets.to_vec(),
            FleetConfig::new(wl.clone(), BatchPolicy::new(128, 0.004), Placement::QueueWeighted),
        ),
        (
            "memory-aware",
            mixed.clone(),
            vec![wide.clone(), net_a.clone()],
            FleetConfig::new(wide_wl, BatchPolicy::new(128, 0.004), Placement::MemoryAware),
        ),
        ("device faults", eights.clone(), nets.to_vec(), cfg.clone().with_device_faults(faults)),
    ];
    let caps: Vec<usize> = mixed
        .iter()
        .map(|e| feasible_max_batch(e, &wide, Mechanism::Opt, &[128, 64, 32]).unwrap().0)
        .collect();
    assert!(caps.contains(&64) && caps.contains(&128), "mixed fleet caps must differ: {caps:?}");
    let reports: Vec<FleetReport> = runs
        .iter()
        .map(|(_, engines, nets, cfg)| serve_fleet(engines, nets, cfg).unwrap())
        .collect();
    let indexed: Vec<String> = reports.iter().map(|r| serde_json::to_string(r).unwrap()).collect();
    assert_eq!(indexed[0], serde_json::to_string(&par).unwrap());
    let health = reports[4].health.as_ref().expect("the device-fault plan is live");
    assert!(
        health.downs >= 3 && health.ups > 0 && health.requeued > 0,
        "the fault run must crash, heal and requeue: {health:?}"
    );
    for ((name, engines, nets, cfg), idx) in runs.iter().zip(&indexed) {
        assert_eq!(
            *idx,
            linear(engines, nets, cfg),
            "{name}: linear-scan and indexed-router fleet reports must be byte-identical"
        );
    }

    // (6) K = 64 digest matrix: the pinned digest, thread budgets
    // {1, 13} besides 4, the sequential oracle, and the linear router
    // must all reproduce the same digest — the index maintains 64
    // tentative-launch keys incrementally without perturbing a single
    // selection.
    let sixty_four: Vec<&Engine> = std::iter::repeat_n(&shared, 64).collect();
    let before_k64 = memcnn::trace::perf::baseline();
    let k64 = || digest(&serve_fleet(&sixty_four, &nets, &cfg).unwrap());
    let k64_base = k64();
    assert_eq!(pin(&format!("{k64_base:?}")), PIN_K64, "K=64 fleet digest drifted");
    // Complexity guard: a route recomputes only the placement rows of
    // devices marked since the previous route, not all K (the pre-row
    // router rebuilt 64 per arrival).
    let routes = before_k64.delta_of("fleet.route.count");
    let rows = before_k64.delta_of("fleet.route.rows");
    assert!(routes > 0);
    assert!(
        rows < routes * 64 / 4,
        "K=64 recomputed {rows} placement rows over {routes} routes (want < K/4 per route)"
    );
    for threads in [1, 13] {
        let rerun = rayon::with_max_threads(threads, k64);
        assert_eq!(k64_base, rerun, "K=64 fleet diverged under a {threads}-thread budget");
    }
    let k64_oracle =
        |oracle| digest(&serve_fleet_oracle(&sixty_four, &nets, &cfg, oracle).unwrap());
    assert_eq!(
        k64_base,
        k64_oracle(Oracle::Sequential),
        "K=64 sequential oracle diverged from the parallel path"
    );
    assert_eq!(
        k64_base,
        k64_oracle(Oracle::Linear),
        "K=64 linear scan diverged from the indexed router"
    );
}
