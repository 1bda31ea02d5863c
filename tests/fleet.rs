//! Fleet-serving integration tests: bit-identical determinism across
//! thread counts, exact K = 1 equivalence with the single-device server,
//! balanced per-device and aggregate fault accounting, and load-aware
//! placement actually spreading a heterogeneous fleet.
//!
//! Like `tests/serve.rs`, this binary reads process-global state (the
//! perf registry and the once-locked `MEMCNN_THREADS`), so everything
//! lives in ONE `#[test]`. The env var is set to 4 FIRST — before any
//! engine call — so the fleet's plan compiles exercise the parallel
//! probe fan-out (and its per-worker trace merge path) rather than the
//! single-threaded fallback.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, DeviceFaultPlan, FaultPlan};
use memcnn::serve::{
    feasible_max_batch, serve, serve_fleet, Arrival, BatchPolicy, FaultPolicy, FleetConfig,
    FleetReport, Phase, Placement, ServeConfig, WorkloadConfig,
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
    // Must precede every engine call in this process: the thread count
    // is read once and cached, so this binary runs its fan-outs at 4.
    std::env::set_var("MEMCNN_THREADS", "4");

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

    // (1) Heterogeneous 2-device, 2-network fleet is bit-deterministic
    // across runs; re-setting MEMCNN_THREADS is nominal after the first
    // read, so these reruns double as same-process replay checks.
    let base = digest(&serve_fleet(&[&black(), &titan_x()], &nets, &cfg).unwrap());
    for threads in ["1", "13"] {
        std::env::set_var("MEMCNN_THREADS", threads);
        let rerun = digest(&serve_fleet(&[&black(), &titan_x()], &nets, &cfg).unwrap());
        assert_eq!(base, rerun, "fleet diverged after re-setting MEMCNN_THREADS={threads}");
    }
    let hetero = serve_fleet(&[&black(), &titan_x()], &nets, &cfg).unwrap();
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

    // (2) K = 1, one network: the fleet IS the single-device server,
    // field for field, bit for bit.
    let policy = BatchPolicy::new(128, 0.004);
    let scfg = ServeConfig::new(wl.clone(), policy);
    let fcfg = FleetConfig::new(wl.clone(), policy, Placement::RoundRobin);
    let s = serve(&black(), &net_a, &scfg).unwrap();
    let f = serve_fleet(&[&black()], std::slice::from_ref(&net_a), &fcfg).unwrap();
    assert_eq!(s.requests, f.requests);
    assert_eq!(s.shed_requests, f.shed_requests);
    assert_eq!(s.makespan.to_bits(), f.makespan.to_bits());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&s.latencies), bits(&f.latencies), "K=1 latencies diverged from serve()");
    let dev = &f.devices[0];
    assert_eq!(s.batches.len(), dev.batches.len());
    for (a, b) in s.batches.iter().zip(&dev.batches) {
        assert_eq!(a.launch.to_bits(), b.record.launch.to_bits());
        assert_eq!(a.done.to_bits(), b.record.done.to_bits());
        assert_eq!(a.requests, b.record.requests);
        assert_eq!(a.images, b.record.images);
        assert_eq!(a.bucket, b.record.bucket);
        assert_eq!(a.queue_depth, b.record.queue_depth);
        assert_eq!(a.attempts, b.record.attempts);
        assert_eq!(a.throttled, b.record.throttled);
        assert_eq!(b.network, 0);
    }
    assert_eq!(dev.networks.len(), 1);
    assert_eq!(s.buckets.len(), dev.networks[0].buckets.len());
    for (a, b) in s.buckets.iter().zip(&dev.networks[0].buckets) {
        assert_eq!(a.bucket, b.bucket);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.images, b.images);
        assert_eq!(a.fill.to_bits(), b.fill.to_bits());
        assert_eq!(a.conv_layouts, b.conv_layouts);
        assert_eq!(a.transforms, b.transforms);
        assert_eq!(a.service_time.to_bits(), b.service_time.to_bits());
    }
    assert_eq!(s.faults, f.faults);
    assert_eq!(s.images, f.images());

    // (3) Injected faults: accounting balances per device AND in the
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

    // (4) K = 8 digest equality across MEMCNN_THREADS re-sets {1, 4, 13}
    // (nominal after the once-locked first read — the real cross-process
    // thread matrix lives in the fleet bench and CI). A homogeneous
    // 8-device fleet shares one engine, so the parallel path's barrier
    // batch-compile dedups shared (network, bucket) misses.
    std::env::set_var("MEMCNN_THREADS", "4");
    let shared = black();
    let eights: Vec<&Engine> = std::iter::repeat_n(&shared, 8).collect();
    let k8_base = digest(&serve_fleet(&eights, &nets, &cfg).unwrap());
    for threads in ["1", "13", "4"] {
        std::env::set_var("MEMCNN_THREADS", threads);
        let rerun = digest(&serve_fleet(&eights, &nets, &cfg).unwrap());
        assert_eq!(k8_base, rerun, "K=8 fleet diverged after re-setting MEMCNN_THREADS={threads}");
    }

    // (5) Sequential-vs-parallel byte-identity: the retained legacy loop
    // (MEMCNN_FLEET_SEQUENTIAL=1) must reproduce the parallel path's
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
    std::env::set_var("MEMCNN_FLEET_SEQUENTIAL", "1");
    let before_seq = memcnn::trace::perf::baseline();
    let seq = serve_fleet(&eights, &nets, &cfg).unwrap();
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

    // (6) A malformed knob value warns (once, on stderr) and falls back
    // to the parallel path — same digest, no crash.
    std::env::set_var("MEMCNN_FLEET_SEQUENTIAL", "definitely");
    let fallback = serve_fleet(&eights, &nets, &cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&par).unwrap(),
        serde_json::to_string(&fallback).unwrap(),
        "malformed MEMCNN_FLEET_SEQUENTIAL must fall back to the (identical) parallel path"
    );
    std::env::remove_var("MEMCNN_FLEET_SEQUENTIAL");

    // (7) Route-index equivalence at K = 8 (an existing <=16-device
    // scenario): MEMCNN_FLEET_LINEAR=1 retains the pre-index linear
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
    let json = |engines: &[&Engine], nets: &[Network], cfg: &FleetConfig| {
        serde_json::to_string(&serve_fleet(engines, nets, cfg).unwrap()).unwrap()
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
    std::env::set_var("MEMCNN_FLEET_LINEAR", "1");
    for ((name, engines, nets, cfg), idx) in runs.iter().zip(&indexed) {
        assert_eq!(
            *idx,
            json(engines, nets, cfg),
            "{name}: linear-scan and indexed-router fleet reports must be byte-identical"
        );
    }
    // Malformed values warn once and keep the indexed router.
    std::env::set_var("MEMCNN_FLEET_LINEAR", "sorta");
    let lin_fallback = serve_fleet(&eights, &nets, &cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&par).unwrap(),
        serde_json::to_string(&lin_fallback).unwrap(),
        "malformed MEMCNN_FLEET_LINEAR must fall back to the (identical) indexed router"
    );
    std::env::remove_var("MEMCNN_FLEET_LINEAR");

    // (8) K = 64 digest matrix: thread re-sets {1, 13, 4}, the
    // sequential oracle, and the linear router must all reproduce the
    // same digest — the index maintains 64 tentative-launch keys
    // incrementally without perturbing a single selection.
    std::env::set_var("MEMCNN_THREADS", "4");
    let sixty_four: Vec<&Engine> = std::iter::repeat_n(&shared, 64).collect();
    let before_k64 = memcnn::trace::perf::baseline();
    let k64_base = digest(&serve_fleet(&sixty_four, &nets, &cfg).unwrap());
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
    for threads in ["1", "13", "4"] {
        std::env::set_var("MEMCNN_THREADS", threads);
        let rerun = digest(&serve_fleet(&sixty_four, &nets, &cfg).unwrap());
        assert_eq!(
            k64_base, rerun,
            "K=64 fleet diverged after re-setting MEMCNN_THREADS={threads}"
        );
    }
    std::env::set_var("MEMCNN_FLEET_SEQUENTIAL", "1");
    let k64_seq = digest(&serve_fleet(&sixty_four, &nets, &cfg).unwrap());
    assert_eq!(k64_base, k64_seq, "K=64 sequential oracle diverged from the parallel path");
    std::env::remove_var("MEMCNN_FLEET_SEQUENTIAL");
    std::env::set_var("MEMCNN_FLEET_LINEAR", "1");
    let k64_lin = digest(&serve_fleet(&sixty_four, &nets, &cfg).unwrap());
    assert_eq!(k64_base, k64_lin, "K=64 linear scan diverged from the indexed router");
    std::env::remove_var("MEMCNN_FLEET_LINEAR");
}
