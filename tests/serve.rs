//! Serving-subsystem integration tests: bit-identical determinism of the
//! dynamic batcher, and the paper's batch-size-dependent layout decisions
//! surfacing across serving buckets.
//!
//! Like `sim_cache.rs`, these assertions read process-global state (the
//! perf-counter registry), so everything lives in ONE `#[test]` — a
//! second test in this binary would race the counters on the harness's
//! concurrent threads.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, FaultPlan};
use memcnn::serve::{
    serve, Arrival, BatchPolicy, FaultPolicy, Phase, ServeConfig, ServeReport, TenantSpec,
    WorkloadConfig,
};
use memcnn::tensor::{Layout, Shape};
use memcnn::trace::perf;

/// Digest of everything the ISSUE requires to be reproducible: the full
/// latency vector (bit-for-bit), every batch's bucket decision, and every
/// bucket's compiled conv-layout signature.
fn digest(report: &ServeReport) -> (Vec<u64>, Vec<(usize, usize)>, Vec<String>) {
    (
        report.latencies.iter().map(|l| l.to_bits()).collect(),
        report.batches.iter().map(|b| (b.bucket, b.images)).collect(),
        report.buckets.iter().map(|b| format!("{}:{}", b.bucket, b.conv_layouts)).collect(),
    )
}

/// 64-bit FNV-1a: a stable, dependency-free fingerprint of report bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Per-component fingerprints of a report, everything except the metrics
/// timeline: latencies (bits), batch records, bucket rollups, fault
/// stats, shed count, makespan (bits), and the SLO section.
fn pin(r: &ServeReport) -> [String; 7] {
    let lat: Vec<u8> = r.latencies.iter().flat_map(|l| l.to_bits().to_le_bytes()).collect();
    [
        fnv1a(&lat),
        fnv1a(serde_json::to_string(&r.batches).unwrap().as_bytes()),
        fnv1a(serde_json::to_string(&r.buckets).unwrap().as_bytes()),
        fnv1a(serde_json::to_string(&r.faults).unwrap().as_bytes()),
        fnv1a(&r.shed_requests.to_le_bytes()),
        fnv1a(&r.makespan.to_bits().to_le_bytes()),
        fnv1a(serde_json::to_string(&r.slo).unwrap().as_bytes()),
    ]
    .map(|h| format!("{h:016x}"))
}

/// `pin` digests of the seven reference configs below, recorded from the
/// dedicated single-device and tenant event loops `serve()` ran before it
/// became a one-device view of the fleet loop. They must never change:
/// they are the proof that the projection serves exactly what those
/// loops served. Two entries differ on purpose: `tenants+faults+shed`
/// and `plan-oom+tenants+faults` were recorded from the old tenant loop
/// with fairness credits settled only over lanes holding *arrived* work.
/// The old loop also credited lanes whose requests had not arrived yet,
/// which flipped exact-tie lane arbitration on those two configs; the
/// fleet loop only ever holds routed (arrived) requests.
const PINNED: [(&str, [&str; 7]); 7] = [
    (
        "clean",
        [
            "b24520f32cc63061",
            "4780064eb8dcf21d",
            "9c07459678aac995",
            "87c3ce795896ba78",
            "a8c7f832281a39c5",
            "5622d8f0325b62d3",
            "5b9bc4ba528108e4",
        ],
    ),
    (
        "faults+shed250ms",
        [
            "0f9bbae80c0112b2",
            "f603fbe22315e208",
            "e3b5b7a5da21c4c0",
            "faad480a44f267f8",
            "f71115b38f042bf7",
            "6aeccc1c6954bb38",
            "5b9bc4ba528108e4",
        ],
    ),
    (
        "faults+shed2ms",
        [
            "afb2e100e0304551",
            "e41f0e610dc0eb76",
            "ae96daf14b5a067c",
            "af546e5e0c5d27df",
            "9ef1d8a4e86d190e",
            "e162cbbd7a0e2fa8",
            "5b9bc4ba528108e4",
        ],
    ),
    (
        "tenants+ratelimit",
        [
            "9295ec8338860524",
            "6899695836d925e1",
            "4d28ed43c6eda62b",
            "87c3ce795896ba78",
            "a8c7f832281a39c5",
            "f727b263fa62f0fe",
            "64d4f1515519f4cf",
        ],
    ),
    (
        "tenants+faults+shed",
        [
            "06b104de34961c53",
            "99736202072079e7",
            "5dcf7cebd917a588",
            "0117d91a8d535674",
            "368fb235b7672496",
            "652392af7e1fce9b",
            "d8468036ddc4d1dc",
        ],
    ),
    (
        "plan-oom",
        [
            "449f150295179d8c",
            "232c252ad6fb000a",
            "1131522770ad496a",
            "87c3ce795896ba78",
            "a8c7f832281a39c5",
            "4b5f762c81deb0b8",
            "5b9bc4ba528108e4",
        ],
    ),
    (
        "plan-oom+tenants+faults",
        [
            "c840883ce026723d",
            "49bb7d99dfbacd38",
            "d89cf0b9fc400442",
            "dd6695d71840c438",
            "89cd31291d2aefa4",
            "d21ffc408c7d67df",
            "fabedeee2b3bfad9",
        ],
    ),
];

#[test]
fn serving_is_deterministic_and_plans_flip_layouts_across_buckets() {
    // A conv layer with C=64 sits exactly in the heuristic's batch-
    // sensitive band on Titan Black (Ct=32, Nt=128): C >= Ct, so the
    // layout is CHWN iff N >= 128. Small spatial dims keep planning cheap
    // even at N=256.
    let net = NetworkBuilder::new("serve-it", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let engine = || {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
            .with_layout_policy(LayoutPolicy::Heuristic)
    };

    // A two-phase workload — a quiet spell, then a burst — so one run
    // naturally produces both part-full and full batches.
    let cfg = ServeConfig {
        workload: WorkloadConfig {
            phases: vec![
                Phase { arrival: Arrival::Poisson { rate: 50.0 }, duration: 0.3 },
                Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.3 },
            ],
            images_min: 1,
            images_max: 8,
            seed: 1234,
        },
        policy: BatchPolicy::new(256, 0.004),
        mechanism: Mechanism::Opt,
        faults: None,
        fault_policy: FaultPolicy::default(),
        tenants: Vec::new(),
    };

    // (1) Determinism across runs and thread budgets {1, 4, 13}: the
    // report — latency histogram, bucket decisions, compiled plans — must
    // be bit-identical however the planner's probe fan-out is
    // parallelized.
    let served = |threads| {
        rayon::with_max_threads(threads, || digest(&serve(&engine(), &net, &cfg).unwrap()))
    };
    let base = served(1);
    for threads in [4, 13] {
        assert_eq!(base, served(threads), "serving diverged under a {threads}-thread budget");
    }
    // And a different seed actually changes the stream (the determinism
    // above is not vacuous).
    let mut other = cfg.clone();
    other.workload.seed = 4321;
    assert_ne!(base.0, digest(&serve(&engine(), &net, &other).unwrap()).0);

    // (2) The layout flip: the quiet phase forms small batches (N < 128
    // buckets planning NCHW), the burst fills 128/256-image buckets
    // (planning CHWN), per the heuristic. Both kinds must appear in ONE
    // run's plan cache, with the flip at exactly Nt.
    let report = serve(&engine(), &net, &cfg).unwrap();
    let mut small = 0;
    let mut large = 0;
    for b in &report.buckets {
        let expect = if b.bucket >= 128 { Layout::CHWN } else { Layout::NCHW };
        assert_eq!(
            b.conv_layouts,
            expect.name(),
            "bucket {} planned the wrong conv layout",
            b.bucket
        );
        if b.bucket >= 128 {
            large += b.batches;
        } else {
            small += b.batches;
        }
    }
    assert!(small > 0, "workload never exercised a small (NCHW) bucket");
    assert!(large > 0, "workload never exercised a large (CHWN) bucket");
    assert!(report.distinct_conv_signatures() >= 2);

    // (3) Plan-cache discipline: the layout DP ran once per distinct
    // bucket, and every repeated bucket was served from the cache.
    let compiles0 = perf::get("engine.plan.compile");
    let (hits0, misses0) = (perf::get("serve.plan.hit"), perf::get("serve.plan.miss"));
    let report = serve(&engine(), &net, &cfg).unwrap();
    let compiled = perf::get("engine.plan.compile") - compiles0;
    let hits = perf::get("serve.plan.hit") - hits0;
    let misses = perf::get("serve.plan.miss") - misses0;
    assert_eq!(compiled, report.buckets.len() as u64, "one layout-DP compile per bucket");
    assert_eq!(misses, compiled, "every miss compiles exactly once");
    assert_eq!(hits + misses, report.batches.len() as u64, "every batch consults the plan cache");
    assert!(hits > 0, "repeat buckets must hit the plan cache");

    // (4) Pinned reports: clean, kernel faults under a loose and a tight
    // shed deadline, three tenants with a rate-limited best-effort lane,
    // tenants with faults and shedding, and plan-time OOM alone and with
    // tenants and faults. Each report must match its recorded digests.
    let faults = FaultPlan::new(21, 0.1, 0.05, 0.1);
    let shedding = |deadline| FaultPolicy {
        max_retries: 2,
        shed_deadline: Some(deadline),
        ..FaultPolicy::default()
    };
    let tenants = vec![
        TenantSpec::interactive("chat", 0.01, 2.0),
        TenantSpec::standard("search", 1.0),
        TenantSpec::best_effort("offline", 1.0).with_rate_limit(300.0),
    ];
    // A layer whose 1024-image plan cannot fit a Titan Black: the batch
    // cap halves at plan time until a bucket compiles.
    let big = NetworkBuilder::new("serve-oom", Shape::new(1, 256, 96, 96))
        .conv("CV1", 256, 3, 1, 1)
        .build()
        .unwrap();
    let oom = ServeConfig::new(
        WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Poisson { rate: 20_000.0 }, duration: 0.05 }],
            images_min: 4,
            images_max: 16,
            seed: 9,
        },
        BatchPolicy::new(1024, 0.004),
    );
    let cases: [(&str, &Network, ServeConfig); 7] = [
        ("clean", &net, cfg.clone()),
        ("faults+shed250ms", &net, cfg.clone().with_faults(faults, shedding(0.25))),
        ("faults+shed2ms", &net, cfg.clone().with_faults(faults, shedding(0.002))),
        ("tenants+ratelimit", &net, cfg.clone().with_tenants(tenants.clone())),
        (
            "tenants+faults+shed",
            &net,
            cfg.clone().with_tenants(tenants.clone()).with_faults(faults, shedding(0.002)),
        ),
        ("plan-oom", &big, oom.clone()),
        (
            "plan-oom+tenants+faults",
            &big,
            oom.with_tenants(tenants).with_faults(faults, FaultPolicy::default()),
        ),
    ];
    for ((name, net, cfg), (pinned_name, want)) in cases.iter().zip(&PINNED) {
        assert_eq!(name, pinned_name);
        let got = pin(&serve(&engine(), net, cfg).unwrap());
        assert_eq!(got.each_ref().map(String::as_str), *want, "{name}: serve() report drifted");
    }
}
