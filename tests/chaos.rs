//! Chaos-suite integration tests: deterministic replay of injected fault
//! timelines, the zero-fault no-op guarantee, typed retry exhaustion, the
//! counter-discipline invariant, and a fault-rate ladder on the AlexNet
//! reference stream.
//!
//! Every assertion reads the runs' own reports; the perf-registry deltas
//! that mirror the fault accounting are checked in `perf_mirror.rs`.

use memcnn::core::{with_retries, Engine, EngineError, LayoutThresholds, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, Fault, FaultPlan};
use memcnn::serve::{
    serve_fleet, Arrival, BatchPolicy, FaultPolicy, FleetConfig, FleetReport, Phase, Placement,
    WorkloadConfig,
};
use memcnn::tensor::Shape;
use memcnn_bench::scenario;

/// A one-device fleet: the single-device server.
fn serve_one(engine: &Engine, net: &Network, cfg: &FleetConfig) -> FleetReport {
    serve_fleet(&[engine], std::slice::from_ref(net), cfg).unwrap()
}

/// Everything a chaos run must reproduce bit-for-bit: the full latency
/// vector, every batch's (bucket, images, attempts, throttled) tuple, the
/// shed count, and the complete fault accounting.
#[allow(clippy::type_complexity)]
fn digest(r: &FleetReport) -> (Vec<u64>, Vec<(usize, usize, u32, u32)>, usize, String) {
    (
        r.latencies.iter().map(|l| l.to_bits()).collect(),
        r.devices[0]
            .batches
            .iter()
            .map(|b| (b.record.bucket, b.record.images, b.record.attempts, b.record.throttled))
            .collect(),
        r.shed_requests,
        format!("{:?}", r.faults),
    )
}

#[test]
fn fault_timelines_replay_bit_identically_and_every_fault_is_accounted() {
    let net = NetworkBuilder::new("chaos-it", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let engine = || Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
    let workload = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 50.0 }, duration: 0.3 },
            Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.3 },
        ],
        images_min: 1,
        images_max: 8,
        seed: 1234,
    };
    let clean_cfg = FleetConfig::new(workload, BatchPolicy::new(256, 0.004), Placement::RoundRobin);
    // A plan hot enough to exercise every ladder rung: retries, OOM
    // downshifts, throttles, and (at burst depth) shedding.
    let faulty_cfg = FleetConfig {
        faults: Some(FaultPlan::new(42, 0.05, 0.01, 0.02)),
        fault_policy: FaultPolicy {
            max_retries: 2,
            shed_deadline: Some(0.25),
            recovery_batches: 3,
            ..FaultPolicy::default()
        },
        ..clean_cfg.clone()
    };

    // (1) Bit-identical fault timelines under thread budgets {1, 4, 13}:
    // the fault stream keys on (launch key, launch index), never on
    // worker scheduling.
    let faulty = |threads| {
        rayon::with_max_threads(threads, || digest(&serve_one(&engine(), &net, &faulty_cfg)))
    };
    let base = faulty(1);
    for threads in [4, 13] {
        assert_eq!(
            base,
            faulty(threads),
            "fault timeline diverged under a {threads}-thread budget"
        );
    }
    // The injected run really did inject (the determinism is not vacuous)
    // and survived without a panic or terminal error.
    let faulted = serve_one(&engine(), &net, &faulty_cfg);
    assert!(faulted.faults.injected > 0, "fault plan never fired");
    assert!(faulted.faults.retried > 0, "no transient was retried");
    // A different fault seed changes the timeline.
    let mut reseeded = faulty_cfg.clone();
    reseeded.faults = Some(FaultPlan::new(43, 0.05, 0.01, 0.02));
    assert_ne!(base, digest(&serve_one(&engine(), &net, &reseeded)));

    // (2) Counter discipline: the report balances. (That the global perf
    // mirror agrees with it is checked in `perf_mirror.rs`, a binary of
    // one test, so no other test can bump the counters mid-read.)
    assert!(
        faulted.faults.balanced(),
        "injected != retried + degraded + shed: {:?}",
        faulted.faults
    );

    // (3) A zero-rate FaultPlan is a byte-identical no-op against no plan
    // at all: the fault path must not even perturb float evaluation order.
    let clean = digest(&serve_one(&engine(), &net, &clean_cfg));
    let mut quiet_cfg = clean_cfg.clone();
    quiet_cfg.faults = Some(FaultPlan::quiet(42));
    let quiet = digest(&serve_one(&engine(), &net, &quiet_cfg));
    assert_eq!(clean, quiet, "zero-fault plan perturbed the run");
    let clean_report = serve_one(&engine(), &net, &clean_cfg);
    assert_eq!(clean_report.faults.injected, 0);
    assert_eq!(clean_report.shed_requests, 0);

    // (4) Retry exhaustion surfaces a typed error, never a panic: both at
    // the `with_retries` combinator...
    let exhausted = with_retries(2, |attempt| -> Result<(), EngineError> {
        Err(EngineError::Transient {
            layer: "CV1".to_string(),
            launch: attempt as u64,
            fault: Fault::LaunchFailed,
        })
    })
    .unwrap_err();
    match exhausted {
        EngineError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(matches!(*last, EngineError::Transient { .. }));
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // ...and through the server: with every launch failing, every request
    // is shed, the run still returns Ok, and the accounting still balances.
    let mut doomed_cfg = faulty_cfg.clone();
    doomed_cfg.faults = Some(FaultPlan::new(7, 1.0, 0.0, 0.0));
    let doomed = serve_one(&engine(), &net, &doomed_cfg);
    assert_eq!(doomed.shed_requests, doomed.requests);
    assert!(doomed.devices[0].batches.is_empty());
    assert!(doomed.faults.balanced());
    assert_eq!(doomed.latency().count, 0);

    // (5) A fault-rate ladder on the AlexNet reference stream: the
    // `fleet-ll-k1` spec (70% load, seed 42) at 240 requests, under 0, 1,
    // 5 and 10% transient launch failures with OOM at a fifth of each.
    // The fault-free point injects and sheds nothing, every point
    // balances, and no fault rate makes the tail faster than fault-free.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/fleet-ll-k1.toml");
    let mut spec = scenario::parse_spec(&std::fs::read_to_string(path).unwrap()).unwrap();
    spec.requests_per_device = 240;
    let fleet = scenario::fleet(&spec).unwrap();
    let top = fleet.top_service;
    let reference = FleetConfig {
        fault_policy: FaultPolicy {
            max_retries: 3,
            backoff_base: (0.05 * top).max(1e-5),
            shed_deadline: Some(20.0 * top),
            recovery_batches: 4,
        },
        ..FleetConfig::new(fleet.cfg.workload.clone(), fleet.cfg.policy, Placement::RoundRobin)
    };
    let alexnet = &fleet.nets[0];
    let mut clean_p99 = None;
    for transient in [0.0, 0.01, 0.05, 0.10] {
        let mut cfg = reference.clone();
        if transient > 0.0 {
            cfg.faults = Some(FaultPlan::new(42, transient, transient / 5.0, 0.0));
        }
        let point = serve_one(&engine(), alexnet, &cfg);
        assert!(point.faults.balanced(), "unbalanced at {transient}: {:?}", point.faults);
        let p99 = point.latency().p99;
        match clean_p99 {
            None => {
                assert_eq!((point.faults.injected, point.shed_requests), (0, 0));
                clean_p99 = Some(p99);
            }
            Some(clean) => assert!(p99 >= clean - 1e-9, "p99 {p99} < fault-free {clean}"),
        }
    }
}
