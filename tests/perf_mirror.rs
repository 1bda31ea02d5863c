//! The process-wide `perf` registry as a mirror of the runs' own counts.
//!
//! Every assertion here reads a *delta* of a process-global counter
//! around one run, so this binary holds exactly ONE `#[test]` and no
//! other test can bump the same counters between the two reads. The
//! checks came from `serve.rs` (plan-cache discipline), `chaos.rs`
//! (fault accounting) and `trace_merge.rs` (probe fan-out), whose other
//! assertions read only their runs' reports and traces. They also check
//! that the counters' cached handles (`perf::CachedCounter`) still count
//! what the plan caches, the fault ladder and the engine do.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::{DeviceConfig, FaultPlan, SimOptions};
use memcnn::serve::{
    serve_fleet, Arrival, BatchPolicy, FaultPolicy, FleetConfig, FleetReport, Phase, Placement,
    WorkloadConfig,
};
use memcnn::tensor::Shape;
use memcnn::trace::{self, perf};
use memcnn_bench::util::Ctx;

/// A one-device fleet: the single-device server.
fn serve_one(engine: &Engine, net: &Network, cfg: &FleetConfig) -> FleetReport {
    serve_fleet(&[engine], std::slice::from_ref(net), cfg).unwrap()
}

/// The quiet-then-burst stream `serve.rs` and `chaos.rs` serve.
fn two_phase(policy: BatchPolicy) -> FleetConfig {
    let workload = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 50.0 }, duration: 0.3 },
            Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.3 },
        ],
        images_min: 1,
        images_max: 8,
        seed: 1234,
    };
    FleetConfig::new(workload, policy, Placement::RoundRobin)
}

#[test]
fn perf_counters_mirror_each_runs_own_counts() {
    plan_cache_discipline();
    fault_accounting();
    rayon::with_max_threads(4, probe_fanout);
}

/// From `serve.rs` (3): the layout DP ran once per distinct bucket, and
/// every repeated bucket was served from the cache.
fn plan_cache_discipline() {
    let net = NetworkBuilder::new("serve-it", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let engine = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic);
    let cfg = two_phase(BatchPolicy::new(256, 0.004));
    let compiles0 = perf::get("engine.plan.compile");
    let (hits0, misses0) = (perf::get("serve.plan.hit"), perf::get("serve.plan.miss"));
    let report = serve_one(&engine, &net, &cfg);
    let compiled = perf::get("engine.plan.compile") - compiles0;
    let hits = perf::get("serve.plan.hit") - hits0;
    let misses = perf::get("serve.plan.miss") - misses0;
    let buckets = report.devices[0].networks.first().map_or(0, |n| n.buckets.len());
    let batches = report.devices[0].batches.len();
    assert_eq!(compiled, buckets as u64, "one layout-DP compile per bucket");
    assert_eq!(misses, compiled, "every miss compiles exactly once");
    assert_eq!(hits + misses, batches as u64, "every batch consults the plan cache");
    assert!(hits > 0, "repeat buckets must hit the plan cache");
}

/// From `chaos.rs` (2): the global perf mirror agrees with the report's
/// fault accounting exactly.
fn fault_accounting() {
    let net = NetworkBuilder::new("chaos-it", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let engine = Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
    let faulty_cfg = FleetConfig {
        faults: Some(FaultPlan::new(42, 0.05, 0.01, 0.02)),
        fault_policy: FaultPolicy {
            max_retries: 2,
            shed_deadline: Some(0.25),
            recovery_batches: 3,
            ..FaultPolicy::default()
        },
        ..two_phase(BatchPolicy::new(256, 0.004))
    };
    let before = (
        perf::get("fault.injected"),
        perf::get("fault.retried"),
        perf::get("fault.degraded"),
        perf::get("fault.shed"),
        perf::get("serve.shed"),
    );
    let again = serve_one(&engine, &net, &faulty_cfg);
    assert!(again.faults.injected > 0, "fault plan never fired");
    assert_eq!(perf::get("fault.injected") - before.0, again.faults.injected);
    assert_eq!(perf::get("fault.retried") - before.1, again.faults.retried);
    assert_eq!(perf::get("fault.degraded") - before.2, again.faults.degraded);
    assert_eq!(perf::get("fault.shed") - before.3, again.faults.shed);
    assert_eq!(perf::get("serve.shed") - before.4, again.shed_requests as u64);
}

/// From `trace_merge.rs`: a traced run still fans its probes out, and a
/// cold (cache-off) run never does.
fn probe_fanout() {
    let net = memcnn::models::cifar10().unwrap();
    let fanout_before = perf::get("engine.probe.fanout");
    let ctx = Ctx::titan_black();
    trace::start();
    ctx.engine.simulate_network(&net, Mechanism::Opt).unwrap();
    trace::finish().unwrap();
    let fanned = perf::get("engine.probe.fanout") - fanout_before;
    assert!(fanned > 0, "tracing must no longer disable the probe fan-out");

    let seq_engine = Ctx::titan_black()
        .engine
        .with_sim_options(SimOptions { use_cache: false, ..SimOptions::default() });
    let fanout_before = perf::get("engine.probe.fanout");
    trace::start();
    seq_engine.simulate_network(&net, Mechanism::Opt).unwrap();
    trace::finish().unwrap();
    assert_eq!(perf::get("engine.probe.fanout"), fanout_before, "baseline must not fan out");
}
