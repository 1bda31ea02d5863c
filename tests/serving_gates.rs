//! Serving gates on the simulated clock, built from the committed
//! scenario specs: fleet scaling, deadline-aware scheduling against
//! class-blind, and crash recovery. Every number here is a pure function
//! of the spec, so each gate is a plain assertion; the cross-process
//! thread and oracle replays of the same specs, and the host-time gates,
//! live in the scenario harness (`cargo run -p memcnn-bench --release
//! --bin scenario`).
//!
//! Each gate builds its runs with `scenario::fleet` from a spec read off
//! disk and overrides one field in code: the device count, the network,
//! or (for the class-blind run) the tenants. Every run must also return
//! `Ok`: request balance and failover conservation are typed
//! `EngineError::Fatal` errors inside the fleet loop.

use memcnn::serve::{generate, latency_stats, tenant_tags, FleetReport};
use memcnn_bench::scenario::{self, ScenarioSpec};

fn spec(name: &str) -> ScenarioSpec {
    let path = format!("{}/scenarios/{name}.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    scenario::parse_spec(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn serve(spec: &ScenarioSpec) -> FleetReport {
    let fleet = scenario::fleet(spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    fleet.serve(None).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

/// Throughput of `network` on four least-loaded devices over one, at the
/// same per-device load (`fleet-ll-k1` with its devices and network
/// overridden).
fn four_device_scaling(network: &str) -> f64 {
    let mut spec = spec("fleet-ll-k1");
    spec.networks = vec![network.to_string()];
    let one = serve(&spec).throughput_images_per_sec();
    spec.devices = vec![spec.devices[0].clone(); 4];
    let four = serve(&spec).throughput_images_per_sec();
    let ratio = four / one;
    eprintln!("{network}: 4-device least-loaded = {ratio:.3}x one device");
    ratio
}

#[test]
fn four_least_loaded_devices_serve_3x_one_alexnet() {
    assert!(four_device_scaling("alexnet") >= 3.0);
}

#[test]
fn four_least_loaded_devices_serve_3x_one_vgg16() {
    assert!(four_device_scaling("vgg16") >= 3.0);
}

/// Deadline-aware against class-blind on `slo-deadline`: the blind run
/// is the same spec with its tenants cleared. Tenant tags are a pure
/// function of (seed, request id), so the blind run's per-class numbers
/// are recovered post hoc over the identical stream and every per-class
/// delta is scheduling alone.
#[test]
fn deadline_aware_scheduling_cuts_the_interactive_tail_without_starving_bulk() {
    let aware_spec = spec("slo-deadline");
    let tenants = aware_spec.tenants.clone();
    assert_eq!(
        tenants.iter().map(|t| t.class.name()).collect::<Vec<_>>(),
        ["interactive", "standard", "best-effort"],
        "tenants attribute in name order, which must be class order"
    );
    let aware = serve(&aware_spec);
    let mut blind_spec = aware_spec.clone();
    blind_spec.tenants.clear();
    let blind = serve(&blind_spec);

    let workload = scenario::fleet(&blind_spec).unwrap().cfg.workload;
    let requests = generate(&workload);
    let tags = tenant_tags(workload.seed, requests.len(), &tenants);
    let (interactive, bulk) = (0, tenants.len() - 1);
    // Served latencies of one class in the blind run (0 marks a shed).
    let blind_latencies = |class: usize| -> Vec<f64> {
        (0..requests.len())
            .filter(|&i| tags[i] as usize == class && blind.latencies[i] > 0.0)
            .map(|i| blind.latencies[i])
            .collect()
    };
    let blind_bulk_images: usize = (0..requests.len())
        .filter(|&i| tags[i] as usize == bulk && blind.latencies[i] > 0.0)
        .map(|i| requests[i].images)
        .sum();

    let slo = aware.slo.as_ref().expect("a tenant-enabled run carries an SLO report");
    let p99_ratio =
        slo.tenants[interactive].latency.p99 / latency_stats(&blind_latencies(interactive)).p99;
    let aware_bulk = slo.tenants[bulk].images as f64 / aware.makespan;
    let bulk_ratio = aware_bulk / (blind_bulk_images as f64 / blind.makespan);
    eprintln!("interactive p99 aware/blind = {p99_ratio:.4}");
    eprintln!("best-effort images/s aware/blind = {bulk_ratio:.4}");
    assert!(p99_ratio <= 0.75, "interactive p99 ratio {p99_ratio}");
    assert!(bulk_ratio >= 0.6, "best-effort throughput ratio {bulk_ratio}");
}

/// Images/s the fleet completed inside `[from, to)`, from the batch
/// records.
fn window_images_per_sec(report: &FleetReport, from: f64, to: f64) -> f64 {
    let images: usize = report
        .devices
        .iter()
        .flat_map(|d| &d.batches)
        .filter(|b| b.record.done >= from && b.record.done < to)
        .map(|b| b.record.images)
        .sum();
    images as f64 / (to - from).max(1e-12)
}

/// `failover-recovery`: the scheduled crash must fire, fail queued work
/// over and heal, and the healed fleet must pull its weight again.
#[test]
fn a_crashed_device_fails_over_heals_and_recovers_throughput() {
    let spec = spec("failover-recovery");
    let report = serve(&spec);
    let health = report.health.as_ref().expect("a device-fault run carries a health report");
    eprintln!("downs {}, ups {}, failed over {}", health.downs, health.ups, health.failed_over);
    assert!(health.downs >= 1 && health.ups >= 1 && health.failed_over > 0);

    let plan = spec.device_faults.expect("failover-recovery has a [device_faults] plan");
    let crash = plan.scheduled[0].t;
    let heal = crash + plan.repair + plan.warmup;
    let pre = window_images_per_sec(&report, 0.0, crash);
    let post = window_images_per_sec(&report, heal, report.makespan.max(heal + 1e-9));
    eprintln!("post-heal / pre-crash images/s = {:.4}", post / pre);
    assert!(post >= 0.9 * pre, "post-heal {post} images/s vs pre-crash {pre}");
}
