//! Multi-tenant SLO scheduling bench.
//!
//! ```text
//! cargo run -p memcnn-bench --release --bin slo
//! cargo run -p memcnn-bench --release --bin slo -- --out target/BENCH_slo.json
//! ```
//!
//! Serves one seeded two-phase AlexNet stream on a 4-device Titan-Black
//! fleet twice: once with the deadline-aware tenant scheduler (an
//! interactive minority, a standard tenant, and a best-effort bulk
//! tenant), once class-blind: the identical config with `tenants`
//! cleared. Attribution is a pure function of the seed, so the blind
//! run's per-class latencies are recovered post hoc and every per-class
//! delta is pure scheduling, not workload noise.
//!
//! Three gates, all fatal (exit 1):
//!
//! 1. the aware run's per-tenant accounting must balance
//!    (`admitted == completed + shed + rejected + in_flight`, per tenant
//!    and aggregate);
//! 2. interactive p99 under the mixed workload must beat the class-blind
//!    scheduler by at least the recorded ratio;
//! 3. best-effort throughput must stay above the recorded floor of its
//!    class-blind throughput — the fairness deficit counter bounds the
//!    starvation the interactive preference is allowed to cause.
//!
//! `--metrics PATH` writes both runs' metrics timelines (the aware one
//! carries the per-tenant keyed latency histograms) as one JSON object
//! for CI artifact upload. The summary — per-class table, gate ratios,
//! fairness, and the `slo.*` perf-counter deltas — goes to
//! `BENCH_slo.json` as one line of JSON.

use memcnn_bench::fleet::FLEET_SEED;
use memcnn_bench::slo::{
    class_table, compare_classes, run_slo_fleet, slo_tenants, slo_workload, ClassCompare,
    SLO_DEVICES,
};
use memcnn_bench::util::Ctx;
use memcnn_metrics::MetricsTimeline;
use memcnn_models::alexnet;
use memcnn_serve::{capacity_images_per_sec, feasible_max_batch, Placement};
use memcnn_trace::perf;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Gate: aware interactive p99 must be at most this fraction of the
/// class-blind interactive p99 (observed ≈ 0.65 on the seeded stream;
/// headroom for engine-tuning drift).
const INTERACTIVE_P99_GATE: f64 = 0.75;
/// Gate: aware best-effort images/sec must stay above this fraction of
/// its class-blind throughput (observed ≈ 0.80 — the drained run loses
/// makespan, not completions; the floor bounds regressions where the
/// interactive preference starves bulk work outright).
const BEST_EFFORT_TPUT_FLOOR: f64 = 0.6;

#[derive(Serialize)]
struct Summary {
    bench: &'static str,
    device: String,
    network: String,
    seed: u64,
    devices: usize,
    max_batch: usize,
    capacity_images_per_sec: f64,
    classes: Vec<ClassCompare>,
    /// aware / blind interactive p99 (gated <= [`INTERACTIVE_P99_GATE`]).
    interactive_p99_ratio: f64,
    /// aware / blind best-effort images/sec (gated >=
    /// [`BEST_EFFORT_TPUT_FLOOR`]).
    best_effort_tput_ratio: f64,
    /// max/min weighted share across tenants in the aware run.
    fairness_ratio: f64,
    early_commits: u64,
    preemptions: u64,
    rejected: u64,
    violations: u64,
    /// Device-seconds consumed by the aware run (sum of per-device busy
    /// time).
    device_seconds: f64,
    /// Device-seconds per p99-budget violation (higher is better:
    /// capacity spent without blowing budgets).
    slo_cost: f64,
    /// `slo.*` perf-counter deltas from this process's two runs.
    slo_perf: BTreeMap<String, u64>,
}

fn usage() -> ! {
    eprintln!("usage: slo [--out PATH] [--metrics PATH]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = PathBuf::from("BENCH_slo.json");
    let mut metrics: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => usage(),
            },
            "--metrics" => match it.next() {
                Some(p) => metrics = Some(PathBuf::from(p)),
                None => usage(),
            },
            _ => usage(),
        }
    }

    let perf_base = perf::baseline();
    let ctx = Ctx::titan_black();
    let net = alexnet().expect("alexnet");
    let (max_batch, top_plan) = feasible_max_batch(&ctx.engine, &net, ctx.mechanism(), &[64, 32])
        .unwrap_or_else(|| panic!("{}: no feasible batch size", net.name));
    let capacity = capacity_images_per_sec(max_batch, &top_plan);
    let policy = memcnn_serve::BatchPolicy::new(
        max_batch,
        memcnn_bench::slo::SLO_DELAY_FACTOR * top_plan.total_time(),
    );
    let k = SLO_DEVICES;
    let workload = slo_workload(k, capacity, FLEET_SEED);
    let tenants = slo_tenants(policy.max_queue_delay);
    println!(
        "{}: max_batch={max_batch}, {k}-device two-phase stream, {} tenants \
         (interactive p99 budget {:.1} ms, blind queue delay {:.1} ms)",
        net.name,
        tenants.len(),
        tenants[0].class.p99_budget().unwrap_or(0.0) * 1e3,
        policy.max_queue_delay * 1e3
    );

    // Deadline-aware run, then the class-blind run on the SAME config
    // with the tenants cleared (attribution stays post hoc).
    let aware = run_slo_fleet(
        &ctx,
        &net,
        policy,
        workload.clone(),
        Placement::QueueWeighted,
        k,
        tenants.clone(),
    )
    .expect("aware run");
    let blind = run_slo_fleet(
        &ctx,
        &net,
        policy,
        workload.clone(),
        Placement::QueueWeighted,
        k,
        Vec::new(),
    )
    .expect("blind run");

    let slo = aware.slo.as_ref().expect("aware run must carry an SLO report");
    let classes = compare_classes(&aware, &blind, &workload, &tenants);
    class_table(format!("{}: deadline-aware vs class-blind @{k} devices", net.name), &classes)
        .print();
    println!(
        "fairness max/min weighted share {:.2}; early commits {}, preemptions {}, \
         rejected {}, violations {}; slo.cost {:.4} device-s/violation \
         ({:.3} device-s total)",
        slo.fairness.ratio,
        slo.early_commits,
        slo.preemptions,
        slo.rejected,
        slo.violations,
        slo.cost(),
        slo.device_seconds
    );

    let mut gate_failed = false;

    // Gate 1: the accounting invariant, per tenant and aggregate.
    if !slo.balanced() {
        eprintln!("GATE FAILED: per-tenant accounting out of balance (admitted != completed + shed + rejected + in_flight)");
        gate_failed = true;
    }

    // Gate 2: interactive p99 must actually improve.
    let interactive = &classes[0];
    let p99_ratio = if interactive.blind_p99_ms > 0.0 {
        interactive.aware_p99_ms / interactive.blind_p99_ms
    } else {
        f64::INFINITY
    };
    if p99_ratio > INTERACTIVE_P99_GATE {
        eprintln!(
            "GATE FAILED: interactive p99 ratio {p99_ratio:.3} (aware {:.3} ms / blind {:.3} ms) \
             exceeds {INTERACTIVE_P99_GATE}",
            interactive.aware_p99_ms, interactive.blind_p99_ms
        );
        gate_failed = true;
    } else {
        println!(
            "gate ok: interactive p99 {:.3} ms is {:.2}x below class-blind {:.3} ms",
            interactive.aware_p99_ms,
            1.0 / p99_ratio.max(1e-12),
            interactive.blind_p99_ms
        );
    }

    // Gate 3: the bounded best-effort cost.
    let be = classes.last().expect("tenant mix is non-empty");
    let be_aware = be.aware_images as f64 / aware.makespan.max(1e-12);
    let be_blind = be.blind_images as f64 / blind.makespan.max(1e-12);
    let tput_ratio = if be_blind > 0.0 { be_aware / be_blind } else { f64::INFINITY };
    if tput_ratio < BEST_EFFORT_TPUT_FLOOR {
        eprintln!(
            "GATE FAILED: best-effort throughput ratio {tput_ratio:.3} ({be_aware:.0} vs \
             {be_blind:.0} images/s) fell below {BEST_EFFORT_TPUT_FLOOR}"
        );
        gate_failed = true;
    } else {
        println!(
            "gate ok: best-effort keeps {:.0}% of class-blind throughput ({be_aware:.0} vs \
             {be_blind:.0} images/s)",
            tput_ratio * 100.0
        );
    }

    if let Some(path) = &metrics {
        let mut timelines: BTreeMap<String, MetricsTimeline> = BTreeMap::new();
        timelines.insert(format!("{}.slo.aware", net.name), aware.timeline.clone());
        timelines.insert(format!("{}.slo.blind", net.name), blind.timeline.clone());
        let json = serde_json::to_string(&timelines).expect("serialize timelines");
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }

    let slo_perf: BTreeMap<String, u64> =
        perf_base.delta().into_iter().filter(|(name, _)| name.starts_with("slo.")).collect();
    println!(
        "slo perf: {}",
        slo_perf.iter().map(|(name, v)| format!("{name}={v}")).collect::<Vec<_>>().join(", ")
    );

    let summary = Summary {
        bench: "slo",
        device: ctx.device.name.clone(),
        network: net.name.clone(),
        seed: FLEET_SEED,
        devices: k,
        max_batch,
        capacity_images_per_sec: capacity,
        classes,
        interactive_p99_ratio: p99_ratio,
        best_effort_tput_ratio: tput_ratio,
        fairness_ratio: slo.fairness.ratio,
        early_commits: slo.early_commits,
        preemptions: slo.preemptions,
        rejected: slo.rejected,
        violations: slo.violations,
        device_seconds: slo.device_seconds,
        slo_cost: slo.cost(),
        slo_perf,
    };
    let line = serde_json::to_string(&summary).expect("serialize summary");
    println!("\n{line}");
    if let Err(e) = std::fs::write(&out, format!("{line}\n")) {
        eprintln!("failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", out.display());
    if gate_failed {
        std::process::exit(1);
    }
}
