//! What the benchmark measures: its workloads and every metric it
//! reports, with unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repository root is [`benchmark_json`]'s output
//! (`benchmark --print-benchmark-json`); a unit test keeps the two equal.

use crate::stats::Better;
use crate::trace::json_str;

/// One workload: its name and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-plan",
        why: "cold Fig-14 matrix (5 paper nets x 7 mechanisms, Titan Black): host time is gpu-sim \
              and core planning; serve and kernels idle",
    },
    Workload {
        name: "cpu-forward",
        why:
            "CIFAR-10 batch-128 forward pass on the host CPU under the Opt, all-NCHW and all-CHWN \
              layouts: the only real-silicon kernels and tensor path",
    },
    Workload {
        name: "fleet-stream",
        why:
            "1M-request Poisson stream of a tiny net on 64 Titan Blacks, class-blind, fault-free: \
              host time is the fleet router, stepper and merge",
    },
    Workload {
        name: "serve-mixed",
        why: "AlexNet+CIFAR on 2 Titan Black + 2 Titan X with 3 SLO tenants, kernel faults and \
              device crashes: tenant lanes, failover and a planner-bound setup",
    },
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run. Every workload reports all of them; the
/// README gives each one's meaning per workload. A bound must hold the
/// spread between runs on different seeds: for host time on a shared
/// 2-vCPU host that reached 25% (README, "First measurements"), for peak
/// RSS 3%, and for the simulated metrics, whose only spread is the seed's,
/// 3.5% (`serve-mixed`'s frontend p99).
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("sim.opt_speedup", "x", Higher, 0.005),
    e2e("sim.tail_latency_ratio", "x", Lower, 0.12),
    e2e("sim.capacity_per_s", "1/s", Higher, 0.10),
    e2e("sim.slo_attainment", "fraction", Higher, 0.01),
];

/// Absolute floor under the `setup_s` bound: set-ups of a few
/// milliseconds are too noisy for a relative bound alone.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Metrics of a traced run, by layer (crate). A layer the workload does
/// not exercise reports 0. Host timings are given as rates (work per busy
/// second) so an idle layer reads as no work rather than as a time.
pub const PER_LAYER: [Metric; 51] = [
    layer("gpu-sim.cold_sims", "count", Lower),
    layer("gpu-sim.cache_hit_rate", "ratio", Higher),
    layer("gpu-sim.conv_sims_per_s", "1/s", Higher),
    layer("gpu-sim.pool_sims_per_s", "1/s", Higher),
    layer("gpu-sim.softmax_sims_per_s", "1/s", Higher),
    layer("gpu-sim.transform_sims_per_s", "1/s", Higher),
    layer("core.plans_per_s.LeNet", "1/s", Higher),
    layer("core.plans_per_s.CIFAR", "1/s", Higher),
    layer("core.plans_per_s.AlexNet", "1/s", Higher),
    layer("core.plans_per_s.ZFNet", "1/s", Higher),
    layer("core.plans_per_s.VGG", "1/s", Higher),
    layer("core.plans_per_s.baselines", "1/s", Higher),
    layer("sim.speedup.LeNet", "x", Higher),
    layer("sim.speedup.CIFAR", "x", Higher),
    layer("sim.speedup.AlexNet", "x", Higher),
    layer("sim.speedup.ZFNet", "x", Higher),
    layer("sim.speedup.VGG", "x", Higher),
    layer("sim.opt_share.conv", "fraction", Lower),
    layer("sim.opt_share.pool", "fraction", Lower),
    layer("sim.opt_share.softmax", "fraction", Lower),
    layer("sim.opt_share.transform", "fraction", Lower),
    layer("kernels.conv_gflops.nchw", "GFLOP/s", Higher),
    layer("kernels.conv_gflops.chwn", "GFLOP/s", Higher),
    layer("kernels.pool_gbs.nchw", "GB/s", Higher),
    layer("kernels.pool_gbs.chwn", "GB/s", Higher),
    layer("kernels.im2col_gbs", "GB/s", Higher),
    layer("kernels.sgemm_gflops", "GFLOP/s", Higher),
    layer("kernels.fc_gflops", "GFLOP/s", Higher),
    layer("kernels.relu_gbs", "GB/s", Higher),
    layer("kernels.softmax_gbs", "GB/s", Higher),
    layer("tensor.relayout_gbs", "GB/s", Higher),
    layer("serve.generate_per_s", "1/s", Higher),
    layer("serve.events", "count", Lower),
    layer("serve.events_per_s", "1/s", Higher),
    layer("serve.barriers", "count", Lower),
    layer("serve.parallel_steps", "count", Higher),
    layer("serve.plan_cache_hit_rate", "ratio", Higher),
    layer("serve.plan_compiles", "count", Lower),
    layer("serve.warm_compiles", "count", Lower),
    layer("serve.batch_fill", "ratio", Higher),
    layer("serve.queue_wait_share", "fraction", Lower),
    layer("serve.queue_depth_mean", "count", Lower),
    layer("serve.health_downs", "count", Lower),
    layer("serve.failover_requeued", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("serve.slo_early_commits", "count", Lower),
    layer("serve.slo_preemptions", "count", Lower),
    layer("serve.slo_violations", "count", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
];

/// Look a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Seconds each run measures (`--seconds` default).
pub const RUN_SECONDS: u64 = 15;

/// The canonical `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    // One JSON array entry per line, comma-separated.
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)));
    let metric = |m: &Metric| {
        let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label())
        )
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--offline\", \"--release\", \"-q\", \
         \"--manifest-path\", \"crates/bench/src/bin/benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"crates/bench/src/bin/benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads.collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_matches_the_catalog() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(committed, benchmark_json(), "regenerate with --print-benchmark-json");
    }

    /// `(name, version)` of every package in a `Cargo.lock`.
    fn locked(lock: &str) -> BTreeSet<(String, String)> {
        let field = |block: &str, key: &str| {
            block.lines().find_map(|l| l.strip_prefix(key)).map(|v| v.trim_matches('"').to_string())
        };
        lock.split("[[package]]")
            .skip(1)
            .filter_map(|b| Some((field(b, "name = ")?, field(b, "version = ")?)))
            .collect()
    }

    /// The benchmark builds as a package of its own (`Cargo.toml` here) and
    /// as memcnn-bench's `benchmark` binary, which the workspace tests. The
    /// two builds must compile the same code the same way: every locked
    /// package at the workspace's version, and no release profile in the
    /// workspace manifest that the package of its own would not see.
    #[test]
    fn own_package_builds_what_the_workspace_builds() {
        let own = locked(include_str!("Cargo.lock"));
        let workspace = locked(include_str!("../../../../../Cargo.lock"));
        for (name, version) in own.iter().filter(|p| p.0 != "memcnn-benchmark") {
            assert!(
                workspace.contains(&(name.clone(), version.clone())),
                "{name} {version} is not in the workspace's Cargo.lock"
            );
        }
        assert!(own.len() > 10, "{own:?}");
        let manifest = include_str!("../../../../../Cargo.toml");
        assert!(
            !manifest.lines().any(|l| l.starts_with("[profile.release")),
            "mirror the workspace's release profile in this directory's Cargo.toml"
        );
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit, setup.better), ("setup_s", "s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
