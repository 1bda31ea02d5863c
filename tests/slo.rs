//! Multi-tenant SLO integration tests: bit-identical per-tenant
//! scheduling across thread counts and across the sequential/parallel
//! fleet paths, the per-tenant accounting balance invariant, exact
//! zero-tenant byte-identity with the pre-tenant report wire format,
//! and the weighted-fair bound on best-effort starvation.
//!
//! Like `tests/fleet.rs`, this binary reads process-global state (the
//! perf registry), so everything lives in ONE `#[test]`, run under a
//! 4-thread budget (`rayon::with_max_threads`).

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, NetworkBuilder};
use memcnn::gpusim::DeviceConfig;
use memcnn::serve::{
    serve_fleet, serve_fleet_oracle, Arrival, BatchPolicy, FleetConfig, FleetReport, Oracle, Phase,
    Placement, TenantSpec, WorkloadConfig,
};
use memcnn::tensor::Shape;

/// One tenant's accounting row: admitted, rejected, completed, shed,
/// in-flight, violations, and the p99 bits.
type TenantRow = (u64, u64, u64, u64, u64, u64, u64);

/// Replay-relevant bits of a fleet report plus the per-tenant rollup:
/// latencies, placements, batch timelines, and each tenant's full
/// accounting row (counts are exact; latency quantiles ride along as
/// bits).
fn digest(r: &FleetReport) -> (Vec<u64>, Vec<u32>, Vec<TenantRow>) {
    let slo = r.slo.as_ref().expect("tenant-enabled run must carry an SLO report");
    (
        r.latencies.iter().map(|l| l.to_bits()).collect(),
        r.placements.clone(),
        slo.tenants
            .iter()
            .map(|t| {
                (
                    t.admitted,
                    t.rejected,
                    t.completed,
                    t.shed,
                    t.in_flight,
                    t.violations,
                    t.latency.p99.to_bits(),
                )
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

/// [`pin`]s of the tenant-enabled base run — the `Debug` text of its
/// [`digest`] (integers only) and its whole report's JSON — recorded
/// while the sequential oracle was still switched by an env var. A
/// change that moves every run alike passes the rerun and oracle
/// comparisons; it fails here.
const PIN_SLO: &str = "838fff2e4724919f";
const PIN_SLO_REPORT: &str = "c8374c518d815828";

fn black() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

#[test]
fn slo_scheduling_is_deterministic_balanced_and_fair() {
    rayon::with_max_threads(4, slo_checks);
}

fn slo_checks() {
    let net = NetworkBuilder::new("slo-net", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let wl = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 100.0 }, duration: 0.2 },
            Phase { arrival: Arrival::Poisson { rate: 4000.0 }, duration: 0.1 },
        ],
        images_min: 1,
        images_max: 8,
        seed: 77,
    };
    let tenants = vec![
        TenantSpec::interactive("chat", 0.01, 2.0),
        TenantSpec::standard("search", 1.0),
        TenantSpec::best_effort("offline", 1.0),
    ];
    let policy = BatchPolicy::new(128, 0.004);
    let cfg = FleetConfig::new(wl.clone(), policy, Placement::LeastLoaded).with_tenants(tenants);

    // (1) Tenant-enabled 2-device fleet: its pinned digest and report,
    // and the same digest under 1- and 13-thread budgets.
    let shared = black();
    let engines: Vec<&Engine> = vec![&shared, &shared];
    let run = || serve_fleet(&engines, std::slice::from_ref(&net), &cfg).unwrap();
    let report = run();
    let base = digest(&report);
    assert_eq!(pin(&format!("{base:?}")), PIN_SLO, "SLO fleet digest drifted");
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(pin(&json), PIN_SLO_REPORT, "SLO fleet report drifted");
    for threads in [1, 13] {
        let rerun = digest(&rayon::with_max_threads(threads, run));
        assert_eq!(base, rerun, "SLO fleet diverged under a {threads}-thread budget");
    }

    // (2) Per-tenant AND aggregate accounting balance, attribution
    // totals, and the starvation bound: the weighted-fair deficit
    // tiebreak must keep the best-effort tenant serving through the
    // saturating burst, not just the interactive one.
    let slo = report.slo.as_ref().unwrap();
    assert!(slo.balanced(), "per-tenant accounting out of balance");
    assert_eq!(slo.tenants.len(), 3);
    let admitted: u64 = slo.tenants.iter().map(|t| t.admitted).sum();
    assert_eq!(admitted, report.requests as u64, "every request is attributed to one tenant");
    for t in &slo.tenants {
        assert!(t.balanced(), "tenant {} out of balance", t.name);
        assert!(t.admitted > 0, "tenant {} never drew an arrival", t.name);
        assert_eq!(t.in_flight, 0, "a drained run leaves nothing in flight");
    }
    assert!(
        slo.tenants[2].completed > 0,
        "best-effort must not starve under the interactive burst"
    );
    let fairness = &slo.fairness;
    assert!(
        fairness.share_min > 0.0 && fairness.ratio >= 1.0,
        "fairness shares must be positive with a bounded max/min ratio"
    );

    // (3) Admission control: a hard rate cap on the interactive tenant
    // rejects the overflow, marks it with the u32::MAX placement
    // sentinel + 0.0 latency, and the books still balance.
    let capped = vec![
        TenantSpec::interactive("chat", 0.01, 2.0).with_rate_limit(50.0),
        TenantSpec::standard("search", 1.0),
        TenantSpec::best_effort("offline", 1.0),
    ];
    let rcfg = FleetConfig::new(wl.clone(), policy, Placement::LeastLoaded).with_tenants(capped);
    let limited = serve_fleet(&engines, std::slice::from_ref(&net), &rcfg).unwrap();
    let lslo = limited.slo.as_ref().unwrap();
    assert!(lslo.rejected > 0, "the 50 rps cap must reject under a 4000 rps burst");
    assert_eq!(lslo.rejected, lslo.tenants[0].rejected, "only the capped tenant rejects");
    assert!(lslo.balanced());
    assert_eq!(
        limited.placements.iter().filter(|&&p| p == u32::MAX).count() as u64,
        lslo.rejected,
        "placement sentinels must be exactly the rejected requests"
    );
    assert_eq!(
        limited.latencies.iter().filter(|&&l| l == 0.0).count() as u64,
        lslo.rejected + limited.shed_requests as u64,
        "0.0 latency sentinels are the rejected plus shed requests"
    );

    // (4) Sequential-vs-parallel byte-identity holds WITH tenants: the
    // legacy loop must reproduce the whole report — including the slo
    // block and the per-tenant keyed histograms — byte for byte.
    let seq =
        serve_fleet_oracle(&engines, std::slice::from_ref(&net), &cfg, Oracle::Sequential).unwrap();
    assert_eq!(
        json,
        serde_json::to_string(&seq).unwrap(),
        "sequential and parallel SLO reports must be byte-identical"
    );

    // (5) Zero-tenant byte-identity with the pre-tenant wire format:
    // the default config emits none of the new keys, so its JSON is
    // exactly what the previous revision serialized.
    let blind_cfg = FleetConfig::new(wl, policy, Placement::LeastLoaded);
    let blind = serve_fleet(&engines, std::slice::from_ref(&net), &blind_cfg).unwrap();
    let plain_json = serde_json::to_string(&blind).unwrap();
    for key in ["\"tenants\"", "\"slo\"", "\"keyed_hists\""] {
        assert!(!plain_json.contains(key), "default-config report leaked new key {key}");
    }
}
