//! Metrics-timeline integration tests: histogram merge laws on real
//! served latency vectors, bucket-resolution percentile accuracy,
//! monotonic Perfetto counter tracks, bit-identical timelines across
//! thread counts, and the queue-weighted convoy fix showing up in the
//! per-device queue series.
//!
//! Like `tests/serve.rs`, this binary reads process-global state (the
//! trace collector), so everything lives in ONE `#[test]`. It runs under
//! a 4-thread budget (`rayon::with_max_threads`), so plan compiles
//! exercise the parallel probe fan-out whatever the host's core count.

use memcnn::core::{Engine, LayoutPolicy, LayoutThresholds, NetworkBuilder};
use memcnn::gpusim::DeviceConfig;
use memcnn::metrics::{bucket_index, Histogram, MetricsTimeline};
use memcnn::serve::{
    serve_fleet, Arrival, BatchPolicy, FleetConfig, FleetReport, Phase, Placement, WorkloadConfig,
};
use memcnn::tensor::Shape;
use memcnn::trace::{self, Track};

fn black() -> Engine {
    Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
        .with_layout_policy(LayoutPolicy::Heuristic)
}

/// One gauge series as raw bits: `(name, [(t_bits, value_bits)])`.
type SeriesBits = (String, Vec<(u64, u64)>);

/// Bit-exact digest of a timeline: every series name, every sample's
/// `(t, value)` bit pattern, and the run histogram (exact by `Eq`).
fn digest(t: &MetricsTimeline) -> (Vec<SeriesBits>, Histogram) {
    (
        t.series_names()
            .map(|name| {
                let s = t.series(name).expect("named series exists");
                (
                    name.to_string(),
                    s.samples.iter().map(|p| (p.t.to_bits(), p.value.to_bits())).collect(),
                )
            })
            .collect(),
        t.latency_hist.clone(),
    )
}

#[test]
fn timelines_are_deterministic_monotonic_and_histogram_laws_hold() {
    rayon::with_max_threads(4, timeline_checks);
}

fn timeline_checks() {
    let net = NetworkBuilder::new("metrics-net", Shape::new(1, 64, 8, 8))
        .conv("CV1", 64, 3, 1, 1)
        .max_pool("PL1", 2, 2)
        .build()
        .unwrap();
    let wl = WorkloadConfig {
        phases: vec![
            Phase { arrival: Arrival::Poisson { rate: 150.0 }, duration: 0.2 },
            Phase { arrival: Arrival::Poisson { rate: 3000.0 }, duration: 0.1 },
        ],
        images_min: 1,
        images_max: 8,
        seed: 77,
    };
    let scfg = FleetConfig::new(wl.clone(), BatchPolicy::new(128, 0.004), Placement::RoundRobin);
    let single = || serve_fleet(&[&black()], std::slice::from_ref(&net), &scfg).unwrap();

    // (1) Histogram laws on a real served latency vector. The timeline's
    // run histogram covers exactly the served (non-shed) requests.
    let report = single();
    let served: Vec<f64> = report.latencies.iter().copied().filter(|&l| l > 0.0).collect();
    assert!(served.len() >= 50, "need a meaningful latency vector, got {}", served.len());
    assert_eq!(report.timeline.latency_hist.count(), served.len() as u64);

    let mut whole = Histogram::new();
    served.iter().for_each(|&l| whole.record(l));
    assert_eq!(whole, report.timeline.latency_hist, "loop-recorded hist != timeline hist");
    // merge(a, b) == merge(b, a), and chunked recording == whole-vector
    // recording, for an arbitrary 3-way split of the real vector.
    let third = served.len() / 3;
    let (ab, c) = served.split_at(2 * third);
    let (a, b) = ab.split_at(third);
    let hist_of = |chunk: &[f64]| {
        let mut h = Histogram::new();
        chunk.iter().for_each(|&l| h.record(l));
        h
    };
    let (ha, hb, hc) = (hist_of(a), hist_of(b), hist_of(c));
    let mut ab_c = ha.clone();
    ab_c.merge(&hb);
    ab_c.merge(&hc);
    let mut c_ba = hc.clone();
    c_ba.merge(&hb);
    c_ba.merge(&ha);
    assert_eq!(ab_c, c_ba, "merge must be order-independent");
    assert_eq!(ab_c, whole, "chunked merge must equal whole-vector recording");

    // Recorded p99 lands within one bucket of the exact sorted-vector
    // p99 (nearest rank), for every headline percentile.
    let mut sorted = served.clone();
    sorted.sort_by(f64::total_cmp);
    for p in [50.0, 95.0, 99.0] {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let exact = sorted[rank.clamp(1, sorted.len()) - 1];
        let got = whole.percentile_index(p).expect("non-empty");
        assert!(
            got.abs_diff(bucket_index(exact)) <= 1,
            "p{p}: hist bucket {got} vs exact bucket {} (exact {exact})",
            bucket_index(exact)
        );
    }

    // (2) Perfetto counter tracks: run the one-device server and a
    // two-device fleet, each under its own collector session (both
    // write the same counter names to `Track::Fleet`); every counter
    // series' timestamps must be non-decreasing — on the two-device run
    // too, where batches on different devices overlap in time (the
    // fleet samples at committed launches, which are globally ordered;
    // `done` times are not).
    let fcfg = FleetConfig::new(wl.clone(), BatchPolicy::new(128, 0.004), Placement::LeastLoaded);
    let traced = |run: &dyn Fn() -> FleetReport| {
        trace::start();
        let report = run();
        (report, trace::finish().expect("collector was started").counters)
    };
    let (_, single_counters) = traced(&single);
    let (fleet_report, fleet_counters) =
        traced(&|| serve_fleet(&[&black(), &black()], std::slice::from_ref(&net), &fcfg).unwrap());
    for (run, counters) in [("one-device", &single_counters), ("two-device", &fleet_counters)] {
        let mut names: Vec<(Track, String)> =
            counters.iter().map(|c| (c.track, c.name.clone())).collect();
        names.sort_by(|x, y| (x.0.tid(), &x.1).cmp(&(y.0.tid(), &y.1)));
        names.dedup();
        assert!(
            names.iter().any(|(t, _)| *t == Track::Fleet),
            "the {run} run must populate the fleet counter track"
        );
        for (track, name) in &names {
            let series: Vec<f64> = counters
                .iter()
                .filter(|c| c.track == *track && c.name == *name)
                .map(|c| c.ts_us)
                .collect();
            assert!(!series.is_empty());
            for w in series.windows(2) {
                assert!(
                    w[0] <= w[1],
                    "{run}: {name} on {track:?}: counter timestamps regress ({} > {})",
                    w[0],
                    w[1]
                );
            }
        }
    }

    // (3) Timelines are bit-identical under thread budgets {1, 13}
    // besides 4.
    let serve_base = digest(&single().timeline);
    let fleet_base = digest(&fleet_report.timeline);
    for threads in [1, 13] {
        let (s, f) = rayon::with_max_threads(threads, || {
            let s = single().timeline;
            let f = serve_fleet(&[&black(), &black()], std::slice::from_ref(&net), &fcfg);
            (s, f.unwrap().timeline)
        });
        assert_eq!(
            serve_base,
            digest(&s),
            "one-device timeline diverged under a {threads}-thread budget"
        );
        assert_eq!(
            fleet_base,
            digest(&f),
            "fleet timeline diverged under a {threads}-thread budget"
        );
    }

    // (4) The convoy fix is visible in the per-device queue series: on
    // the same bursty stream, least-loaded spikes one device's backlog
    // well above queue-weighted's peak.
    let peak = |timeline: &MetricsTimeline| {
        (0..2)
            .map(|d| {
                timeline
                    .series(&format!("dev{d}.queue.images"))
                    .map_or(0.0, |s| s.samples.iter().map(|p| p.value).fold(0.0, f64::max))
            })
            .fold(0.0, f64::max)
    };
    let qw_cfg = FleetConfig::new(wl, BatchPolicy::new(128, 0.004), Placement::QueueWeighted);
    let qw = serve_fleet(&[&black(), &black()], std::slice::from_ref(&net), &qw_cfg).unwrap();
    let (ll_peak, qw_peak) = (peak(&fleet_report.timeline), peak(&qw.timeline));
    assert!(qw_peak > 0.0, "the burst must queue images under queue-weighted too");
    assert!(
        ll_peak > qw_peak,
        "least-loaded peak backlog ({ll_peak}) must exceed queue-weighted ({qw_peak}) \
         on a bursty stream — otherwise the convoy defect is gone from the baseline"
    );
}
