//! What the two serving workloads share: the measured and traced
//! repetitions, the report digest, the request accounting check, latency
//! summaries, and the serve layer's per-layer metrics read from a report
//! and from `trace::perf` counter deltas.

use crate::clock::Stopwatch;
use crate::stats::{median, percentile, rate, tail_percentile};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};
use memcnn_core::EngineError;
use memcnn_serve::{generate, FleetReport, WorkloadConfig};
use memcnn_trace::perf::{self, Baseline};
use std::path::Path;
use std::time::Instant;

/// Images per request: uniform in `IMAGES_MIN..=IMAGES_MAX`.
pub const IMAGES_MIN: usize = 1;
/// See [`IMAGES_MIN`].
pub const IMAGES_MAX: usize = 4;
/// Mean images per request.
pub const MEAN_IMAGES: f64 = (IMAGES_MIN + IMAGES_MAX) as f64 / 2.0;

/// A single-phase Poisson stream of about `requests` requests at `rate`
/// requests per second.
pub fn poisson(rate: f64, requests: usize, seed: u64) -> WorkloadConfig {
    let mut w = WorkloadConfig::poisson(rate, requests as f64 / rate, seed);
    w.images_min = IMAGES_MIN;
    w.images_max = IMAGES_MAX;
    w
}

/// FNV-1a over the report's order-sensitive content: latency bits and
/// placements per request, then every device's batches. Equal digests
/// mean the runs committed the same batches in the same order.
fn digest(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &l in &report.latencies {
        eat(l.to_bits());
    }
    for &p in &report.placements {
        eat(u64::from(p));
    }
    for dev in &report.devices {
        for b in &dev.batches {
            eat(b.record.launch.to_bits());
            eat(b.record.done.to_bits());
            eat(b.record.bucket as u64);
            eat(u64::from(b.network));
        }
    }
    h
}

/// Requests `(served, shed, rejected)`: served have a positive latency,
/// rejected never reached placement.
fn accounting(report: &FleetReport) -> (usize, usize, usize) {
    let served = report.latencies.iter().filter(|&&l| l > 0.0).count();
    let rejected = report.placements.iter().filter(|&&p| p == u32::MAX).count();
    (served, report.shed_requests, rejected)
}

/// Requests that did not complete: shed plus rejected.
pub fn failed(report: &FleetReport) -> usize {
    let (_, shed, rejected) = accounting(report);
    shed + rejected
}

/// The measured repetitions: serve the same stream until the run's time
/// budget is spent (at least `min_reps` times), checking every report
/// with [`check_report`] and `also`. Returns the first report, its digest
/// and every repetition's host seconds; `None` once a repetition failed,
/// with the error recorded.
pub fn repeat(
    out: &mut Outcome,
    cfg: &RunCfg,
    min_reps: usize,
    mut serve: impl FnMut(u64) -> Result<FleetReport, EngineError>,
    mut also: impl FnMut(&mut Outcome, &FleetReport, usize),
) -> Option<(FleetReport, u64, Vec<f64>)> {
    let start = Instant::now();
    let mut secs = Vec::new();
    let mut first: Option<(FleetReport, u64)> = None;
    while cfg.more(start, secs.len(), min_reps, secs.last().copied().unwrap_or(0.0)) {
        let rep = secs.len();
        let t = Stopwatch::start();
        let report = serve(rep as u64);
        secs.push(t.secs());
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.check("serve_fleet returns Ok", false, || e.to_string());
                return None;
            }
        };
        out.attempted += report.requests as u64;
        out.failed += failed(&report) as u64;
        let d = check_report(out, &report, first.as_ref().map(|f| f.1), rep);
        also(out, &report, rep);
        first.get_or_insert((report, d));
    }
    first.map(|(report, d)| (report, d, secs))
}

/// The traced repetition: generate and serve `stream` under spans, check
/// the report against the first repetition's digest, record the serve
/// layer's metrics and the tracing overhead over the untraced repetitions'
/// median `secs`, and write the trace as `workload`.
pub fn traced(
    out: &mut Outcome,
    dir: &Path,
    workload: &str,
    stream: &WorkloadConfig,
    first_digest: u64,
    secs: &[f64],
    serve: impl FnOnce(&mut Tracer, u64) -> Result<FleetReport, EngineError>,
) {
    let mut tr = Tracer::on();
    let id = secs.len() as u64;
    let base = perf::baseline();
    let report = tr.span("bench", &format!("repetition {id}"), id, |tr| {
        tr.span("serve", "generate", id, |_| std::hint::black_box(generate(stream)));
        serve(tr, id)
    });
    match report {
        Ok(r) => {
            check_report(out, &r, Some(first_digest), id as usize);
            let serve_secs = tr.total_secs("serve_fleet");
            layer_metrics(out, &r, &base, serve_secs, tr.total_secs("generate"));
            out.set("bench.trace_overhead", serve_secs / median(secs) - 1.0);
        }
        Err(e) => out.check("traced serve_fleet returns Ok", false, || e.to_string()),
    }
    out.write_trace(&tr, dir, workload);
}

/// The checks every serving repetition must pass: the accounting adds
/// up, and the report is the first repetition's, digest for digest.
/// Returns the report's digest.
fn check_report(out: &mut Outcome, report: &FleetReport, first: Option<u64>, rep: usize) -> u64 {
    let (served, shed, rejected) = accounting(report);
    out.check(
        &format!("served + shed + rejected == requests (repetition {rep})"),
        served + shed + rejected == report.requests,
        || format!("{served} + {shed} + {rejected} != {}", report.requests),
    );
    let d = digest(report);
    if let Some(f) = first {
        out.check(
            &format!("report digest matches repetition 0 (repetition {rep})"),
            d == f,
            || format!("{d:016x} != {f:016x}"),
        );
    }
    d
}

/// Both serving workloads set their latency limit on the p99.
pub const LIMIT_PERCENTILE: f64 = 99.0;

/// Note the median, the p99 and the tail percentile (highest with at least
/// ten samples beyond it) of the positive `latencies`, in ms, with the
/// count, and set `sim.tail_latency_ratio`: the p99 over `limit`. The tail
/// percentile rests on as few as ten requests, whose latency turns on where
/// the seeded faults land, so it is printed but carries no bound.
pub fn note_latency(
    out: &mut Outcome,
    prefix: &str,
    latencies: impl Iterator<Item = f64>,
    limit: f64,
) {
    let mut v: Vec<f64> = latencies.filter(|&l| l > 0.0).collect();
    v.sort_by(f64::total_cmp);
    let tail = tail_percentile(v.len()).filter(|&p| p > LIMIT_PERCENTILE);
    for p in [50.0, LIMIT_PERCENTILE].into_iter().chain(tail) {
        let label = format!("{p}").replace('.', "");
        out.note(&format!("{prefix}_p{label}_ms"), percentile(&v, p) * 1e3, "ms");
    }
    out.note(&format!("{prefix}_samples"), v.len() as f64, "count");
    out.set("sim.tail_latency_ratio", percentile(&v, LIMIT_PERCENTILE) / limit);
}

/// The serve layer's metrics for one traced repetition: `base` was taken
/// just before it, `serve_secs` and `generate_secs` are the host seconds
/// of the `serve_fleet` and `generate` calls.
fn layer_metrics(
    out: &mut Outcome,
    r: &FleetReport,
    base: &Baseline,
    serve_secs: f64,
    generate_secs: f64,
) {
    let events = base.delta_of("fleet.route.count") + base.delta_of("fleet.commit.count");
    let (hits, misses) = (base.delta_of("serve.plan.hit"), base.delta_of("serve.plan.miss"));
    let batches = r.devices.iter().flat_map(|d| &d.batches).map(|b| &b.record);
    let (mut images, mut capacity, mut depth, mut nbatches) = (0usize, 0usize, 0usize, 0usize);
    let (mut service, mut served_in_batches) = (0.0f64, 0usize);
    for b in batches {
        images += b.images;
        capacity += b.bucket;
        depth += b.queue_depth;
        nbatches += 1;
        service += b.requests as f64 * (b.done - b.launch);
        served_in_batches += b.requests;
    }
    let mean_latency = r.latency().mean;
    let mean_service = rate(service, served_in_batches as f64);
    let (_, shed, rejected) = accounting(r);
    out.set("serve.generate_per_s", rate(r.requests as f64, generate_secs));
    out.set("serve.events", events as f64);
    out.set("serve.events_per_s", rate(events as f64, serve_secs));
    out.set("serve.barriers", base.delta_of("fleet.barrier.count") as f64);
    out.set("serve.parallel_steps", base.delta_of("fleet.step.parallel") as f64);
    out.set("serve.plan_cache_hit_rate", rate(hits as f64, (hits + misses) as f64));
    out.set("serve.plan_compiles", misses as f64);
    out.set("serve.warm_compiles", base.delta_of("fleet.warm.compiles") as f64);
    out.set("serve.batch_fill", rate(images as f64, capacity as f64));
    out.set(
        "serve.queue_wait_share",
        if mean_latency > 0.0 { 1.0 - mean_service / mean_latency } else { 0.0 },
    );
    out.set("serve.queue_depth_mean", rate(depth as f64, nbatches as f64));
    out.set("serve.health_downs", r.health.as_ref().map_or(0, |h| h.downs) as f64);
    out.set("serve.failover_requeued", r.health.as_ref().map_or(0, |h| h.requeued) as f64);
    out.set("serve.retries", r.faults.retried as f64);
    out.set("serve.shed", shed as f64);
    out.set("serve.rejected", rejected as f64);
    let slo = r.slo.as_ref();
    out.set("serve.slo_early_commits", slo.map_or(0, |s| s.early_commits) as f64);
    out.set("serve.slo_preemptions", slo.map_or(0, |s| s.preemptions) as f64);
    out.set("serve.slo_violations", slo.map_or(0, |s| s.violations) as f64);
}
