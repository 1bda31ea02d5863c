//! `fleet-stream`: a seeded open-loop Poisson stream of about a million
//! single-network requests on 64 homogeneous Titan Blacks at 90% of their
//! aggregate capacity, queue-weighted placement, no tenants, no faults.
//! The network is one small conv and a pool, so plans cost nothing and
//! host time is the class-blind orchestrator: routing, device stepping and
//! merge/replay. Latency runs from each request's scheduled arrival on
//! the simulated clock, so generator lateness is zero by construction.
//! Set-up compiles every bucket plan cold and generates the stream.

use crate::clock::Stopwatch;
use crate::serving::{self, MEAN_IMAGES};
use crate::stats::{bisect_max, median, percentile, rate};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};
use memcnn_core::{Engine, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn_gpusim::{simcache, DeviceConfig};
use memcnn_serve::{
    buckets, capacity_images_per_sec, feasible_max_batch, generate, serve_fleet, BatchPolicy,
    FleetConfig, Placement, WorkloadConfig,
};
use memcnn_tensor::Shape;

/// How much of the workload to run.
pub struct Size {
    /// Requests in the measured stream (about; Poisson).
    pub requests: usize,
    /// Devices in the fleet.
    pub devices: usize,
    /// Requests in each stream of the capacity search.
    pub search_requests: usize,
    /// Halvings of the capacity search's bracket.
    pub search_iters: usize,
    /// Repetitions measured even when `--seconds` is already spent.
    pub min_reps: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            requests: 1_000_000,
            devices: 64,
            search_requests: 100_000,
            search_iters: 8,
            min_reps: 3,
        }
    }
}

/// Offered load, as a share of the fleet's aggregate capacity.
const LOAD: f64 = 0.9;
/// Latency limit on the p99, in top-bucket service times.
const LIMIT_SERVICES: f64 = 3.0;
/// Largest failed share a capacity-search point may have.
const MAX_FAILED: f64 = 0.01;

/// One conv and one pool: each batch costs almost nothing to plan or
/// simulate, so the orchestrator dominates host time.
fn stream_net() -> Network {
    NetworkBuilder::new("stream-tiny", Shape::new(1, 4, 16, 16))
        .conv("CV", 8, 3, 1, 1)
        .max_pool("PL", 2, 2)
        .build()
        .expect("stream net builds")
}

pub fn run(cfg: &RunCfg, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let device = DeviceConfig::titan_black();
    let th = LayoutThresholds::titan_black_paper();
    let net = stream_net();

    // Set-up: every bucket plan, cold, then the request stream.
    let mut setup = Vec::new();
    let mut state = None;
    while cfg.more_setups(&setup) {
        simcache::clear();
        let t = Stopwatch::start();
        let engine = Engine::new(device.clone(), th);
        let Some((max, top)) =
            feasible_max_batch(&engine, &net, Mechanism::Opt, &[256, 128, 64, 32])
        else {
            out.check("the stream network plans at some batch size", false, String::new);
            return out;
        };
        let policy = BatchPolicy::new(max, (0.25 * top.total_time()).max(1e-4));
        let compiled = buckets(&policy)
            .iter()
            .filter(|&&b| engine.plan_at(&net, Mechanism::Opt, b).is_ok())
            .count();
        let capacity = capacity_images_per_sec(max, &top) * size.devices as f64 / MEAN_IMAGES;
        let workload = serving::poisson(LOAD * capacity, size.requests, cfg.seed);
        let requests = generate(&workload).len();
        setup.push(t.secs());
        out.check("every bucket plan compiles", compiled == buckets(&policy).len(), String::new);
        state = Some((engine, policy, top, capacity, workload, requests));
    }
    out.set_host("setup_s", &setup);
    let (engine, policy, top, capacity, workload, requests) = state.expect("at least one set-up");
    let engines: Vec<&Engine> = vec![&engine; size.devices];
    let limit = LIMIT_SERVICES * top.total_time();
    out.note("stream.requests", requests as f64, "count");
    out.note("stream.latency_limit_ms", limit * 1e3, "ms");

    let serve = |tr: &mut Tracer, w: WorkloadConfig, id: u64| {
        tr.span("serve", "serve_fleet", id, |_| {
            serve_fleet(
                &engines,
                std::slice::from_ref(&net),
                &FleetConfig::new(w, policy, Placement::QueueWeighted),
            )
        })
    };

    // Measurement: the stream, repeatedly.
    let measured = serving::repeat(
        &mut out,
        cfg,
        size.min_reps,
        |id| serve(&mut Tracer::off(), workload.clone(), id),
        |_, _, _| {},
    );
    let Some((report, first_digest, secs)) = measured else { return out };
    let rps: Vec<f64> = secs.iter().map(|&s| rate(report.requests as f64, s)).collect();
    out.note_host("stream.requests_per_s", "req/s", &rps);
    out.set("ops_per_s", median(&rps));
    serving::note_latency(&mut out, "stream.latency", report.latencies.iter().copied(), limit);
    let met = report.latencies.iter().filter(|&&l| l > 0.0 && l <= limit).count();
    out.set("sim.slo_attainment", rate(met as f64, report.requests as f64));

    // What Opt buys over the best baseline on the top bucket.
    let baselines: Vec<f64> = Mechanism::ALL
        .iter()
        .filter(|&&m| m != Mechanism::Opt)
        .filter_map(|&m| engine.plan_at(&net, m, top.batch).ok().map(|p| p.total_time()))
        .collect();
    let best = baselines.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("sim.opt_speedup", best / top.total_time());

    // Capacity: the highest Poisson rate whose p99 stays within the limit.
    let meets = |r: f64| {
        let w = serving::poisson(r, size.search_requests, cfg.seed);
        serve(&mut Tracer::off(), w, 0).is_ok_and(|rep| {
            let mut lat: Vec<f64> = rep.latencies.iter().copied().filter(|&l| l > 0.0).collect();
            lat.sort_by(f64::total_cmp);
            percentile(&lat, serving::LIMIT_PERCENTILE) <= limit
                && serving::failed(&rep) as f64 <= MAX_FAILED * rep.requests as f64
        })
    };
    let found = bisect_max(0.25 * capacity, 1.5 * capacity, size.search_iters, meets);
    out.check(
        "the capacity search finds a rate within the latency limit",
        found.is_some(),
        String::new,
    );
    out.set("sim.capacity_per_s", found.unwrap_or(0.0));
    out.note("stream.offered_per_s", LOAD * capacity, "req/s");

    if let Some(dir) = &cfg.trace {
        serving::traced(&mut out, dir, "fleet-stream", &workload, first_digest, &secs, |tr, id| {
            serve(tr, workload.clone(), id)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_stream_runs_traced_and_passes_its_gates() {
        let size = Size {
            requests: 3_000,
            devices: 4,
            search_requests: 1_000,
            search_iters: 3,
            min_reps: 2,
        };
        let dir = std::env::temp_dir().join(format!("memcnn-benchmark-fs-{}", std::process::id()));
        let cfg = RunCfg { seed: 5, seconds: 0.0, trace: Some(dir.clone()) };
        let out = run(&cfg, &size);
        crate::assert_complete(&out);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 5_000);
        assert!(out.metrics["sim.capacity_per_s"] > 0.0);
        assert!(out.metrics["serve.events"] > 0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
