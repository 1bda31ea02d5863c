//! `paper-plan`: the paper's Fig-14 matrix, cold. Each repetition builds a
//! fresh Titan Black engine, empties the simulation cache, and plans the
//! five paper networks at their Table-1 batch sizes under all seven
//! mechanisms (Opt first, so its plan is the network's cold one). Set-up
//! is the §IV.A one-time profiling that derives the engine's `(Ct, Nt)`.
//! The networks are fixed by the paper: the seed changes nothing here.

use crate::clock::Stopwatch;
use crate::stats::{geomean, median, rate};
use crate::trace::{Tally, Tracer};
use crate::{Outcome, RunCfg};
use memcnn_core::{derive_thresholds, Engine, LayoutThresholds, Mechanism, Network, Plan};
use memcnn_gpusim::{simcache, simulate, DeviceConfig, SimOptions};
use memcnn_kernels::softmax::SoftmaxFused;
use memcnn_models::table1::{CLASS_LAYERS, CONV_LAYERS, POOL_LAYERS};
use memcnn_tensor::{Layout, Shape};
use std::time::Instant;

/// How much of the workload to run.
pub struct Size {
    /// The networks planned per repetition.
    pub nets: fn() -> Vec<Network>,
    /// Repetitions measured even when `--seconds` is already spent.
    pub min_reps: usize,
    /// Table-1 entries per layer kind the cache-off simulator probe uses.
    pub probe_entries: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size { nets: memcnn_models::all_networks, min_reps: 3, probe_entries: usize::MAX }
    }
}

/// One network's plans within a repetition.
struct NetPlans {
    opt: Plan,
    baselines: Vec<(Mechanism, f64)>,
}

struct Rep {
    secs: f64,
    plans: u64,
    failed: u64,
    nets: Vec<NetPlans>,
}

impl Rep {
    /// Bit patterns of every simulated total, for the cross-repetition
    /// identity check.
    fn totals(&self) -> Vec<u64> {
        self.nets
            .iter()
            .flat_map(|n| {
                std::iter::once(n.opt.total_time()).chain(n.baselines.iter().map(|b| b.1))
            })
            .map(f64::to_bits)
            .collect()
    }
}

fn rep(
    device: &DeviceConfig,
    th: LayoutThresholds,
    nets: &[Network],
    id: u64,
    tr: &mut Tracer,
) -> Rep {
    let t = Stopwatch::start();
    let mut out = Rep { secs: 0.0, plans: 0, failed: 0, nets: Vec::new() };
    tr.span("bench", &format!("repetition {id}"), id, |tr| {
        simcache::clear();
        let engine = Engine::new(device.clone(), th);
        let order = std::iter::once(Mechanism::Opt)
            .chain(Mechanism::ALL.into_iter().filter(|&m| m != Mechanism::Opt));
        for net in nets {
            let mut opt = None;
            let mut baselines = Vec::new();
            for mech in order.clone() {
                let name = format!("Engine::plan {} {}", net.name, mech.label());
                out.plans += 1;
                match tr.span("core", &name, id, |_| engine.plan(net, mech)) {
                    Ok(p) if mech == Mechanism::Opt => opt = Some(p),
                    Ok(p) => baselines.push((mech, p.total_time())),
                    Err(_) => out.failed += 1,
                }
            }
            if let Some(opt) = opt {
                out.nets.push(NetPlans { opt, baselines });
            }
        }
    });
    out.secs = t.secs();
    out
}

/// Cache-off simulation rates over the Table-1 layers, through the same
/// engine entry points planning uses.
fn simulator_probe(
    out: &mut Outcome,
    device: &DeviceConfig,
    th: LayoutThresholds,
    entries: usize,
    tr: &mut Tracer,
) {
    let opts = SimOptions { use_cache: false, ..SimOptions::default() };
    let engine = Engine::new(device.clone(), th).with_sim_options(opts);
    let [mut conv, mut pool, mut softmax, mut transform] = <[Tally; 4]>::default();
    let both = [(Mechanism::CudnnMm, Layout::NCHW), (Mechanism::CudaConvnet, Layout::CHWN)];
    let mut failed = 0;
    for e in CONV_LAYERS.iter().take(entries) {
        for (mech, layout) in both {
            let call = format!("Engine::conv_time {} {}", e.name, layout.name());
            let r =
                conv.time(tr, "gpu-sim", &call, 1.0, || engine.conv_time(&e.shape, mech, layout));
            failed += usize::from(r.is_err());
        }
        let input = Shape::new(e.shape.n, e.shape.ci, e.shape.h, e.shape.w);
        let call = format!("Engine::transform_time {}", e.name);
        let r = transform.time(tr, "gpu-sim", &call, 1.0, || {
            engine.transform_time(input, Layout::NCHW, Layout::CHWN)
        });
        failed += usize::from(r.is_err());
    }
    for e in POOL_LAYERS.iter().take(entries) {
        for (mech, layout) in both {
            let call = format!("Engine::pool_time {} {}", e.name, layout.name());
            let r =
                pool.time(tr, "gpu-sim", &call, 1.0, || engine.pool_time(&e.shape, mech, layout));
            failed += usize::from(r.is_err());
        }
    }
    for e in CLASS_LAYERS.iter().take(entries) {
        let call = format!("simulate SoftmaxFused {}", e.name);
        let r = softmax.time(tr, "gpu-sim", &call, 1.0, || {
            simulate(device, &SoftmaxFused::new(e.shape), &opts)
        });
        failed += usize::from(r.is_err());
    }
    out.check("every cache-off probe simulation succeeds", failed == 0, || {
        format!("{failed} failed")
    });
    out.set("gpu-sim.conv_sims_per_s", conv.rate());
    out.set("gpu-sim.pool_sims_per_s", pool.rate());
    out.set("gpu-sim.softmax_sims_per_s", softmax.rate());
    out.set("gpu-sim.transform_sims_per_s", transform.rate());
}

pub fn run(cfg: &RunCfg, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let device = DeviceConfig::titan_black();
    let opts = SimOptions::default();

    // Set-up: the one-time (Ct, Nt) profiling, cold, several times.
    let mut setup = Vec::new();
    let mut derived = Vec::new();
    while cfg.more_setups(&setup) {
        simcache::clear();
        let t = Stopwatch::start();
        derived.push(derive_thresholds(&device, &opts));
        setup.push(t.secs());
    }
    let paper = LayoutThresholds::titan_black_paper();
    let ok = derived.iter().all(|d| d.as_ref().is_ok_and(|th| *th == paper));
    out.check("profiled thresholds reproduce the paper's (Ct, Nt) = (32, 128)", ok, || {
        format!("derived {derived:?}")
    });
    out.set_host("setup_s", &setup);
    let th = paper;
    let nets = (size.nets)();

    // Measurement: cold matrices until the time budget is spent.
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while cfg.more(start, reps.len(), size.min_reps, reps.last().map_or(0.0, |r| r.secs)) {
        reps.push(rep(&device, th, &nets, reps.len() as u64, &mut Tracer::off()));
    }
    let first = &reps[0];
    out.attempted = reps.iter().map(|r| r.plans).sum();
    out.failed = reps.iter().map(|r| r.failed).sum();
    let failed = out.failed;
    out.check("every plan returns Ok", failed == 0, || format!("{failed} plans failed"));
    let same = reps.iter().all(|r| r.totals() == first.totals());
    out.check("simulated totals are bit-identical across repetitions", same, String::new);

    let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let plans_per_s: Vec<f64> = reps.iter().map(|r| rate(r.plans as f64, r.secs)).collect();
    out.note_host("plan.matrix_s", "s", &secs);
    out.set("ops_per_s", median(&plans_per_s));

    let mut speedups = Vec::new();
    let mut capacity = Vec::new();
    let mut met = 0;
    for n in &first.nets {
        let opt = n.opt.total_time();
        let best = n.baselines.iter().map(|b| b.1).fold(f64::INFINITY, f64::min);
        let claim = n.baselines.iter().all(|b| opt <= b.1);
        out.check(&format!("Opt <= every baseline on {} (Fig 14)", n.opt.network), claim, || {
            format!("Opt {:.4} ms vs {:?}", opt * 1e3, n.baselines)
        });
        met += usize::from(claim);
        speedups.push(best / opt);
        capacity.push(n.opt.batch as f64 / opt);
        out.note(&format!("sim.opt_ms.{}", n.opt.network), opt * 1e3, "ms");
        out.note(&format!("sim.best_baseline_ms.{}", n.opt.network), best * 1e3, "ms");
    }
    out.set("sim.opt_speedup", geomean(&speedups));
    // The tail of the matrix: the network on which Opt gains least.
    let worst = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("sim.tail_latency_ratio", 1.0 / worst);
    out.set("sim.capacity_per_s", geomean(&capacity));
    out.set("sim.slo_attainment", rate(met as f64, first.nets.len() as f64));

    if let Some(dir) = &cfg.trace {
        let mut tr = Tracer::on();
        let before = simcache::stats();
        let traced = rep(&device, th, &nets, reps.len() as u64, &mut tr);
        let after = simcache::stats();
        out.set("gpu-sim.cold_sims", (after.cold - before.cold) as f64);
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        out.set("gpu-sim.cache_hit_rate", rate(hits as f64, (hits + misses) as f64));
        out.set("bench.trace_overhead", traced.secs / median(&secs) - 1.0);
        for n in &traced.nets {
            let net = &n.opt.network;
            let opt_secs = tr.total_secs(&format!("Engine::plan {net} Opt"));
            let best = n.baselines.iter().map(|b| b.1).fold(f64::INFINITY, f64::min);
            out.set(&format!("core.plans_per_s.{net}"), rate(1.0, opt_secs));
            out.set(&format!("sim.speedup.{net}"), best / n.opt.total_time());
        }
        let baseline_plans = traced.nets.iter().map(|n| n.baselines.len()).sum::<usize>();
        let all = tr.total_secs("Engine::plan");
        let opt_all: f64 = traced
            .nets
            .iter()
            .map(|n| tr.total_secs(&format!("Engine::plan {} Opt", n.opt.network)))
            .sum();
        out.set("core.plans_per_s.baselines", rate(baseline_plans as f64, all - opt_all));
        let shares = opt_time_shares(traced.nets.iter().map(|n| &n.opt));
        for (name, share) in ["conv", "pool", "softmax", "transform"].iter().zip(shares) {
            out.set(&format!("sim.opt_share.{name}"), share);
        }
        simulator_probe(&mut out, &device, th, size.probe_entries, &mut tr);
        out.write_trace(&tr, dir, "paper-plan");
    }
    out
}

/// Shares of the Opt plans' summed simulated time spent in convolution,
/// pooling, softmax and inserted layout transformations.
fn opt_time_shares<'a>(plans: impl Iterator<Item = &'a Plan>) -> [f64; 4] {
    let mut t = [0.0f64; 4];
    let mut total = 0.0;
    for p in plans {
        total += p.total_time();
        for l in &p.layers {
            t[3] += l.transform_before;
            if l.is_conv {
                t[0] += l.time;
            } else if l.impl_name.starts_with("pool") {
                t[1] += l.time;
            } else if l.impl_name.starts_with("softmax") {
                t[2] += l.time;
            }
        }
    }
    t.map(|x| rate(x, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_paper_plan_runs_traced_and_passes_its_gates() {
        let size = Size {
            nets: || vec![memcnn_models::lenet().expect("LeNet builds")],
            min_reps: 2,
            probe_entries: 1,
        };
        let dir = std::env::temp_dir().join(format!("memcnn-benchmark-pp-{}", std::process::id()));
        let cfg = RunCfg { seed: 1, seconds: 0.0, trace: Some(dir.clone()) };
        let out = run(&cfg, &size);
        crate::assert_complete(&out);
        assert_eq!((out.attempted, out.failed), (14, 0));
        assert!(out.metrics["sim.opt_speedup"] >= 1.0);
        assert!(out.metrics["core.plans_per_s.LeNet"] > 0.0);
        assert!(out.metrics["gpu-sim.conv_sims_per_s"] > 0.0);
        assert!(dir.join("paper-plan.trace.json").exists());
        let _ = std::fs::remove_dir_all(dir);
    }
}
