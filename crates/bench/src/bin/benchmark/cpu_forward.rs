//! `cpu-forward`: the functional CIFAR-10 forward pass at batch 128 on the
//! host CPU (`core::exec::run_network`), under the layouts Opt's plan
//! assigns and under all-NCHW and all-CHWN. Each round times one pass per
//! layout after one untimed warm-up pass each. Set-up is the cold Opt plan
//! plus the seeded input batch. The seed picks the input images and the
//! synthetic weights.

use crate::clock::Stopwatch;
use crate::stats::{median, rate};
use crate::trace::{Tally, Tracer};
use crate::{Outcome, RunCfg};
use memcnn_core::exec::{assert_valid_probabilities, layer_weights, run_network};
use memcnn_core::{Engine, LayerSpec, LayoutThresholds, Mechanism, Network};
use memcnn_gpusim::{simcache, DeviceConfig};
use memcnn_kernels::conv::conv_forward;
use memcnn_kernels::im2col::im2col;
use memcnn_kernels::layers::{fc_forward, relu_forward};
use memcnn_kernels::matmul::sgemm;
use memcnn_kernels::pool::pool_forward;
use memcnn_kernels::softmax::softmax_forward;
use memcnn_tensor::{Layout, Shape, Tensor};
use std::time::Instant;

/// How much of the workload to run.
pub struct Size {
    /// The network run forward (its input batch is the batch size).
    pub net: fn() -> Network,
    /// Timed rounds measured even when `--seconds` is already spent.
    pub min_rounds: usize,
    /// Repetitions of each direct kernel call in the traced run.
    pub probe_reps: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Size {
        Size {
            net: || memcnn_models::cifar10().expect("CIFAR builds"),
            min_rounds: 3,
            probe_reps: 1,
        }
    }
}

/// Layout assignments compared, Opt's first.
const VARIANTS: [&str; 3] = ["opt", "nchw", "chwn"];

/// Probability rows must sum to 1 within this (`tests/end_to_end.rs`).
const PROB_TOL: f32 = 1e-4;
/// Layout variants must agree elementwise within this.
const AGREE_TOL: f32 = 1e-3;

pub fn run(cfg: &RunCfg, size: &Size) -> Outcome {
    let mut out = Outcome::default();
    let device = DeviceConfig::titan_black();
    let th = LayoutThresholds::titan_black_paper();

    // Set-up: build the network, plan it cold under Opt, make the batch.
    let mut setup = Vec::new();
    let mut state = None;
    while cfg.more_setups(&setup) {
        simcache::clear();
        let t = Stopwatch::start();
        let net = (size.net)();
        let engine = Engine::new(device.clone(), th);
        let plan = engine.plan(&net, Mechanism::Opt);
        let input = Tensor::random(net.input, Layout::NCHW, cfg.seed);
        setup.push(t.secs());
        state = Some((net, engine, plan, input));
    }
    out.set_host("setup_s", &setup);
    let (net, engine, plan, input) = state.expect("at least one set-up");
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            out.check("Opt plan compiles", false, || e.to_string());
            return out;
        }
    };

    // What the simulator predicts for the same network on the Titan Black.
    let opt = plan.total_time();
    let baselines: Vec<f64> = Mechanism::ALL
        .iter()
        .filter(|&&m| m != Mechanism::Opt)
        .filter_map(|&m| engine.plan(&net, m).ok().map(|p| p.total_time()))
        .collect();
    let best = baselines.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("sim.opt_speedup", best / opt);
    out.set("sim.tail_latency_ratio", opt / best);
    out.set("sim.capacity_per_s", net.input.n as f64 / opt);
    let claim = baselines.len() == Mechanism::ALL.len() - 1 && baselines.iter().all(|&b| opt <= b);
    out.set("sim.slo_attainment", f64::from(u8::from(claim)));

    let n = net.layers().len();
    let layouts = [plan.layouts(), vec![Layout::NCHW; n], vec![Layout::CHWN; n]];
    let batch = net.input.n as f64;
    let softmax = net.layers().last().and_then(|l| l.softmax_shape());
    let pass = |out: &mut Outcome, tr: &mut Tracer, v: usize, id: u64| {
        let t = Stopwatch::start();
        let name = format!("exec::run_network {}", VARIANTS[v]);
        let result =
            tr.span("core", &name, id, |_| run_network(&net, &input, &layouts[v], cfg.seed));
        let secs = t.secs();
        out.attempted += 1;
        let valid = match (&result, softmax) {
            (Ok(p), Some(s)) => assert_valid_probabilities(p, s, PROB_TOL),
            _ => false,
        };
        if !valid {
            out.failed += 1;
        }
        (result.unwrap_or_default(), secs)
    };

    // Warm-up pass per layout: the reference outputs.
    let reference: Vec<Vec<f32>> =
        (0..VARIANTS.len()).map(|v| pass(&mut out, &mut Tracer::off(), v, 0).0).collect();
    for (v, probs) in reference.iter().enumerate().skip(1) {
        let diff = max_abs_diff(&reference[0], probs);
        out.check(
            &format!("{} output agrees with opt within {AGREE_TOL}", VARIANTS[v]),
            diff <= AGREE_TOL,
            || format!("max |diff| {diff}"),
        );
    }

    // Timed rounds: one pass per layout, outputs identical to the warm-up.
    let start = Instant::now();
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut drift = 0;
    let mut last = 0.0;
    while cfg.more(start, secs[0].len(), size.min_rounds, last) {
        let round = Instant::now();
        for (v, times) in secs.iter_mut().enumerate() {
            let (probs, t) = pass(&mut out, &mut Tracer::off(), v, times.len() as u64 + 1);
            drift += usize::from(probs != reference[v]);
            times.push(t);
        }
        last = round.elapsed().as_secs_f64();
    }
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(&format!("outputs are valid probabilities within {PROB_TOL}"), failed == 0, || {
        format!("{failed} of {attempted} passes invalid")
    });
    out.check("outputs are bit-identical across passes", drift == 0, || {
        format!("{drift} passes differ")
    });
    let images_per_s = |t: &Vec<f64>| t.iter().map(|&s| rate(batch, s)).collect::<Vec<_>>();
    for (v, times) in VARIANTS.iter().zip(&secs) {
        out.note_host(&format!("cpu.{v}.images_per_s"), "img/s", &images_per_s(times));
    }
    // Whole rounds: one pass per layout, so a slow moment on the host
    // weighs on one round rather than on one layout's few samples.
    let rounds: Vec<f64> = (0..secs[0].len()).map(|i| secs.iter().map(|s| s[i]).sum()).collect();
    let per_round = batch * VARIANTS.len() as f64;
    out.set("ops_per_s", median(&rounds.iter().map(|&s| rate(per_round, s)).collect::<Vec<_>>()));

    if let Some(dir) = &cfg.trace {
        let mut tr = Tracer::on();
        let id = secs[0].len() as u64 + 1;
        let t = Stopwatch::start();
        tr.span("bench", &format!("round {id}"), id, |tr| {
            for v in 0..VARIANTS.len() {
                pass(&mut out, tr, v, id);
            }
        });
        let round = t.secs();
        out.set("bench.trace_overhead", round / median(&rounds) - 1.0);
        kernel_probes(&mut out, &mut tr, &net, cfg.seed, size.probe_reps);
        out.write_trace(&tr, dir, "cpu-forward");
    }
    out
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

const F32: f64 = std::mem::size_of::<f32>() as f64;

fn bytes(shape: Shape) -> f64 {
    shape.len() as f64 * F32
}

/// Per-kind tallies of the direct kernel calls.
#[derive(Default)]
struct Probes {
    conv: [Tally; 2],
    pool: [Tally; 2],
    im2col: Tally,
    sgemm: Tally,
    fc: Tally,
    relu: Tally,
    softmax: Tally,
    relayout: Tally,
}

/// Direct calls into the kernels and tensor crates on every layer of
/// `net`, with the layer's own shapes: the per-kernel rates behind the
/// forward pass.
fn kernel_probes(out: &mut Outcome, tr: &mut Tracer, net: &Network, seed: u64, reps: usize) {
    let mut p = Probes::default();
    let both = [Layout::NCHW, Layout::CHWN];
    for (i, layer) in net.layers().iter().enumerate() {
        let x = Tensor::random(layer.input, Layout::NCHW, seed ^ i as u64);
        let (name, in_bytes) = (&layer.name, bytes(layer.input));
        for _ in 0..reps {
            match &layer.spec {
                LayerSpec::Conv { .. } => {
                    let s = layer.conv_shape().expect("conv layer has a conv shape");
                    let w = layer_weights(net, i, seed).expect("conv layer has weights");
                    for (k, layout) in both.into_iter().enumerate() {
                        let xl = x.to_layout(layout);
                        let call = format!("conv_forward {name} {}", layout.name());
                        let _ = p.conv[k].time(tr, "kernels", &call, s.flops() as f64, || {
                            conv_forward(&xl, &w, &s, layout)
                        });
                    }
                    let (k, m) = (s.ci * s.fh * s.fw, s.n * s.out_h() * s.out_w());
                    let moved = in_bytes + (k * m) as f64 * F32;
                    let col =
                        p.im2col.time(tr, "kernels", &format!("im2col {name}"), moved, || {
                            im2col(&x, &s)
                        });
                    let flops = 2.0 * (s.co * k * m) as f64;
                    p.sgemm.time(tr, "kernels", &format!("sgemm {name}"), flops, || {
                        sgemm(s.co, k, m, w.as_slice(), &col)
                    });
                }
                LayerSpec::Pool { op, .. } => {
                    let s = layer.pool_shape().expect("pool layer has a pool shape");
                    let moved = in_bytes + bytes(layer.output);
                    for (k, layout) in both.into_iter().enumerate() {
                        let xl = x.to_layout(layout);
                        let call = format!("pool_forward {name} {}", layout.name());
                        p.pool[k].time(tr, "kernels", &call, moved, || {
                            pool_forward(&xl, &s, *op, layout)
                        });
                    }
                }
                LayerSpec::ReLU => {
                    let call = format!("relu_forward {name}");
                    p.relu.time(tr, "kernels", &call, 2.0 * in_bytes, || relu_forward(&x));
                }
                LayerSpec::Fc { outputs } => {
                    let per_image = layer.input.c * layer.input.h * layer.input.w;
                    let w =
                        Tensor::random(Shape::new(1, 1, *outputs, per_image), Layout::NCHW, seed);
                    let flops = 2.0 * (layer.input.n * per_image * outputs) as f64;
                    p.fc.time(tr, "kernels", &format!("fc_forward {name}"), flops, || {
                        fc_forward(&x, w.as_slice(), *outputs)
                    });
                }
                LayerSpec::Softmax => {
                    let s = layer.softmax_shape().expect("softmax layer has a shape");
                    let call = format!("softmax_forward {name}");
                    p.softmax.time(tr, "kernels", &call, 2.0 * in_bytes, || {
                        softmax_forward(x.as_slice(), s)
                    });
                }
                LayerSpec::Lrn { .. } => {}
            }
            if layer.layout_sensitive() {
                for layout in both {
                    let src = x.to_layout(if layout == Layout::NCHW {
                        Layout::CHWN
                    } else {
                        Layout::NCHW
                    });
                    let call = format!("Tensor::to_layout {name} {}", layout.name());
                    p.relayout.time(tr, "tensor", &call, 2.0 * in_bytes, || src.to_layout(layout));
                }
            }
        }
    }
    out.set("kernels.conv_gflops.nchw", p.conv[0].rate() / 1e9);
    out.set("kernels.conv_gflops.chwn", p.conv[1].rate() / 1e9);
    out.set("kernels.pool_gbs.nchw", p.pool[0].rate() / 1e9);
    out.set("kernels.pool_gbs.chwn", p.pool[1].rate() / 1e9);
    out.set("kernels.im2col_gbs", p.im2col.rate() / 1e9);
    out.set("kernels.sgemm_gflops", p.sgemm.rate() / 1e9);
    out.set("kernels.fc_gflops", p.fc.rate() / 1e9);
    out.set("kernels.relu_gbs", p.relu.rate() / 1e9);
    out.set("kernels.softmax_gbs", p.softmax.rate() / 1e9);
    out.set("tensor.relayout_gbs", p.relayout.rate() / 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_core::NetworkBuilder;

    #[test]
    fn tiny_cpu_forward_runs_traced_and_passes_its_gates() {
        let size = Size {
            net: || {
                NetworkBuilder::new("tiny", Shape::new(4, 3, 12, 12))
                    .conv("cv1", 8, 3, 1, 1)
                    .relu("r1")
                    .max_pool("pl1", 2, 2)
                    .conv("cv2", 8, 3, 1, 1)
                    .max_pool("pl2", 2, 2)
                    .fc("fc", 10)
                    .softmax("prob")
                    .build()
                    .expect("tiny net builds")
            },
            min_rounds: 2,
            probe_reps: 1,
        };
        let dir = std::env::temp_dir().join(format!("memcnn-benchmark-cf-{}", std::process::id()));
        let cfg = RunCfg { seed: 3, seconds: 0.0, trace: Some(dir.clone()) };
        let out = run(&cfg, &size);
        crate::assert_complete(&out);
        // Warm-up + two rounds + the traced round, three layouts each.
        assert_eq!((out.attempted, out.failed), (12, 0));
        for m in
            ["ops_per_s", "kernels.conv_gflops.chwn", "kernels.sgemm_gflops", "tensor.relayout_gbs"]
        {
            assert!(out.metrics[m] > 0.0, "{m}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
