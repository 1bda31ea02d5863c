//! Functional network execution: actually computes the network on tensors,
//! honouring per-layer layout assignments (converting between layouts at
//! boundaries exactly where the engine would insert transformation
//! kernels). Used to verify that mixed-layout execution is semantically
//! identical to fixed-layout execution — the correctness side of §IV.D.

use crate::layer::LayerSpec;
use crate::net::Network;
use memcnn_kernels::conv::{conv_forward, ConvError};
use memcnn_kernels::layers::{fc_forward, lrn_forward, relu_in_place};
use memcnn_kernels::pool::pool_forward;
use memcnn_kernels::softmax::softmax_forward;
use memcnn_kernels::SoftmaxShape;
use memcnn_tensor::{Layout, Tensor};
use memcnn_trace as trace;
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

/// Errors from functional execution.
#[derive(Debug)]
pub enum ExecError {
    /// Input tensor does not match the network's declared input shape.
    BadInput(String),
    /// Layout assignment list has the wrong length.
    BadLayouts(String),
    /// A convolution failed.
    Conv(ConvError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadInput(m) => write!(f, "bad input: {m}"),
            ExecError::BadLayouts(m) => write!(f, "bad layouts: {m}"),
            ExecError::Conv(e) => write!(f, "convolution failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ConvError> for ExecError {
    fn from(e: ConvError) -> Self {
        ExecError::Conv(e)
    }
}

/// Deterministic per-layer weights (synthetic stand-ins for trained
/// parameters; every reproduced measurement depends only on shapes).
pub fn layer_weights(net: &Network, index: usize, seed: u64) -> Option<Tensor> {
    let layer = &net.layers()[index];
    match layer.spec {
        LayerSpec::Conv { .. } => {
            let s = layer.conv_shape().expect("conv");
            Some(Tensor::random(s.filter_shape(), Layout::NCHW, seed ^ ((index as u64) << 8)))
        }
        _ => None,
    }
}

/// Run the network functionally. `layouts` assigns the working layout of
/// each layer (e.g. all-`NCHW`, all-`CHWN`, or the engine's mixed
/// assignment); tensors are converted at boundaries. Returns the final
/// output as a flat vector in logical `(n, c, h, w)` order.
pub fn run_network(
    net: &Network,
    input: &Tensor,
    layouts: &[Layout],
    seed: u64,
) -> Result<Vec<f32>, ExecError> {
    if input.shape() != net.input {
        return Err(ExecError::BadInput(format!("expected {}, got {}", net.input, input.shape())));
    }
    if layouts.len() != net.layers().len() {
        return Err(ExecError::BadLayouts(format!(
            "{} layouts for {} layers",
            layouts.len(),
            net.layers().len()
        )));
    }
    let _run_scope = trace::scope_with(|| trace::Scope::Run(net.name.clone()));
    let run_start = Instant::now();
    // The input is borrowed until the first layer produces a tensor.
    let mut cur = Cow::Borrowed(input);
    let mut flat: Option<Vec<f32>> = None; // set once FC flattens
    for (i, (layer, &layout)) in net.layers().iter().zip(layouts).enumerate() {
        let layer_start = Instant::now();
        match &layer.spec {
            LayerSpec::Conv { .. } => {
                let s = layer.conv_shape().expect("conv");
                let w = layer_weights(net, i, seed).expect("conv weights");
                let x = cur.as_layout(layout);
                cur = Cow::Owned(conv_forward(&x, &w, &s, layout)?);
            }
            LayerSpec::Pool { op, .. } => {
                let s = layer.pool_shape().expect("pool");
                let x = cur.as_layout(layout);
                cur = Cow::Owned(pool_forward(&x, &s, *op, layout));
            }
            LayerSpec::ReLU => {
                relu_in_place(cur.to_mut());
            }
            LayerSpec::Lrn { size } => {
                cur = Cow::Owned(lrn_forward(&cur, *size, 1e-4, 0.75, 2.0));
            }
            LayerSpec::Fc { outputs } => {
                let per_image = layer.input.c * layer.input.h * layer.input.w;
                let w: Vec<f32> = {
                    let t = Tensor::random(
                        memcnn_tensor::Shape::new(1, 1, *outputs, per_image),
                        Layout::NCHW,
                        seed ^ ((index_hash(i)) << 16),
                    );
                    t.into_vec()
                };
                let out = fc_forward(&cur, &w, *outputs);
                // Re-tensorize as (n, outputs, 1, 1).
                cur = Cow::Owned(
                    Tensor::from_vec(layer.output, Layout::NCHW, out).expect("fc output length"),
                );
            }
            LayerSpec::Softmax => {
                let s = layer.softmax_shape().expect("softmax");
                let probs = softmax_forward(cur.as_layout(Layout::NCHW).as_slice(), s);
                flat = Some(probs);
            }
        }
        trace::record_span(|| trace::SpanEvent {
            name: layer.name.clone(),
            track: trace::Track::Exec,
            ts_us: layer_start.duration_since(run_start).as_secs_f64() * 1e6,
            dur_us: layer_start.elapsed().as_secs_f64() * 1e6,
            args: vec![("layout".into(), layout.name().into())],
        });
    }
    Ok(match flat {
        Some(v) => v,
        None => tensor_to_logical_vec(&cur),
    })
}

/// Run the network functionally under a compiled [`crate::engine::Plan`]'s
/// layout assignment — the plan-reuse entry point: callers that already
/// planned (serving, benches) execute without re-deriving layouts.
pub fn run_network_planned(
    net: &Network,
    input: &Tensor,
    plan: &crate::engine::Plan,
    seed: u64,
) -> Result<Vec<f32>, ExecError> {
    if plan.layers.len() != net.layers().len() {
        return Err(ExecError::BadLayouts(format!(
            "plan for {} has {} layers, network {} has {}",
            plan.network,
            plan.layers.len(),
            net.name,
            net.layers().len()
        )));
    }
    run_network(net, input, &plan.layouts(), seed)
}

fn index_hash(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Flatten a tensor to logical `(n, c, h, w)` order.
pub fn tensor_to_logical_vec(t: &Tensor) -> Vec<f32> {
    t.iter_logical().map(|(_, v)| v).collect()
}

/// Check that a softmax output is a valid probability distribution per row.
pub fn assert_valid_probabilities(probs: &[f32], shape: SoftmaxShape, tol: f32) -> bool {
    probs.len() == shape.len()
        && probs.chunks(shape.categories).all(|row| {
            let sum: f32 = row.iter().sum();
            (sum - 1.0).abs() <= tol && row.iter().all(|&p| (0.0..=1.0 + tol).contains(&p))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkBuilder;
    use memcnn_tensor::Shape;

    fn tiny_net() -> Network {
        NetworkBuilder::new("tiny", Shape::new(4, 3, 12, 12))
            .conv("cv1", 8, 3, 1, 0)
            .relu("r1")
            .max_pool("pl1", 2, 2)
            .conv("cv2", 16, 3, 1, 1)
            .lrn("lrn", 5)
            .max_pool("pl2", 5, 5)
            .fc("fc", 10)
            .softmax("prob")
            .build()
            .unwrap()
    }

    #[test]
    fn output_is_a_probability_distribution() {
        let net = tiny_net();
        let input = Tensor::random(net.input, Layout::NCHW, 1);
        let layouts = vec![Layout::NCHW; net.layers().len()];
        let out = run_network(&net, &input, &layouts, 42).unwrap();
        assert!(assert_valid_probabilities(&out, SoftmaxShape::new(4, 10), 1e-4));
    }

    #[test]
    fn mixed_layouts_give_identical_results() {
        // The §IV.D correctness property: inserting layout transformations
        // never changes values.
        let net = tiny_net();
        let input = Tensor::random(net.input, Layout::NCHW, 2);
        let n = net.layers().len();
        let all_nchw = run_network(&net, &input, &vec![Layout::NCHW; n], 7).unwrap();
        let all_chwn = run_network(&net, &input, &vec![Layout::CHWN; n], 7).unwrap();
        let mixed: Vec<Layout> =
            (0..n).map(|i| if i % 2 == 0 { Layout::CHWN } else { Layout::NCHW }).collect();
        let alternating = run_network(&net, &input, &mixed, 7).unwrap();
        for ((a, b), c) in all_nchw.iter().zip(&all_chwn).zip(&alternating) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn planned_execution_matches_explicit_layouts() {
        use crate::heuristic::LayoutThresholds;
        use crate::library::Mechanism;
        use memcnn_gpusim::DeviceConfig;

        let net = tiny_net();
        let engine =
            crate::Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
        let plan = engine.plan(&net, Mechanism::Opt).unwrap();
        let input = Tensor::random(net.input, Layout::NCHW, 3);
        let planned = run_network_planned(&net, &input, &plan, 11).unwrap();
        let explicit = run_network(&net, &input, &plan.layouts(), 11).unwrap();
        assert_eq!(planned, explicit);
        // A plan for a different architecture is rejected.
        let other = NetworkBuilder::new("other", Shape::new(4, 3, 12, 12))
            .conv("cv", 8, 3, 1, 0)
            .build()
            .unwrap();
        let bad = engine.plan(&other, Mechanism::Opt).unwrap();
        assert!(matches!(
            run_network_planned(&net, &input, &bad, 11),
            Err(ExecError::BadLayouts(_))
        ));
    }

    #[test]
    fn input_shape_is_validated() {
        let net = tiny_net();
        let bad = Tensor::zeros(Shape::new(4, 3, 10, 10), Layout::NCHW);
        let layouts = vec![Layout::NCHW; net.layers().len()];
        assert!(matches!(run_network(&net, &bad, &layouts, 0), Err(ExecError::BadInput(_))));
        let input = Tensor::zeros(net.input, Layout::NCHW);
        assert!(matches!(
            run_network(&net, &input, &[Layout::NCHW], 0),
            Err(ExecError::BadLayouts(_))
        ));
    }

    #[test]
    fn distinct_layers_get_distinct_weight_seeds() {
        // Two convolutions with identical filter shapes must still draw
        // different weights: the per-layer seed is `seed ^ (index << 8)`,
        // which must vary with the layer index.
        let net = NetworkBuilder::new("twin", Shape::new(2, 8, 8, 8))
            .conv("cv1", 8, 3, 1, 1)
            .conv("cv2", 8, 3, 1, 1)
            .conv("cv3", 8, 3, 1, 1)
            .build()
            .unwrap();
        let w0 = layer_weights(&net, 0, 9).unwrap();
        let w1 = layer_weights(&net, 1, 9).unwrap();
        let w2 = layer_weights(&net, 2, 9).unwrap();
        assert_eq!(w0.shape(), w1.shape());
        assert_ne!(w0.as_slice(), w1.as_slice());
        assert_ne!(w1.as_slice(), w2.as_slice());
        assert_ne!(w0.as_slice(), w2.as_slice());
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let net = tiny_net();
        let a = layer_weights(&net, 0, 5).unwrap();
        let b = layer_weights(&net, 0, 5).unwrap();
        let c = layer_weights(&net, 0, 6).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        assert!(layer_weights(&net, 1, 5).is_none()); // relu has no weights
    }
}
