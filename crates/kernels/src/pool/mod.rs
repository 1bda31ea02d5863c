//! Pooling-layer kernels.
//!
//! §IV.B and §V.A: pooling is memory-bound; on `CHWN` the warp runs along
//! `N` and coalesces perfectly, on `NCHW` the window walk produces strided,
//! partially-coalesced accesses; overlapped windows re-load shared input
//! elements unless threads are coarsened to reuse them in registers.
//!
//! - [`pool_forward`], [`pool_backward_avg`], [`pool_backward_max`]:
//!   functional semantics (any layout).
//! - [`chwn::PoolChwn`]: cuda-convnet-style kernel spec (optionally
//!   coarsened — the paper's `Opt`).
//! - [`nchw::PoolNchwCaffe`], [`nchw::PoolNchwCudnn`]: the two NCHW
//!   baselines of Fig 6/12.

pub mod chwn;
pub mod nchw;

use crate::shapes::PoolShape;
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;

/// Pooling operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolOp {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window (Eq. 2 of the paper).
    Avg,
}

/// Functional pooling; accepts any input layout and produces `out_layout`.
/// A `CHWN` input is pooled in place along its `N`-innermost rows, any
/// other as NCHW planes (converted first unless it is NCHW); the result is
/// relaid once if `out_layout` differs. Every output visits its window's
/// taps in `ky`-then-`kx` order and averages over the clamped count, so
/// both paths give the same bits.
pub fn pool_forward(input: &Tensor, shape: &PoolShape, op: PoolOp, out_layout: Layout) -> Tensor {
    assert_eq!(input.shape(), shape.input_shape(), "input shape mismatch");
    let (layout, out) = if input.layout() == Layout::CHWN {
        (Layout::CHWN, pool_rows(input.as_slice(), shape, op))
    } else {
        (Layout::NCHW, pool_planes(input.as_layout(Layout::NCHW).as_slice(), shape, op))
    };
    Tensor::from_vec(shape.output_shape(), layout, out)
        .expect("length matches shape by construction")
        .into_layout(out_layout)
}

impl PoolOp {
    /// The accumulator before the first tap.
    fn init(self) -> f32 {
        match self {
            PoolOp::Max => f32::NEG_INFINITY,
            PoolOp::Avg => 0.0,
        }
    }

    /// Fold the taps of one window position into `acc`, lane by lane.
    fn fold<'a>(self, acc: &mut [f32], taps: impl Iterator<Item = &'a f32>) {
        match self {
            PoolOp::Max => acc.iter_mut().zip(taps).for_each(|(a, &v)| *a = a.max(v)),
            PoolOp::Avg => acc.iter_mut().zip(taps).for_each(|(a, &v)| *a += v),
        }
    }
}

/// In-bounds taps of output `(oy, ox)`'s clamped window: the divisor of
/// average pooling (cuda-convnet's convention: padding is excluded).
fn window_count(shape: &PoolShape, oy: usize, ox: usize) -> f32 {
    let rows = shape.window.min(shape.h - oy * shape.stride);
    let cols = shape.window.min(shape.w - ox * shape.stride);
    (rows * cols) as f32
}

/// NCHW pooling, parallel over `(n, c)` planes, one output row at a time:
/// each tap `(ky, kx)` folds into every output of the row whose window
/// still covers it, so each output sees its taps in `ky`-then-`kx` order.
fn pool_planes(x: &[f32], shape: &PoolShape, op: PoolOp) -> Vec<f32> {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (w, stride) = (shape.w, shape.stride);
    let in_plane = shape.h * w;
    let mut out = vec![0f32; shape.n * shape.c * oh * ow];
    out.par_chunks_mut(oh * ow).enumerate().for_each(|(plane, dst)| {
        let src = &x[plane * in_plane..][..in_plane];
        for (oy, acc) in dst.chunks_exact_mut(ow).enumerate() {
            acc.fill(op.init());
            for iy in (oy * stride..shape.h).take(shape.window) {
                let row = &src[iy * w..][..w];
                for kx in 0..shape.window.min(w) {
                    // Outputs whose tap ox * stride + kx is inside the row.
                    let covered = (w - kx).div_ceil(stride).min(ow);
                    op.fold(&mut acc[..covered], row[kx..].iter().step_by(stride));
                }
            }
            if op == PoolOp::Avg {
                for (ox, a) in acc.iter_mut().enumerate() {
                    *a /= window_count(shape, oy, ox);
                }
            }
        }
    });
    out
}

/// CHWN pooling along the `N`-innermost rows, parallel over channels.
fn pool_rows(x: &[f32], shape: &PoolShape, op: PoolOp) -> Vec<f32> {
    let (oh, ow, n) = (shape.out_h(), shape.out_w(), shape.n);
    let in_channel = shape.h * shape.w * n;
    let mut out = vec![0f32; shape.c * oh * ow * n];
    out.par_chunks_mut(oh * ow * n).enumerate().for_each(|(c, dst)| {
        let src = &x[c * in_channel..][..in_channel];
        for (i, acc) in dst.chunks_exact_mut(n).enumerate() {
            let (oy, ox) = (i / ow, i % ow);
            acc.fill(op.init());
            for iy in (oy * shape.stride..shape.h).take(shape.window) {
                for ix in (ox * shape.stride..shape.w).take(shape.window) {
                    op.fold(acc, src[(iy * shape.w + ix) * n..][..n].iter());
                }
            }
            if op == PoolOp::Avg {
                let count = window_count(shape, oy, ox);
                acc.iter_mut().for_each(|a| *a /= count);
            }
        }
    });
    out
}

/// Backward pass of average pooling: distribute each output gradient
/// uniformly over its window (overlaps accumulate).
pub fn pool_backward_avg(grad_out: &Tensor, shape: &PoolShape, out_layout: Layout) -> Tensor {
    assert_eq!(grad_out.shape(), shape.output_shape(), "grad shape mismatch");
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut grad_in = Tensor::zeros(shape.input_shape(), out_layout);
    for n in 0..shape.n {
        for c in 0..shape.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let taps: Vec<(usize, usize)> = window_taps(shape, oy, ox).collect();
                    let g = grad_out.get(n, c, oy, ox) / taps.len() as f32;
                    for (iy, ix) in taps {
                        let v = grad_in.get(n, c, iy, ix) + g;
                        grad_in.set(n, c, iy, ix, v);
                    }
                }
            }
        }
    }
    grad_in
}

/// In-bounds input taps of one output's (possibly clamped) window.
fn window_taps(
    shape: &PoolShape,
    oy: usize,
    ox: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let y0 = oy * shape.stride;
    let x0 = ox * shape.stride;
    (y0..(y0 + shape.window).min(shape.h))
        .flat_map(move |iy| (x0..(x0 + shape.window).min(shape.w)).map(move |ix| (iy, ix)))
}

/// Backward pass of max pooling: route each output gradient to the argmax
/// input position (first-wins tie-breaking, as in Caffe).
pub fn pool_backward_max(
    input: &Tensor,
    grad_out: &Tensor,
    shape: &PoolShape,
    out_layout: Layout,
) -> Tensor {
    assert_eq!(input.shape(), shape.input_shape());
    assert_eq!(grad_out.shape(), shape.output_shape());
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut grad_in = Tensor::zeros(shape.input_shape(), out_layout);
    for n in 0..shape.n {
        for c in 0..shape.c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut arg = (0, 0);
                    for (iy, ix) in window_taps(shape, oy, ox) {
                        let v = input.get(n, c, iy, ix);
                        if v > best {
                            best = v;
                            arg = (iy, ix);
                        }
                    }
                    let v = grad_in.get(n, c, arg.0, arg.1) + grad_out.get(n, c, oy, ox);
                    grad_in.set(n, c, arg.0, arg.1, v);
                }
            }
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_tensor::Shape;

    #[test]
    fn max_pool_simple() {
        let s = PoolShape::table1(1, 4, 2, 1, 2);
        let input = Tensor::from_fn(s.input_shape(), Layout::NCHW, |_, _, h, w| (h * 4 + w) as f32);
        let out = pool_forward(&input, &s, PoolOp::Max, Layout::NCHW);
        assert_eq!(out.shape(), Shape::new(1, 1, 2, 2));
        assert_eq!(out.get(0, 0, 0, 0), 5.0);
        assert_eq!(out.get(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn avg_pool_simple() {
        let s = PoolShape::table1(1, 4, 2, 1, 2);
        let input = Tensor::full(s.input_shape(), Layout::NCHW, 3.0);
        let out = pool_forward(&input, &s, PoolOp::Avg, Layout::NCHW);
        for (_, v) in out.iter_logical() {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn overlapped_windows_share_elements() {
        // 5x5, win 3, stride 2 -> 2x2 outputs; all windows share (2,2).
        let input = Tensor::from_fn(Shape::new(1, 1, 5, 5), Layout::NCHW, |_, _, h, w| {
            if (h, w) == (2, 2) {
                100.0
            } else {
                (h * 5 + w) as f32
            }
        });
        let out =
            pool_forward(&input, &PoolShape::table1(1, 5, 3, 1, 2), PoolOp::Max, Layout::NCHW);
        // The shared center element dominates all four windows.
        for (_, v) in out.iter_logical() {
            assert_eq!(v, 100.0);
        }
    }

    #[test]
    fn layouts_do_not_change_semantics() {
        let s = PoolShape::table1(4, 9, 3, 8, 2);
        let base = Tensor::random(s.input_shape(), Layout::NCHW, 20);
        let want = pool_forward(&base, &s, PoolOp::Max, Layout::NCHW);
        for layout in [Layout::CHWN, Layout::NHWC, Layout::HWCN] {
            let input = base.to_layout(layout);
            let got = pool_forward(&input, &s, PoolOp::Max, layout);
            assert!(got.approx_eq(&want, 0.0), "layout {layout}");
        }
    }

    #[test]
    fn avg_backward_distributes_uniformly() {
        let s = PoolShape::table1(1, 4, 2, 1, 2);
        let g = Tensor::full(s.output_shape(), Layout::NCHW, 4.0);
        let gi = pool_backward_avg(&g, &s, Layout::NCHW);
        for (_, v) in gi.iter_logical() {
            assert!((v - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn avg_backward_accumulates_overlaps() {
        let s = PoolShape::table1(1, 5, 3, 1, 2);
        let g = Tensor::full(s.output_shape(), Layout::NCHW, 9.0);
        let gi = pool_backward_avg(&g, &s, Layout::NCHW);
        // Center element (2,2) belongs to all 4 windows: 4 * 9/9 = 4.
        assert!((gi.get(0, 0, 2, 2) - 4.0).abs() < 1e-6);
        // Corner (0,0) belongs to 1 window.
        assert!((gi.get(0, 0, 0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_backward_routes_to_argmax() {
        let s = PoolShape::table1(1, 4, 2, 1, 2);
        let input = Tensor::from_fn(s.input_shape(), Layout::NCHW, |_, _, h, w| (h * 4 + w) as f32);
        let g = Tensor::full(s.output_shape(), Layout::NCHW, 1.0);
        let gi = pool_backward_max(&input, &g, &s, Layout::NCHW);
        assert_eq!(gi.get(0, 0, 1, 1), 1.0); // argmax of the first window
        assert_eq!(gi.get(0, 0, 0, 0), 0.0);
        let total: f32 = gi.iter_logical().map(|(_, v)| v).sum();
        assert_eq!(total, 4.0);
    }
}

#[cfg(test)]
mod ceil_mode_tests {
    use super::*;
    use memcnn_tensor::{Layout, Tensor};

    #[test]
    fn ceil_mode_output_dims_match_frameworks() {
        // Cifar10: 24, win 3, stride 2 -> 12 (ceil), 11 (floor).
        let floor = PoolShape::table1(1, 24, 3, 1, 2);
        let ceil = floor.with_ceil_mode(true);
        assert_eq!(floor.out_h(), 11);
        assert_eq!(ceil.out_h(), 12);
        // ZFNet PL8: 110 -> 55 in ceil mode.
        assert_eq!(PoolShape::table1(1, 110, 3, 1, 2).with_ceil_mode(true).out_h(), 55);
        // AlexNet PL5: 55 -> 27 either way.
        assert_eq!(PoolShape::table1(1, 55, 3, 1, 2).out_h(), 27);
        assert_eq!(PoolShape::table1(1, 55, 3, 1, 2).with_ceil_mode(true).out_h(), 27);
    }

    #[test]
    fn ceil_mode_edge_windows_clamp() {
        let s = PoolShape::table1(1, 6, 3, 1, 2).with_ceil_mode(true); // out 3: starts 0,2,4 (4..6 clamped)
        assert_eq!(s.out_h(), 3);
        let input = Tensor::from_fn(s.input_shape(), Layout::NCHW, |_, _, h, w| (h * 6 + w) as f32);
        let max = pool_forward(&input, &s, PoolOp::Max, Layout::NCHW);
        // Last window covers rows 4..6, cols 4..6; max element = 35.
        assert_eq!(max.get(0, 0, 2, 2), 35.0);
        let avg = pool_forward(&input, &s, PoolOp::Avg, Layout::NCHW);
        // Clamped 2x2 window {28,29,34,35} -> 31.5 (divided by 4, not 9).
        assert_eq!(avg.get(0, 0, 2, 2), 31.5);
    }

    #[test]
    fn ceil_mode_drops_a_window_that_would_start_past_the_input() {
        // Window 1, stride 2 over 4: starts 0, 2 (a third would start at 4).
        let s = PoolShape::table1(1, 4, 1, 1, 2).with_ceil_mode(true);
        assert_eq!((s.out_h(), s.out_w()), (2, 2));
        // Window 2, stride 3 over 7: starts 0, 3 and a clamped 6.
        assert_eq!(PoolShape::table1(1, 7, 2, 1, 3).with_ceil_mode(true).out_h(), 3);
        let input = Tensor::from_fn(s.input_shape(), Layout::NCHW, |_, _, h, w| (h * 4 + w) as f32);
        for layout in [Layout::NCHW, Layout::CHWN] {
            let x = input.to_layout(layout);
            let max = pool_forward(&x, &s, PoolOp::Max, Layout::NCHW);
            let avg = pool_forward(&x, &s, PoolOp::Avg, Layout::NCHW);
            assert_eq!(max.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
            assert_eq!(avg.as_slice(), max.as_slice());
        }
    }

    #[test]
    fn ceil_mode_backward_conserves_gradient_mass() {
        let s = PoolShape::table1(1, 5, 3, 1, 2).with_ceil_mode(true); // out 2x2, last clamped
        let g = Tensor::full(s.output_shape(), Layout::NCHW, 1.0);
        let gi = pool_backward_avg(&g, &s, Layout::NCHW);
        let mass: f32 = gi.iter_logical().map(|(_, v)| v).sum();
        assert!((mass - s.output_shape().len() as f32).abs() < 1e-4);
    }

    #[test]
    fn ceil_mode_specs_simulate() {
        use crate::pool::chwn::PoolChwn;
        use crate::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
        use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};
        let d = DeviceConfig::titan_black();
        let s = PoolShape::table1(64, 110, 3, 96, 2).with_ceil_mode(true); // PL8
        assert_eq!(s.out_h(), 55);
        for r in [
            simulate(&d, &PoolChwn::new(s), &SimOptions::default()).unwrap(),
            simulate(&d, &PoolNchwCaffe::new(s), &SimOptions::default()).unwrap(),
            simulate(&d, &PoolNchwCudnn::new(s), &SimOptions::default()).unwrap(),
        ] {
            assert!(r.time() > 0.0);
        }
    }
}
