//! Convolutional-layer kernels.
//!
//! Four implementation families:
//!
//! - [`direct_chwn`]: cuda-convnet's direct convolution over the `CHWN`
//!   layout (warp along the batch dimension, register-tiled reuse).
//! - [`mm_nchw`]: Caffe/cuDNN's matrix-multiplication path over `NCHW`
//!   (im2col expansion + tiled GEMM).
//! - [`fft_nchw`]: cuDNN v4's FFT and FFT-tiling modes over `NCHW`
//!   (frequency-domain products; large-footprint, stride-1 only).
//! - [`winograd`]: the §VII outlook — Lavin & Gray's F(2x2, 3x3)
//!   arithmetic-complexity reduction (the paper's ref [16]).
//!
//! Every family has a functional CPU implementation (tested against the
//! naive reference here) and a GPU kernel spec for the simulator. The
//! execution engine runs [`conv_forward`], an implicit GEMM on the packed
//! host GEMM core that never builds the `im2col` matrix.

pub mod direct_chwn;
pub mod fft_nchw;
pub mod mm_nchw;
pub mod winograd;

use crate::matmul::{gemm_packed, NR};
use crate::shapes::ConvShape;
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;
use std::fmt;

/// Errors from convolution construction/execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConvError {
    /// The implementation does not support this configuration (e.g. the
    /// FFT modes are stride-1 only, as in cuDNN v4).
    Unsupported(String),
    /// Input/filter tensors disagree with the declared shape.
    ShapeMismatch(String),
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::Unsupported(m) => write!(f, "unsupported convolution: {m}"),
            ConvError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for ConvError {}

/// Naive direct convolution over logical coordinates: the correctness
/// oracle for every other implementation. Accepts any input/filter layout;
/// produces `out_layout`. Parallel over `(n, co)`.
pub fn conv_reference(
    input: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    check_shapes(input, filter, shape)?;
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut out = Tensor::zeros(shape.output_shape(), out_layout);
    // Compute into a (n, co)-indexed set of planes, then write.
    let planes: Vec<((usize, usize), Vec<f32>)> = (0..shape.n * shape.co)
        .into_par_iter()
        .map(|idx| {
            let (n, co) = (idx / shape.co, idx % shape.co);
            let mut plane = vec![0f32; oh * ow];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0f32;
                    for ci in 0..shape.ci {
                        for fy in 0..shape.fh {
                            for fx in 0..shape.fw {
                                let iy = (oy * shape.stride + fy) as isize - shape.pad as isize;
                                let ix = (ox * shape.stride + fx) as isize - shape.pad as isize;
                                if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < shape.h
                                    && (ix as usize) < shape.w
                                {
                                    acc += input.get(n, ci, iy as usize, ix as usize)
                                        * filter.get(co, ci, fy, fx);
                                }
                            }
                        }
                    }
                    plane[oy * ow + ox] = acc;
                }
            }
            ((n, co), plane)
        })
        .collect();
    for ((n, co), plane) in planes {
        for oy in 0..oh {
            for ox in 0..ow {
                out.set(n, co, oy, ox, plane[oy * ow + ox]);
            }
        }
    }
    Ok(out)
}

/// Fast functional convolution, used by the execution engine: an implicit
/// GEMM `filter[Co][Ci*Fh*Fw] x col[Ci*Fh*Fw][N*OH*OW]` on the packed core
/// ([`gemm_packed`]) whose `B` panels are gathered straight from the input,
/// so the `im2col` matrix is never built. Layout-agnostic on the outside;
/// internally reads an NCHW input, writes NCHW output planes and relays
/// them once into `out_layout`. Bit-identical to [`conv_reference`] for
/// finite inputs: every output sums its in-bounds taps in the same
/// ascending `(ci, fy, fx)` order, and a padded tap adds an exact `±0`.
pub fn conv_forward(
    input: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    check_shapes(input, filter, shape)?;
    let x = input.as_layout(Layout::NCHW);
    let filter = filter.as_layout(Layout::NCHW);
    let k = shape.ci * shape.fh * shape.fw;
    let plane = shape.out_h() * shape.out_w();
    let cols = shape.n * plane;
    let mut out = vec![0f32; shape.co * cols];
    let pack =
        |j0, width, panel: &mut [f32]| pack_conv_panel(x.as_slice(), shape, j0, width, panel);
    gemm_packed(shape.co, k, cols, filter.as_slice(), pack, |co, j0, mut row| {
        // C[co][img * plane + p] is NCHW's out[img][co][p].
        let mut j = j0;
        while !row.is_empty() {
            let (img, p) = (j / plane, j % plane);
            let len = (plane - p).min(row.len());
            out[(img * shape.co + co) * plane + p..][..len].copy_from_slice(&row[..len]);
            (row, j) = (&row[len..], j + len);
        }
    });
    let out = Tensor::from_vec(shape.output_shape(), Layout::NCHW, out)
        .expect("length matches shape by construction");
    Ok(out.into_layout(out_layout))
}

/// Fill columns `j0..j0 + width` of the unrolled input matrix (`im2col`'s
/// `col`, row `(ci, fy, fx)`, column `(n, oy, ox)`) into a `k x NR` panel,
/// reading the NCHW input directly. Out-of-bounds (padding) taps are zero,
/// exactly as `im2col` writes them.
fn pack_conv_panel(x: &[f32], s: &ConvShape, j0: usize, width: usize, panel: &mut [f32]) {
    let (ow, plane) = (s.out_w(), s.out_h() * s.out_w());
    let (pad, stride) = (s.pad as isize, s.stride as isize);
    // Runs of panel columns on one output row: (first column, length,
    // image offset, top input row, leftmost input column).
    let mut runs = [(0usize, 0usize, 0usize, 0isize, 0isize); NR];
    let mut count = 0;
    let mut jj = 0;
    while jj < width {
        let (img, p) = ((j0 + jj) / plane, (j0 + jj) % plane);
        let (oy, ox) = (p / ow, p % ow);
        let len = (ow - ox).min(width - jj);
        let y0 = (oy * s.stride) as isize - pad;
        let x0 = (ox * s.stride) as isize - pad;
        runs[count] = (jj, len, img * s.ci * s.h * s.w, y0, x0);
        count += 1;
        jj += len;
    }
    let (h, w) = (s.h as isize, s.w as isize);
    let mut rows = panel.chunks_exact_mut(NR);
    for ci in 0..s.ci {
        for fy in 0..s.fh {
            for fx in 0..s.fw {
                let row = rows.next().expect("panel holds k rows");
                for &(jj, len, base, y0, x0) in &runs[..count] {
                    let dst = &mut row[jj..jj + len];
                    let iy = y0 + fy as isize;
                    if iy < 0 || iy >= h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &x[base + (ci * s.h + iy as usize) * s.w..][..s.w];
                    // Taps t with 0 <= ix0 + t * stride < w.
                    let ix0 = x0 + fx as isize;
                    let lo = if ix0 < 0 { (-ix0 + stride - 1) / stride } else { 0 };
                    let hi = if ix0 < w { (w - ix0 + stride - 1) / stride } else { 0 };
                    let lo = (lo as usize).min(len);
                    let hi = (hi as usize).clamp(lo, len);
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    if lo < hi {
                        let first = (ix0 + lo as isize * stride) as usize;
                        let taps = src[first..].iter().step_by(s.stride);
                        for (d, &v) in dst[lo..hi].iter_mut().zip(taps) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Backward pass w.r.t. the input (full correlation with rotated filters),
/// provided functionally to back the paper's §II footnote that forward and
/// backward share data structures and access patterns.
pub fn conv_backward_input(
    grad_out: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    if grad_out.shape() != shape.output_shape() {
        return Err(ConvError::ShapeMismatch(format!(
            "grad_out {} vs expected {}",
            grad_out.shape(),
            shape.output_shape()
        )));
    }
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut grad_in = Tensor::zeros(shape.input_shape(), out_layout);
    for n in 0..shape.n {
        for ci in 0..shape.ci {
            for iy in 0..shape.h {
                for ix in 0..shape.w {
                    let mut acc = 0f32;
                    for co in 0..shape.co {
                        for fy in 0..shape.fh {
                            for fx in 0..shape.fw {
                                let oy_num = iy + shape.pad;
                                let ox_num = ix + shape.pad;
                                if oy_num >= fy && ox_num >= fx {
                                    let (dy, dx) = (oy_num - fy, ox_num - fx);
                                    if dy % shape.stride == 0 && dx % shape.stride == 0 {
                                        let (oy, ox) = (dy / shape.stride, dx / shape.stride);
                                        if oy < oh && ox < ow {
                                            acc += grad_out.get(n, co, oy, ox)
                                                * filter.get(co, ci, fy, fx);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    grad_in.set(n, ci, iy, ix, acc);
                }
            }
        }
    }
    Ok(grad_in)
}

/// Backward pass w.r.t. the filter: correlate the input with the output
/// gradient (the weight-gradient step of training; same 4D data structures
/// and access patterns as the forward pass, per the paper's §II footnote).
pub fn conv_backward_filter(
    input: &Tensor,
    grad_out: &Tensor,
    shape: &ConvShape,
) -> Result<Tensor, ConvError> {
    if input.shape() != shape.input_shape() {
        return Err(ConvError::ShapeMismatch(format!(
            "input {} vs expected {}",
            input.shape(),
            shape.input_shape()
        )));
    }
    if grad_out.shape() != shape.output_shape() {
        return Err(ConvError::ShapeMismatch(format!(
            "grad_out {} vs expected {}",
            grad_out.shape(),
            shape.output_shape()
        )));
    }
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut grad_w = Tensor::zeros(shape.filter_shape(), Layout::NCHW);
    let planes: Vec<((usize, usize), Vec<f32>)> = (0..shape.co * shape.ci)
        .into_par_iter()
        .map(|idx| {
            let (co, ci) = (idx / shape.ci, idx % shape.ci);
            let mut tap = vec![0f32; shape.fh * shape.fw];
            for fy in 0..shape.fh {
                for fx in 0..shape.fw {
                    let mut acc = 0f32;
                    for n in 0..shape.n {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let iy = (oy * shape.stride + fy) as isize - shape.pad as isize;
                                let ix = (ox * shape.stride + fx) as isize - shape.pad as isize;
                                if iy >= 0
                                    && ix >= 0
                                    && (iy as usize) < shape.h
                                    && (ix as usize) < shape.w
                                {
                                    acc += input.get(n, ci, iy as usize, ix as usize)
                                        * grad_out.get(n, co, oy, ox);
                                }
                            }
                        }
                    }
                    tap[fy * shape.fw + fx] = acc;
                }
            }
            ((co, ci), tap)
        })
        .collect();
    for ((co, ci), tap) in planes {
        for fy in 0..shape.fh {
            for fx in 0..shape.fw {
                grad_w.set(co, ci, fy, fx, tap[fy * shape.fw + fx]);
            }
        }
    }
    Ok(grad_w)
}

fn check_shapes(input: &Tensor, filter: &Tensor, shape: &ConvShape) -> Result<(), ConvError> {
    shape.validate().map_err(ConvError::Unsupported)?;
    if input.shape() != shape.input_shape() {
        return Err(ConvError::ShapeMismatch(format!(
            "input {} vs expected {}",
            input.shape(),
            shape.input_shape()
        )));
    }
    if filter.shape() != shape.filter_shape() {
        return Err(ConvError::ShapeMismatch(format!(
            "filter {} vs expected {}",
            filter.shape(),
            shape.filter_shape()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bits of every element, in buffer order.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_matches_reference_all_layout_combinations() {
        let s = ConvShape::table1(3, 4, 9, 3, 2, 1);
        for in_layout in [Layout::NCHW, Layout::CHWN] {
            for out_layout in [Layout::NCHW, Layout::CHWN, Layout::NHWC] {
                let input = Tensor::random(s.input_shape(), in_layout, 5);
                let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 6);
                let fast = conv_forward(&input, &filter, &s, out_layout).unwrap();
                let slow = conv_reference(&input, &filter, &s, out_layout).unwrap();
                assert_eq!(bits(&fast), bits(&slow), "layouts {in_layout} -> {out_layout}");
            }
        }
    }

    #[test]
    fn forward_with_stride_and_padding() {
        // Stride 2 and 3 with padding up to and past the filter radius:
        // panels mix image rows, images and clamped taps.
        for (stride, pad) in [(2, 2), (3, 1), (2, 4)] {
            let s = ConvShape { pad, ..ConvShape::table1(2, 3, 11, 5, 2, stride) };
            for layout in [Layout::NCHW, Layout::CHWN] {
                let input = Tensor::random(s.input_shape(), layout, 7);
                let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 8);
                let fast = conv_forward(&input, &filter, &s, layout).unwrap();
                let slow = conv_reference(&input, &filter, &s, layout).unwrap();
                assert_eq!(bits(&fast), bits(&slow), "stride {stride} pad {pad} {layout}");
            }
        }
    }

    #[test]
    fn single_pixel_identity() {
        // 1x1 filter with weight 2.0: output = 2 x input.
        let s = ConvShape::table1(1, 1, 4, 1, 1, 1);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 9);
        let filter = Tensor::full(s.filter_shape(), Layout::NCHW, 2.0);
        let out = conv_forward(&input, &filter, &s, Layout::NCHW).unwrap();
        for ((n, c, h, w), v) in input.iter_logical() {
            assert!((out.get(n, c, h, w) - 2.0 * v).abs() < 1e-5);
        }
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let s = ConvShape::table1(2, 3, 8, 3, 2, 1);
        let bad_input = Tensor::zeros(memcnn_tensor::Shape::new(2, 5, 8, 8), Layout::NCHW);
        let filter = Tensor::zeros(s.filter_shape(), Layout::NCHW);
        assert!(matches!(
            conv_forward(&bad_input, &filter, &s, Layout::NCHW),
            Err(ConvError::ShapeMismatch(_))
        ));
        let input = Tensor::zeros(s.input_shape(), Layout::NCHW);
        let bad_filter = Tensor::zeros(memcnn_tensor::Shape::new(3, 2, 5, 5), Layout::NCHW);
        assert!(matches!(
            conv_forward(&input, &bad_filter, &s, Layout::NCHW),
            Err(ConvError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn backward_input_matches_autograd_identity() {
        // For a 1x1 stride-1 conv, grad_in = grad_out convolved with the
        // transposed channel matrix; check a scalar case by hand.
        let s = ConvShape::table1(1, 1, 3, 1, 1, 1);
        let filter = Tensor::full(s.filter_shape(), Layout::NCHW, 3.0);
        let grad_out = Tensor::full(s.output_shape(), Layout::NCHW, 1.0);
        let grad_in = conv_backward_input(&grad_out, &filter, &s, Layout::NCHW).unwrap();
        for (_, v) in grad_in.iter_logical() {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_filter_matches_finite_difference() {
        // d(sum(out))/d(w[co][ci][fy][fx]) == conv_backward_filter with
        // all-ones grad_out; check against a finite difference.
        let s = ConvShape::table1(2, 2, 5, 3, 2, 1);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 40);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 41);
        let ones = Tensor::full(s.output_shape(), Layout::NCHW, 1.0);
        let grad = conv_backward_filter(&input, &ones, &s).unwrap();
        let total = |f: &Tensor| -> f32 {
            conv_reference(&input, f, &s, Layout::NCHW)
                .unwrap()
                .iter_logical()
                .map(|(_, v)| v)
                .sum()
        };
        let eps = 1e-2;
        for (co, ci, fy, fx) in [(0, 0, 0, 0), (1, 1, 2, 1), (1, 0, 1, 2)] {
            let mut bumped = filter.clone();
            bumped.set(co, ci, fy, fx, filter.get(co, ci, fy, fx) + eps);
            let fd = (total(&bumped) - total(&filter)) / eps;
            let an = grad.get(co, ci, fy, fx);
            assert!((fd - an).abs() < 0.05 * (1.0 + an.abs()), "fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn backward_filter_validates_shapes() {
        let s = ConvShape::table1(2, 2, 5, 3, 2, 1);
        let input = Tensor::zeros(s.input_shape(), Layout::NCHW);
        let bad = Tensor::zeros(memcnn_tensor::Shape::new(2, 2, 9, 9), Layout::NCHW);
        assert!(matches!(conv_backward_filter(&input, &bad, &s), Err(ConvError::ShapeMismatch(_))));
    }

    #[test]
    fn backward_input_counts_contributing_taps() {
        // 3x3 stride-1, single channel, all-ones: interior input pixels
        // receive 9 contributions, corners 1.
        let s = ConvShape::table1(1, 1, 5, 3, 1, 1);
        let filter = Tensor::full(s.filter_shape(), Layout::NCHW, 1.0);
        let grad_out = Tensor::full(s.output_shape(), Layout::NCHW, 1.0);
        let g = conv_backward_input(&grad_out, &filter, &s, Layout::NCHW).unwrap();
        assert_eq!(g.get(0, 0, 2, 2), 9.0);
        assert_eq!(g.get(0, 0, 0, 0), 1.0);
        assert_eq!(g.get(0, 0, 0, 2), 3.0);
    }
}
