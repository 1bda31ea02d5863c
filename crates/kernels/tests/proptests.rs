//! Property-based tests for kernel semantics and model invariants.

use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};
use memcnn_kernels::conv::direct_chwn::direct_conv_chwn;
use memcnn_kernels::conv::{conv_forward, conv_reference};
use memcnn_kernels::im2col::{col2im, im2col};
use memcnn_kernels::matmul::{sgemm, sgemm_naive};
use memcnn_kernels::pool::{pool_backward_avg, pool_forward, PoolOp};
use memcnn_kernels::softmax::{softmax_forward, softmax_xent_backward};
use memcnn_kernels::transform::{TransformImpl, TransformKernel};
use memcnn_kernels::{ConvShape, PoolShape, SoftmaxShape};
use memcnn_tensor::{Layout, Shape, Tensor};
use proptest::prelude::*;

fn small_conv() -> impl Strategy<Value = ConvShape> {
    (1usize..4, 1usize..5, 5usize..10, 1usize..5, 1usize..4, 1usize..3, 0usize..3).prop_map(
        |(n, ci, h, co, f, s, pad)| {
            let f = f * 2 + 1; // 3 or 5 or 7
            ConvShape { n, ci, h, w: h, co: co * 2, fh: f, fw: f, stride: s, pad }
        },
    )
}

/// Shapes for the layout-native check: `N` below, at and off multiples of
/// 16 (a CHWN panel copies runs of up to 16 images), strides 1-3 and
/// padding 0-2, with non-square inputs.
fn batch_conv() -> impl Strategy<Value = ConvShape> {
    ((1usize..=40, 1usize..4, 3usize..9, 0usize..3), (1usize..4, 0usize..2, 1usize..=3, 0usize..=2))
        .prop_map(|((n, ci, h, dw), (co, f, stride, pad))| {
            let f = f * 2 + 1; // 1 or 3
            ConvShape { n, ci, h, w: h + dw, co, fh: f, fw: f, stride, pad }
        })
}

/// The bits of every element, in buffer order.
fn f32_bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The bits of every element of a tensor, in its buffer order.
fn bits(t: &Tensor) -> Vec<u32> {
    f32_bits(t.as_slice())
}

/// Pooling one output at a time over logical coordinates: the window's
/// in-bounds taps in `ky`-then-`kx` order, averaged over their count.
fn pool_per_element(input: &Tensor, s: &PoolShape, op: PoolOp, layout: Layout) -> Tensor {
    Tensor::from_fn(s.output_shape(), layout, |n, c, oy, ox| {
        let mut acc = if op == PoolOp::Max { f32::NEG_INFINITY } else { 0.0 };
        let mut count = 0;
        for iy in (oy * s.stride..s.h).take(s.window) {
            for ix in (ox * s.stride..s.w).take(s.window) {
                let v = input.get(n, c, iy, ix);
                acc = if op == PoolOp::Max { acc.max(v) } else { acc + v };
                count += 1;
            }
        }
        if op == PoolOp::Avg {
            acc / count as f32
        } else {
            acc
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The implicit-GEMM conv equals the naive reference bit for bit for
    /// arbitrary small shapes, strides and padding, in both layouts.
    #[test]
    fn conv_forward_matches_reference(shape in small_conv(), seed in 0u64..500) {
        prop_assume!(shape.validate().is_ok());
        for layout in [Layout::NCHW, Layout::CHWN] {
            let input = Tensor::random(shape.input_shape(), layout, seed);
            let filter = Tensor::random(shape.filter_shape(), Layout::NCHW, seed + 1);
            let fast = conv_forward(&input, &filter, &shape, layout).unwrap();
            let slow = conv_reference(&input, &filter, &shape, layout).unwrap();
            prop_assert_eq!(bits(&fast), bits(&slow), "{}", layout);
        }
    }

    /// The CHWN convolution, computed natively in `(oy, ox, n)` column
    /// order, equals the NCHW one bit for bit once relaid, and both equal
    /// the naive reference.
    #[test]
    fn chwn_conv_equals_nchw_conv(shape in batch_conv(), seed in 0u64..500) {
        prop_assume!(shape.validate().is_ok());
        let input = Tensor::random(shape.input_shape(), Layout::NCHW, seed);
        let filter = Tensor::random(shape.filter_shape(), Layout::NCHW, seed + 1);
        let nchw = conv_forward(&input, &filter, &shape, Layout::NCHW).unwrap();
        let chwn =
            conv_forward(&input.to_layout(Layout::CHWN), &filter, &shape, Layout::CHWN).unwrap();
        prop_assert_eq!(bits(&chwn.to_layout(Layout::NCHW)), bits(&nchw));
        for (got, layout) in [(&nchw, Layout::NCHW), (&chwn, Layout::CHWN)] {
            let want = conv_reference(&input, &filter, &shape, layout).unwrap();
            prop_assert_eq!(bits(got), bits(&want), "{}", layout);
        }
    }

    /// The packed GEMM equals the naive triple loop bit for bit, for any
    /// `m` (across two 6-row panels and a ragged third), `n` below one
    /// 16-column panel and across several 1024-column tasks, and `k` down
    /// to 1.
    #[test]
    fn sgemm_matches_naive(
        m in 1usize..14,
        k in 1usize..40,
        n in (1usize..20, prop::bool::ANY).prop_map(|(n, wide)| if wide { 1000 + 60 * n } else { n }),
        seed in 0u64..500,
    ) {
        let a = Tensor::random(Shape::new(1, 1, m, k), Layout::NCHW, seed);
        let b = Tensor::random(Shape::new(1, 1, k, n), Layout::NCHW, seed + 1);
        let fast = sgemm(m, k, n, a.as_slice(), b.as_slice());
        let slow = sgemm_naive(m, k, n, a.as_slice(), b.as_slice());
        prop_assert_eq!(f32_bits(&fast), f32_bits(&slow));
    }

    /// Pooling equals a per-element loop over logical coordinates bit for
    /// bit: max and avg, NCHW and CHWN in and out, floor and ceil mode.
    #[test]
    fn pool_forward_matches_per_element_loop(
        (n, c, hw) in (1usize..4, 1usize..4, 3usize..12),
        win in 1usize..4,
        stride in 1usize..4,
        ceil in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        prop_assume!(win <= hw);
        let s = PoolShape::table1(n, hw, win, c, stride).with_ceil_mode(ceil);
        for op in [PoolOp::Max, PoolOp::Avg] {
            for (from, to) in [(Layout::NCHW, Layout::NCHW), (Layout::CHWN, Layout::CHWN),
                               (Layout::NCHW, Layout::CHWN), (Layout::CHWN, Layout::NCHW)] {
                let input = Tensor::random(s.input_shape(), from, seed);
                let got = pool_forward(&input, &s, op, to);
                let want = pool_per_element(&input, &s, op, to);
                prop_assert_eq!(bits(&got), bits(&want), "{:?} {} -> {}", op, from, to);
            }
        }
    }

    /// Direct CHWN conv equals the reference bit for bit too (pad-0 path
    /// used by the Table 1 layers, plus padded cases).
    #[test]
    fn direct_chwn_matches_reference(shape in small_conv(), seed in 0u64..500) {
        prop_assume!(shape.validate().is_ok());
        let input = Tensor::random(shape.input_shape(), Layout::CHWN, seed);
        let filter = Tensor::random(shape.filter_shape(), Layout::NCHW, seed + 2);
        let got = direct_conv_chwn(&input, &filter, &shape);
        let want = conv_reference(&input, &filter, &shape, Layout::CHWN).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Convolution is linear in the input: conv(a*x) == a*conv(x).
    #[test]
    fn conv_is_linear(seed in 0u64..500, scale in 0.25f32..4.0) {
        let shape = ConvShape::table1(2, 4, 8, 3, 2, 1);
        let input = Tensor::random(shape.input_shape(), Layout::NCHW, seed);
        let filter = Tensor::random(shape.filter_shape(), Layout::NCHW, seed + 3);
        let base = conv_forward(&input, &filter, &shape, Layout::NCHW).unwrap();
        let mut scaled_in = input.clone();
        for v in scaled_in.as_mut_slice() {
            *v *= scale;
        }
        let scaled = conv_forward(&scaled_in, &filter, &shape, Layout::NCHW).unwrap();
        for ((_, a), (_, b)) in base.iter_logical().zip(scaled.iter_logical()) {
            prop_assert!((a * scale - b).abs() < 1e-2 * (1.0 + a.abs() * scale));
        }
    }

    /// <col2im(c), x> == <c, im2col(x)> — the adjoint property backward
    /// passes rely on.
    #[test]
    fn im2col_col2im_adjoint(seed in 0u64..500) {
        let shape = ConvShape { pad: 1, ..ConvShape::table1(2, 1, 6, 3, 2, 2) };
        let x = Tensor::random(shape.input_shape(), Layout::NCHW, seed);
        let cx = im2col(&x, &shape);
        let c: Vec<f32> = (0..cx.len()).map(|i| ((i * 31 + seed as usize) % 7) as f32 - 3.0).collect();
        let lhs: f64 = col2im(&c, &shape)
            .iter_logical()
            .zip(x.iter_logical())
            .map(|((_, a), (_, b))| a as f64 * b as f64)
            .sum();
        let rhs: f64 = c.iter().zip(&cx).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// Max pooling of a constant tensor is that constant; avg pooling too
    /// (including clamped ceil-mode edges).
    #[test]
    fn pooling_preserves_constants(
        hw in 4usize..12,
        win in 2usize..4,
        stride in 1usize..3,
        ceil in prop::bool::ANY,
        value in -5f32..5.0,
    ) {
        prop_assume!(win <= hw);
        let s = PoolShape::table1(2, hw, win, 3, stride).with_ceil_mode(ceil);
        let input = Tensor::full(s.input_shape(), Layout::NCHW, value);
        for op in [PoolOp::Max, PoolOp::Avg] {
            let out = pool_forward(&input, &s, op, Layout::NCHW);
            for (_, v) in out.iter_logical() {
                prop_assert!((v - value).abs() < 1e-5);
            }
        }
    }

    /// Max pooling dominates avg pooling pointwise.
    #[test]
    fn max_dominates_avg(seed in 0u64..500) {
        let s = PoolShape::table1(2, 9, 3, 2, 2).with_ceil_mode(true);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, seed);
        let mx = pool_forward(&input, &s, PoolOp::Max, Layout::NCHW);
        let av = pool_forward(&input, &s, PoolOp::Avg, Layout::NCHW);
        for ((_, m), (_, a)) in mx.iter_logical().zip(av.iter_logical()) {
            prop_assert!(m >= a - 1e-5);
        }
    }

    /// Avg-pool backward conserves gradient mass for any shape/mode.
    #[test]
    fn avg_backward_conserves_mass(
        hw in 4usize..10,
        win in 2usize..4,
        stride in 1usize..3,
        ceil in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        prop_assume!(win <= hw);
        let s = PoolShape::table1(1, hw, win, 2, stride).with_ceil_mode(ceil);
        let g = Tensor::random(s.output_shape(), Layout::NCHW, seed);
        let gi = pool_backward_avg(&g, &s, Layout::NCHW);
        let in_mass: f64 = gi.iter_logical().map(|(_, v)| v as f64).sum();
        let out_mass: f64 = g.iter_logical().map(|(_, v)| v as f64).sum();
        prop_assert!((in_mass - out_mass).abs() < 1e-3 * (1.0 + out_mass.abs()));
    }

    /// Softmax rows sum to 1, are translation invariant, and order-preserve
    /// the logits.
    #[test]
    fn softmax_properties(batch in 1usize..5, cats in 2usize..20, seed in 0u64..500) {
        let shape = SoftmaxShape::new(batch, cats);
        let t = Tensor::random(Shape::new(1, 1, batch, cats), Layout::NCHW, seed);
        let input = t.as_slice().to_vec();
        let probs = softmax_forward(&input, shape);
        for (row_in, row_out) in input.chunks(cats).zip(probs.chunks(cats)) {
            let sum: f32 = row_out.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            // Larger logit -> larger probability.
            for i in 0..cats {
                for j in 0..cats {
                    if row_in[i] > row_in[j] {
                        prop_assert!(row_out[i] >= row_out[j] - 1e-6);
                    }
                }
            }
        }
        // Translation invariance.
        let shifted: Vec<f32> = input.iter().map(|v| v + 100.0).collect();
        let probs2 = softmax_forward(&shifted, shape);
        for (a, b) in probs.iter().zip(&probs2) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Cross-entropy gradient rows sum to zero.
    #[test]
    fn xent_gradient_rows_sum_to_zero(batch in 1usize..4, cats in 2usize..10, seed in 0u64..500) {
        let shape = SoftmaxShape::new(batch, cats);
        let t = Tensor::random(Shape::new(1, 1, batch, cats), Layout::NCHW, seed);
        let labels: Vec<usize> = (0..batch).map(|i| (i + seed as usize) % cats).collect();
        let grad = softmax_xent_backward(t.as_slice(), &labels, shape);
        for row in grad.chunks(cats) {
            let sum: f32 = row.iter().sum();
            prop_assert!(sum.abs() < 1e-4);
        }
    }

    /// Transformation kernels move exactly the tensor (requested bytes ==
    /// 2 x payload) for every variant and both directions.
    #[test]
    fn transform_specs_move_exactly_the_tensor(
        n_pow in 5usize..9,
        c in 1usize..8,
        hw in 3usize..12,
        reverse in prop::bool::ANY,
    ) {
        let shape = Shape::new(1 << n_pow, c, hw, hw);
        let (from, to) = if reverse {
            (Layout::NCHW, Layout::CHWN)
        } else {
            (Layout::CHWN, Layout::NCHW)
        };
        let d = DeviceConfig::titan_black();
        // Trace every block (no sampling) so the byte count is exact.
        let opts = SimOptions { max_sampled_blocks: 1 << 20, ..Default::default() };
        for imp in [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2] {
            if imp == TransformImpl::Opt2 && shape.n < 64 {
                continue;
            }
            let k = TransformKernel::new(shape, from, to, imp);
            let r = simulate(&d, &k, &opts).unwrap();
            let payload = 2.0 * shape.len() as f64 * 4.0;
            let ratio = r.requested_bytes / payload;
            prop_assert!((ratio - 1.0).abs() < 1e-6, "{imp:?}: ratio {ratio}");
        }
    }
}
