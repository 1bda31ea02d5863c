//! Auxiliary layers needed by the complete networks of Fig 14/15:
//! fully-connected (GEMM-backed), ReLU, and local response normalization
//! (AlexNet/ZFNet use LRN between their early conv/pool stages).

use crate::matmul::{gemm_row_major, NR};
use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;

/// Functional fully-connected layer: flattens each image of `input` (any
/// layout) to a vector in canonical `(c, h, w)` order and multiplies by
/// `weights[outputs][inputs]`: `out[n][o] = sum_i x[n][i] * weights[o][i]`,
/// summed in ascending `i` on the packed GEMM core, which reads the
/// weights transposed.
pub fn fc_forward(input: &Tensor, weights: &[f32], outputs: usize) -> Vec<f32> {
    let shape = input.shape();
    let per_image = shape.c * shape.h * shape.w;
    assert_eq!(weights.len(), outputs * per_image, "weight matrix must be outputs x inputs");
    // An NCHW buffer is the images flattened in (c, h, w) order.
    let flat = input.as_layout(Layout::NCHW);
    gemm_row_major(shape.n, per_image, outputs, flat.as_slice(), |j0, width, panel| {
        for (jj, w) in weights.chunks_exact(per_image).skip(j0).take(width).enumerate() {
            for (slot, &v) in panel.iter_mut().skip(jj).step_by(NR).zip(w) {
                *slot = v;
            }
        }
    })
}

/// Backward of the fully-connected layer: given `grad_out[n][o]`, the
/// flattened input and `weights[o][i]`, returns
/// `(grad_weights[o][i], grad_input[n][i])`.
pub fn fc_backward(
    input: &Tensor,
    weights: &[f32],
    grad_out: &[f32],
    outputs: usize,
) -> (Vec<f32>, Vec<f32>) {
    let shape = input.shape();
    let per_image = shape.c * shape.h * shape.w;
    assert_eq!(weights.len(), outputs * per_image);
    assert_eq!(grad_out.len(), shape.n * outputs);
    let mut flat = vec![0f32; shape.n * per_image];
    for ((n, c, h, w), v) in input.iter_logical() {
        flat[n * per_image + (c * shape.h + h) * shape.w + w] = v;
    }
    // dW[o][i] = sum_n dY[n][o] * X[n][i]
    let mut grad_w = vec![0f32; outputs * per_image];
    grad_w.par_chunks_mut(per_image).enumerate().for_each(|(o, row)| {
        for n in 0..shape.n {
            let g = grad_out[n * outputs + o];
            if g != 0.0 {
                for (r, &x) in row.iter_mut().zip(&flat[n * per_image..(n + 1) * per_image]) {
                    *r += g * x;
                }
            }
        }
    });
    // dX[n][i] = sum_o dY[n][o] * W[o][i]
    let mut grad_x = vec![0f32; shape.n * per_image];
    grad_x.par_chunks_mut(per_image).enumerate().for_each(|(n, row)| {
        for o in 0..outputs {
            let g = grad_out[n * outputs + o];
            if g != 0.0 {
                let wrow = &weights[o * per_image..(o + 1) * per_image];
                for (r, &w) in row.iter_mut().zip(wrow) {
                    *r += g * w;
                }
            }
        }
    });
    (grad_w, grad_x)
}

/// Backward of ReLU: pass gradients where the forward input was positive.
pub fn relu_backward(input: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(input.shape(), grad_out.shape());
    let mut grad_in = grad_out.to_layout(input.layout());
    for ((n, c, h, w), v) in input.iter_logical() {
        if v <= 0.0 {
            grad_in.set(n, c, h, w, 0.0);
        }
    }
    grad_in
}

/// Functional ReLU (any layout; element-wise so the layout is irrelevant).
pub fn relu_forward(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    relu_in_place(&mut out);
    out
}

/// [`relu_forward`] overwriting its input, parallel over chunks. Negative
/// values become `+0`; `-0` and NaN pass through unchanged.
pub fn relu_in_place(t: &mut Tensor) {
    const CHUNK: usize = 1 << 14;
    t.as_mut_slice().par_chunks_mut(CHUNK).for_each(|chunk| {
        for v in chunk {
            // A select, not a conditional store, so the loop vectorizes.
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
    });
}

/// GPU kernel spec of an element-wise streaming op (ReLU, bias add, scale):
/// perfectly coalesced read-modify-write of `elems` values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ElementwiseKernel {
    name: String,
    elems: u64,
    flops_per_elem: u64,
    input: DeviceBuffer,
    output: DeviceBuffer,
}

impl ElementwiseKernel {
    /// Build a streaming element-wise kernel over `elems` f32 values.
    pub fn new(name: impl Into<String>, elems: u64, flops_per_elem: u64) -> ElementwiseKernel {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(elems);
        let output = asp.alloc_f32(elems);
        ElementwiseKernel { name: name.into(), elems, flops_per_elem, input, output }
    }
}

impl KernelSpec for ElementwiseKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.elems.div_ceil(1024).max(1),
            threads_per_block: 256,
            regs_per_thread: 12,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = 4.0 * self.elems as f64;
        WorkSummary::new(bytes, bytes, 2 * self.elems * 4).with_ilp(4.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        // Each block processes 1024 elements: 256 threads x 4 grid-stride.
        let mut addrs = Vec::with_capacity(32);
        for i in 0..32u64 {
            let base = block * 1024 + i * 32;
            if base >= self.elems {
                break;
            }
            let lanes = 32.min(self.elems - base) as usize;
            addrs.clear();
            for lane in 0..lanes as u64 {
                addrs.push(self.input.f32(base + lane));
            }
            t.global_load(&addrs, 4);
            addrs.clear();
            for lane in 0..lanes as u64 {
                addrs.push(self.output.f32(base + lane));
            }
            t.global_store(&addrs, 4);
            t.flops(self.flops_per_elem * lanes as u64);
        }
        t.aux(8);
    }
}

/// Functional local response normalization across channels (AlexNet §3.3
/// form): `out = in / (k + alpha/size * sum_{window} in^2)^beta`.
pub fn lrn_forward(input: &Tensor, size: usize, alpha: f32, beta: f32, k: f32) -> Tensor {
    let shape = input.shape();
    let half = size / 2;
    let mut out = Tensor::zeros(shape, input.layout());
    for n in 0..shape.n {
        for h in 0..shape.h {
            for w in 0..shape.w {
                for c in 0..shape.c {
                    let lo = c.saturating_sub(half);
                    let hi = (c + half).min(shape.c - 1);
                    let mut sum = 0f32;
                    for cc in lo..=hi {
                        let v = input.get(n, cc, h, w);
                        sum += v * v;
                    }
                    let denom = (k + alpha / size as f32 * sum).powf(beta);
                    out.set(n, c, h, w, input.get(n, c, h, w) / denom);
                }
            }
        }
    }
    out
}

/// GPU kernel spec of LRN: streaming with a `size`-wide channel window;
/// reads are coalesced in both layouts (the window walks `C`, which is
/// never the innermost dimension for NCHW or CHWN) and the re-reads hit L2.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LrnKernel {
    elems: u64,
    size: u64,
    input: DeviceBuffer,
    output: DeviceBuffer,
}

impl LrnKernel {
    /// Build over `elems` values with a `size`-channel window.
    pub fn new(elems: u64, size: u64) -> LrnKernel {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(elems);
        let output = asp.alloc_f32(elems);
        LrnKernel { elems, size, input, output }
    }
}

impl KernelSpec for LrnKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("lrn size={}", self.size)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.elems.div_ceil(1024).max(1),
            threads_per_block: 256,
            regs_per_thread: 24,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = 4.0 * self.elems as f64;
        // Window re-reads mostly hit L2: compulsory traffic is ~2 passes.
        WorkSummary::new(bytes, bytes, 2 * self.elems * 4).with_ilp(2.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let mut addrs = Vec::with_capacity(32);
        for i in 0..8u64 {
            let base = block * 1024 + i * 32;
            if base >= self.elems {
                break;
            }
            let lanes = 32.min(self.elems - base) as usize;
            // The window: `size` coalesced loads at channel offsets (the
            // channel stride is large; neighbours stay L2-resident).
            for wdx in 0..self.size {
                addrs.clear();
                for lane in 0..lanes as u64 {
                    let e = (base + lane + wdx * 4096).min(self.elems - 1);
                    addrs.push(self.input.f32(e));
                }
                t.global_load(&addrs, 4);
            }
            addrs.clear();
            for lane in 0..lanes as u64 {
                addrs.push(self.output.f32(base + lane));
            }
            t.global_store(&addrs, 4);
            t.flops((3 * self.size + 10) * lanes as u64);
            t.aux(self.size + 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};
    use memcnn_tensor::{Layout, Shape};

    #[test]
    fn fc_forward_computes_dot_products() {
        let input =
            Tensor::from_fn(Shape::new(2, 1, 1, 3), Layout::NCHW, |n, _, _, w| (n * 3 + w) as f32);
        // weights: 2 outputs x 3 inputs.
        let weights = vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let out = fc_forward(&input, &weights, 2);
        assert_eq!(out, vec![0.0, 3.0, 3.0, 12.0]);
    }

    #[test]
    fn fc_forward_is_layout_invariant() {
        let shape = Shape::new(3, 4, 5, 5);
        let base = Tensor::random(shape, Layout::NCHW, 31);
        let weights: Vec<f32> = (0..10 * 100).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
        let want = fc_forward(&base, &weights, 10);
        let got = fc_forward(&base.to_layout(Layout::CHWN), &weights, 10);
        assert_eq!(want, got);
    }

    #[test]
    fn fc_forward_matches_dot_products_bit_for_bit() {
        // 37 outputs: two full 16-column panels and a ragged third.
        let (shape, outputs) = (Shape::new(5, 3, 4, 6), 37);
        let per_image = 3 * 4 * 6;
        let input = Tensor::random(shape, Layout::NCHW, 32);
        let weights: Vec<f32> =
            (0..outputs * per_image).map(|i| (i % 11) as f32 * 0.17 - 0.8).collect();
        let got = fc_forward(&input, &weights, outputs);
        for (n, row) in got.chunks_exact(outputs).enumerate() {
            let x = &input.as_slice()[n * per_image..][..per_image];
            for (o, &v) in row.iter().enumerate() {
                let w = &weights[o * per_image..][..per_image];
                let dot = x.iter().zip(w).fold(0f32, |acc, (a, b)| acc + a * b);
                assert_eq!(v.to_bits(), dot.to_bits(), "image {n} output {o}");
            }
        }
    }

    #[test]
    fn fc_backward_matches_finite_difference() {
        let shape = Shape::new(2, 1, 1, 3);
        let input = Tensor::random(shape, Layout::NCHW, 50);
        let weights: Vec<f32> = (0..2 * 3).map(|i| (i as f32 - 2.5) * 0.3).collect();
        // Loss = sum of outputs -> grad_out all ones.
        let grad_out = vec![1.0f32; 2 * 2];
        let (gw, gx) = fc_backward(&input, &weights, &grad_out, 2);
        let loss = |w: &[f32], x: &Tensor| -> f32 { fc_forward(x, w, 2).iter().sum() };
        let eps = 1e-2;
        // Weight gradient check.
        let mut wb = weights.clone();
        wb[4] += eps;
        let fd = (loss(&wb, &input) - loss(&weights, &input)) / eps;
        assert!((fd - gw[4]).abs() < 0.02 * (1.0 + gw[4].abs()), "{fd} vs {}", gw[4]);
        // Input gradient check.
        let mut xb = input.clone();
        xb.set(1, 0, 0, 2, input.get(1, 0, 0, 2) + eps);
        let fd = (loss(&weights, &xb) - loss(&weights, &input)) / eps;
        let gi = gx[3 + 2]; // row 1 (width 3), column 2
        assert!((fd - gi).abs() < 0.02 * (1.0 + gi.abs()), "{fd} vs {gi}");
    }

    #[test]
    fn relu_backward_masks_gradients() {
        let input = Tensor::from_fn(Shape::new(1, 1, 2, 2), Layout::NCHW, |_, _, h, w| {
            if (h + w) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let g = Tensor::full(input.shape(), Layout::NCHW, 5.0);
        let gi = relu_backward(&input, &g);
        assert_eq!(gi.get(0, 0, 0, 0), 5.0);
        assert_eq!(gi.get(0, 0, 0, 1), 0.0);
        assert_eq!(gi.get(0, 0, 1, 1), 5.0);
    }

    #[test]
    fn relu_zeroes_negatives_only() {
        let t = Tensor::from_fn(Shape::new(1, 1, 2, 2), Layout::NCHW, |_, _, h, w| {
            (h as f32 - 0.5) * (w as f32 * 2.0 - 1.0)
        });
        let r = relu_forward(&t);
        for (_, v) in r.iter_logical() {
            assert!(v >= 0.0);
        }
        let positives_in = t.iter_logical().filter(|&(_, v)| v > 0.0).count();
        let positives_out = r.iter_logical().filter(|&(_, v)| v > 0.0).count();
        assert_eq!(positives_in, positives_out);
    }

    #[test]
    fn relu_keeps_negative_zero_and_nan_bits() {
        let values = [-2.5, -0.0, 0.0, 1.5, f32::NAN, f32::NEG_INFINITY];
        let t = Tensor::from_vec(Shape::new(1, 1, 1, 6), Layout::NCHW, values.to_vec()).unwrap();
        let bits: Vec<u32> = relu_forward(&t).as_slice().iter().map(|v| v.to_bits()).collect();
        let want = [0.0, -0.0, 0.0, 1.5, f32::NAN, 0.0].map(f32::to_bits);
        assert_eq!(bits, want);
    }

    #[test]
    fn lrn_normalizes_towards_unity() {
        let t = Tensor::full(Shape::new(1, 8, 2, 2), Layout::NCHW, 2.0);
        let out = lrn_forward(&t, 5, 1e-4, 0.75, 2.0);
        for (_, v) in out.iter_logical() {
            assert!(v > 0.0 && v < 2.0);
        }
    }

    #[test]
    fn lrn_identity_when_alpha_zero_k_one() {
        let t = Tensor::random(Shape::new(2, 6, 3, 3), Layout::NCHW, 5);
        let out = lrn_forward(&t, 5, 0.0, 0.75, 1.0);
        assert!(out.approx_eq(&t, 1e-6));
    }

    #[test]
    fn elementwise_kernel_is_bandwidth_bound() {
        let d = DeviceConfig::titan_black();
        let k = ElementwiseKernel::new("relu", 64 << 20, 1);
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        assert!(r.dram_gbs() > 0.7 * d.dram_bw / 1e9, "{} GB/s", r.dram_gbs());
    }

    #[test]
    fn lrn_kernel_l2_absorbs_window_rereads() {
        let d = DeviceConfig::titan_black();
        let k = LrnKernel::new(32 << 20, 5);
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        // 5x window reads but DRAM traffic stays near 2 passes.
        let passes = r.dram_bytes / (4.0 * (32 << 20) as f64);
        assert!(passes < 3.5, "DRAM passes {passes}");
    }
}
