//! im2col: the matrix-unroll step of MM-based convolution.
//!
//! §IV.A: "a matrix unroll step (along H and W) is needed to expand the
//! input matrix, and merge multiple dimensions into two dimensions. Such
//! matrix transformation overhead is more evident when the matrix size is
//! limited." This module provides the functional expansion and the GPU
//! kernel spec whose traffic is that overhead.

use crate::shapes::ConvShape;
use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};
use memcnn_tensor::{Layout, Tensor};

/// Expand an NCHW input into the unrolled matrix
/// `col[Ci*Fh*Fw][N*OH*OW]` (row-major), so that convolution becomes
/// `out = filter[Co][Ci*Fh*Fw] x col`.
///
/// Out-of-bounds taps (padding) contribute zeros. `conv::conv_forward`
/// gathers the same matrix panel by panel instead of building it.
pub fn im2col(input: &Tensor, shape: &ConvShape) -> Vec<f32> {
    assert_eq!(input.shape(), shape.input_shape(), "input shape mismatch");
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let k = shape.ci * shape.fh * shape.fw;
    let m = shape.n * oh * ow;
    let mut col = vec![0f32; k * m];
    for row in 0..k {
        let ci = row / (shape.fh * shape.fw);
        let fy = (row / shape.fw) % shape.fh;
        let fx = row % shape.fw;
        for n in 0..shape.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let iy = oy * shape.stride + fy;
                    let ix = ox * shape.stride + fx;
                    let (iy, ix) =
                        (iy as isize - shape.pad as isize, ix as isize - shape.pad as isize);
                    let v =
                        if iy >= 0 && ix >= 0 && (iy as usize) < shape.h && (ix as usize) < shape.w
                        {
                            input.get(n, ci, iy as usize, ix as usize)
                        } else {
                            0.0
                        };
                    col[row * m + (n * oh + oy) * ow + ox] = v;
                }
            }
        }
    }
    col
}

/// The inverse scatter-add (used by backward passes): fold a column matrix
/// back into an NCHW tensor, accumulating overlapping taps.
pub fn col2im(col: &[f32], shape: &ConvShape) -> Tensor {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let k = shape.ci * shape.fh * shape.fw;
    let m = shape.n * oh * ow;
    assert_eq!(col.len(), k * m, "col matrix size mismatch");
    let mut out = Tensor::zeros(shape.input_shape(), Layout::NCHW);
    for row in 0..k {
        let ci = row / (shape.fh * shape.fw);
        let fy = (row / shape.fw) % shape.fh;
        let fx = row % shape.fw;
        for n in 0..shape.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let iy = (oy * shape.stride + fy) as isize - shape.pad as isize;
                    let ix = (ox * shape.stride + fx) as isize - shape.pad as isize;
                    if iy >= 0 && ix >= 0 && (iy as usize) < shape.h && (ix as usize) < shape.w {
                        let v = out.get(n, ci, iy as usize, ix as usize)
                            + col[row * m + (n * oh + oy) * ow + ox];
                        out.set(n, ci, iy as usize, ix as usize, v);
                    }
                }
            }
        }
    }
    out
}

/// GPU kernel spec of the im2col expansion over an NCHW input.
///
/// One thread per `col` element, 256-thread blocks; consecutive threads
/// walk `ox`, so writes are coalesced and reads are stride-`S` gathers
/// (perfect at S=1, 2x over-fetch at S=2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Im2colKernel {
    shape: ConvShape,
    input: DeviceBuffer,
    col: DeviceBuffer,
}

impl Im2colKernel {
    /// Build with explicit buffers.
    pub fn new(shape: ConvShape, input: DeviceBuffer, col: DeviceBuffer) -> Im2colKernel {
        Im2colKernel { shape, input, col }
    }

    /// Build with fresh buffers.
    pub fn with_fresh_buffers(shape: ConvShape) -> Im2colKernel {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.input_shape().len() as u64);
        let col = asp.alloc_f32(Self::col_elems(&shape) as u64);
        Im2colKernel { shape, input, col }
    }

    /// Elements of the unrolled matrix.
    pub fn col_elems(shape: &ConvShape) -> usize {
        shape.ci * shape.fh * shape.fw * shape.n * shape.out_h() * shape.out_w()
    }
}

impl KernelSpec for Im2colKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("im2col {}", self.shape)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: (Self::col_elems(&self.shape).div_ceil(256)) as u64,
            threads_per_block: 256,
            regs_per_thread: 20,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let s = &self.shape;
        let col_bytes = 4.0 * Self::col_elems(s) as f64;
        let in_bytes = 4.0 * s.input_shape().len() as f64;
        WorkSummary::new(in_bytes, col_bytes, (in_bytes + col_bytes) as u64).with_ilp(2.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let s = &self.shape;
        let (oh, ow) = (s.out_h(), s.out_w());
        let m = s.n * oh * ow;
        let total = Self::col_elems(s) as u64;
        let base = block * 256;
        let mut loads = Vec::with_capacity(32);
        let mut stores = Vec::with_capacity(32);
        for w in 0..8u64 {
            loads.clear();
            stores.clear();
            for lane in 0..32u64 {
                let idx = base + w * 32 + lane;
                if idx >= total {
                    break;
                }
                let row = (idx / m as u64) as usize;
                let mm = (idx % m as u64) as usize;
                let ci = row / (s.fh * s.fw);
                let fy = (row / s.fw) % s.fh;
                let fx = row % s.fw;
                let n = mm / (oh * ow);
                let oy = (mm / ow) % oh;
                let ox = mm % ow;
                let iy = (oy * s.stride + fy) as isize - s.pad as isize;
                let ix = (ox * s.stride + fx) as isize - s.pad as isize;
                if iy >= 0 && ix >= 0 && (iy as usize) < s.h && (ix as usize) < s.w {
                    let e = ((n * s.ci + ci) * s.h + iy as usize) * s.w + ix as usize;
                    loads.push(self.input.f32(e as u64));
                }
                stores.push(self.col.f32(idx));
            }
            t.global_load(&loads, 4);
            t.global_store(&stores, 4);
            t.aux(6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::sgemm;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};
    use memcnn_tensor::Shape;

    fn conv_reference(input: &Tensor, filter: &Tensor, s: &ConvShape) -> Tensor {
        let mut out = Tensor::zeros(s.output_shape(), Layout::NCHW);
        for n in 0..s.n {
            for co in 0..s.co {
                for oy in 0..s.out_h() {
                    for ox in 0..s.out_w() {
                        let mut acc = 0f32;
                        for ci in 0..s.ci {
                            for fy in 0..s.fh {
                                for fx in 0..s.fw {
                                    let iy = (oy * s.stride + fy) as isize - s.pad as isize;
                                    let ix = (ox * s.stride + fx) as isize - s.pad as isize;
                                    if iy >= 0
                                        && ix >= 0
                                        && (iy as usize) < s.h
                                        && (ix as usize) < s.w
                                    {
                                        acc += input.get(n, ci, iy as usize, ix as usize)
                                            * filter.get(co, ci, fy, fx);
                                    }
                                }
                            }
                        }
                        out.set(n, co, oy, ox, acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn im2col_plus_gemm_equals_direct_convolution() {
        let s = ConvShape { pad: 1, ..ConvShape::table1(2, 4, 8, 3, 3, 1) };
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 1);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 2);
        let col = im2col(&input, &s);
        let k = s.ci * s.fh * s.fw;
        let m = s.n * s.out_h() * s.out_w();
        // filter viewed as [Co][K] is exactly its NCHW buffer.
        let out_mat = sgemm(s.co, k, m, filter.as_slice(), &col);
        let expect = conv_reference(&input, &filter, &s);
        for n in 0..s.n {
            for co in 0..s.co {
                for oy in 0..s.out_h() {
                    for ox in 0..s.out_w() {
                        let got = out_mat[co * m + (n * s.out_h() + oy) * s.out_w() + ox];
                        let want = expect.get(n, co, oy, ox);
                        assert!((got - want).abs() < 1e-3, "({n},{co},{oy},{ox})");
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_shapes_and_zeros_padding() {
        let s = ConvShape { pad: 2, ..ConvShape::table1(1, 1, 4, 3, 1, 1) };
        let input = Tensor::full(s.input_shape(), Layout::NCHW, 1.0);
        let col = im2col(&input, &s);
        assert_eq!(col.len(), 9 * s.out_h() * s.out_w());
        // Corner output (0,0) with pad 2: only tap (2,2) is in bounds.
        let m = s.out_h() * s.out_w();
        let in_bounds: usize = (0..9).filter(|row| col[row * m] != 0.0).count();
        assert_eq!(in_bounds, 1);
    }

    #[test]
    fn col2im_adjoint_inverts_on_disjoint_taps() {
        // Stride == filter size: every input element appears exactly once,
        // so col2im(im2col(x)) == x.
        let s = ConvShape::table1(2, 1, 8, 2, 3, 2);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 3);
        let col = im2col(&input, &s);
        let back = col2im(&col, &s);
        assert!(input.approx_eq(&back, 1e-6));
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // 3x3 window stride 1 on 3x3 input: single output, every tap used
        // once; center of a 5x5 with stride 1 is used 9 times.
        let s = ConvShape::table1(1, 1, 5, 3, 1, 1);
        let input = Tensor::full(s.input_shape(), Layout::NCHW, 1.0);
        let col = im2col(&input, &s);
        let back = col2im(&col, &s);
        assert_eq!(back.get(0, 0, 2, 2), 9.0);
        assert_eq!(back.get(0, 0, 0, 0), 1.0);
    }

    #[test]
    fn kernel_traffic_scales_with_filter_area() {
        // The unroll writes Fh*Fw copies of the input: traffic is dominated
        // by the expanded matrix (the §IV.A overhead).
        let d = DeviceConfig::titan_black();
        let s3 = ConvShape::table1(32, 64, 28, 3, 16, 1);
        let s5 = ConvShape::table1(32, 64, 28, 5, 16, 1);
        let r3 =
            simulate(&d, &Im2colKernel::with_fresh_buffers(s3), &SimOptions::default()).unwrap();
        let r5 =
            simulate(&d, &Im2colKernel::with_fresh_buffers(s5), &SimOptions::default()).unwrap();
        let ratio = r5.dram_bytes / r3.dram_bytes;
        // 25/9 in written elements (output smaller for 5x5, partially offset).
        assert!(ratio > 1.8 && ratio < 2.8, "ratio {ratio}");
    }

    #[test]
    fn kernel_writes_are_coalesced_at_stride_1() {
        let d = DeviceConfig::titan_black();
        let s = ConvShape::table1(32, 64, 28, 3, 16, 1);
        let r = simulate(&d, &Im2colKernel::with_fresh_buffers(s), &SimOptions::default()).unwrap();
        // moved/requested close to 1 for a mostly-coalesced kernel.
        let overfetch = r.transaction_bytes / r.requested_bytes;
        assert!(overfetch < 1.4, "overfetch {overfetch}");
    }

    #[test]
    fn stride_two_reads_overfetch() {
        let d = DeviceConfig::titan_black();
        let s1 = ConvShape::table1(32, 64, 27, 3, 16, 1);
        let s2 = ConvShape::table1(32, 64, 55, 5, 16, 2);
        let r1 =
            simulate(&d, &Im2colKernel::with_fresh_buffers(s1), &SimOptions::default()).unwrap();
        let r2 =
            simulate(&d, &Im2colKernel::with_fresh_buffers(s2), &SimOptions::default()).unwrap();
        let of1 = r1.transaction_bytes / r1.requested_bytes;
        let of2 = r2.transaction_bytes / r2.requested_bytes;
        assert!(of2 > of1, "stride-2 should over-fetch more: {of1} vs {of2}");
    }

    #[test]
    fn input_tensor_shape_is_validated() {
        let s = ConvShape::table1(2, 4, 8, 3, 3, 1);
        let wrong = Tensor::zeros(Shape::new(1, 3, 8, 8), Layout::NCHW);
        let result = std::panic::catch_unwind(|| im2col(&wrong, &s));
        assert!(result.is_err());
    }
}
