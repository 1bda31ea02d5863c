//! Direct convolution over the `CHWN` layout — the cuda-convnet family.
//!
//! §IV.A: cuda-convnet "first allocates a warp of 32 threads in a TB to
//! process 32 images such that the memory accesses are coalesced. In order
//! to further reduce off-chip memory accesses, if the batch size N is 128,
//! cuda-convnet enables each thread to handle four images so that the data
//! of these four images can be reused in the register file."
//!
//! The kernel spec reproduces that structure: blocks of 32x4 threads, the
//! warp dimension running along `N`; `imgs_per_thread` in {1, 2, 4}
//! depending on `N`; 16 filters per block staged through shared memory;
//! input loads coalesced along the innermost `N` dimension. Filters are
//! stored `Ci,Fh,Fw,Co` order (cuda-convnet convention) so filter loads
//! coalesce too.

use crate::shapes::ConvShape;
use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, DeviceBuffer, KernelSpec, LaunchConfig, WorkSummary,
};
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;

/// Filters each of the 4 thread rows accumulates in registers: 8 when the
/// filter count allows (cuda-convnet's large-layer configuration), else 4.
fn filters_per_thread(co: usize) -> usize {
    if co.is_multiple_of(32) {
        8
    } else {
        4
    }
}

/// Filters per block (B_Y = 4 thread rows x `filters_per_thread`).
fn filters_per_block(co: usize) -> usize {
    4 * filters_per_thread(co)
}

/// `imgs_per_thread` rule from cuda-convnet: 4 when a block's 32-lane warp
/// can cover 128 images, else 2 for 64, else 1.
pub fn imgs_per_thread(n: usize) -> usize {
    if n.is_multiple_of(128) {
        4
    } else if n.is_multiple_of(64) {
        2
    } else {
        1
    }
}

/// GPU kernel spec of cuda-convnet's `filterActs` direct convolution.
#[derive(Clone, Debug)]
pub struct DirectConvChwn {
    shape: ConvShape,
    input: DeviceBuffer,
    filter: DeviceBuffer,
    output: DeviceBuffer,
    ipt: usize,
}

impl DirectConvChwn {
    /// Build with fresh device buffers.
    pub fn new(shape: ConvShape) -> DirectConvChwn {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.input_shape().len() as u64);
        let filter = asp.alloc_f32(shape.filter_shape().len() as u64);
        let output = asp.alloc_f32(shape.output_shape().len() as u64);
        DirectConvChwn { shape, input, filter, output, ipt: imgs_per_thread(shape.n) }
    }

    /// The images-per-thread register-reuse factor the kernel chose.
    pub fn images_per_thread(&self) -> usize {
        self.ipt
    }

    fn modules(&self) -> usize {
        self.shape.out_h() * self.shape.out_w()
    }

    fn co_groups(&self) -> usize {
        self.shape.co.div_ceil(filters_per_block(self.shape.co))
    }

    fn img_groups(&self) -> usize {
        self.shape.n.div_ceil(32 * self.ipt)
    }

    /// The block's `ipt` warp accesses to the `n_here` consecutive images
    /// starting at `f32` element `row` of `buf`: warp `i` covers images
    /// `32 i..32 (i + 1)`, one unit-stride run each.
    fn warps_along_n(
        &self,
        t: &mut BlockTrace,
        buf: DeviceBuffer,
        row: usize,
        n_here: usize,
        store: bool,
    ) {
        for lane0 in (0..n_here).step_by(32).take(self.ipt) {
            let lanes = 32.min(n_here - lane0);
            t.global_runs(&[(buf.f32((row + lane0) as u64), lanes as u64)], 4, store);
        }
    }
}

impl KernelSpec for DirectConvChwn {
    fn cache_key(&self) -> Option<String> {
        memcnn_gpusim::derived_cache_key(self)
    }

    fn name(&self) -> String {
        format!("direct-conv-chwn {} (ipt={})", self.shape, self.ipt)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: (self.modules() * self.co_groups() * self.img_groups()) as u64,
            threads_per_block: 128,
            // Accumulators (ipt x 4 filters) + staging + addressing.
            regs_per_thread: (20 + 6 * self.ipt + filters_per_thread(self.shape.co) * self.ipt)
                as u32,
            // Double-buffered filter tile + image tile.
            smem_per_block: ((filters_per_block(self.shape.co) + 32 * self.ipt) * 4 * 2) as u32,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let s = &self.shape;
        let in_bytes = 4.0 * s.input_shape().len() as f64;
        let filt_bytes = 4.0 * s.filter_shape().len() as f64;
        let out_bytes = 4.0 * s.output_shape().len() as f64;
        let footprint = (in_bytes + filt_bytes + out_bytes) as u64;
        WorkSummary::new(in_bytes + filt_bytes, out_bytes, footprint)
            // Independent accumulator tiles per thread.
            .with_ilp((self.ipt * filters_per_thread(self.shape.co)) as f64 * 0.5)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let s = &self.shape;
        let (oh, ow) = (s.out_h(), s.out_w());
        let modules = self.modules();
        let co_groups = self.co_groups();

        let module = (block as usize) % modules;
        let co_g = (block as usize / modules) % co_groups;
        let img_g = block as usize / (modules * co_groups);
        let (oy, ox) = (module / ow, module % ow);
        let co0 = co_g * filters_per_block(s.co);
        let n0 = img_g * 32 * self.ipt;
        let n_here = (32 * self.ipt).min(s.n - n0);
        let filters_here = filters_per_block(s.co).min(s.co - co0);

        let iters = s.ci * s.fh * s.fw;
        for ci in 0..s.ci {
            for fy in 0..s.fh {
                for fx in 0..s.fw {
                    let iy = (oy * s.stride + fy) as isize - s.pad as isize;
                    let ix = (ox * s.stride + fx) as isize - s.pad as isize;
                    // Filter tile load: [Ci][Fh][Fw][Co] layout, 16
                    // consecutive Co values — coalesced.
                    let frow = ((ci * s.fh + fy) * s.fw + fx) * s.co + co0;
                    t.global_runs(&[(self.filter.f32(frow as u64), filters_here as u64)], 4, false);
                    // Image loads: CHWN layout, lanes along N — coalesced.
                    if iy >= 0 && ix >= 0 && (iy as usize) < s.h && (ix as usize) < s.w {
                        let irow = ((ci * s.h + iy as usize) * s.w + ix as usize) * s.n + n0;
                        self.warps_along_n(t, self.input, irow, n_here, false);
                    }
                }
            }
        }

        // Shared-memory traffic, hoisted out of the loop: per iteration each
        // of the 4 warps stages and re-reads the tiles (conflict-free: unit
        // stride / broadcast patterns).
        let clean: Vec<u64> = (0..32u64).map(|l| l * 4).collect();
        // Double-buffered staging overlaps the fill with compute; per
        // iteration each warp re-reads its images and filter values.
        let smem_per_iter_per_warp = (1 + self.ipt + filters_per_thread(s.co)) as u64;
        t.shared_repeat(&clean, 4, iters as u64 * 4 * smem_per_iter_per_warp);

        // FMAs: every (ci,fy,fx) tap feeds filters_here x n_here outputs.
        t.flops(2 * (iters * filters_here * n_here) as u64);
        t.aux(iters as u64 * 4 * 2);

        // Output stores: [Co][OH][OW][N], coalesced along N.
        for f in 0..filters_here {
            let orow = ((co0 + f) * oh * ow + module) * s.n + n0;
            self.warps_along_n(t, self.output, orow, n_here, true);
        }
        t.sync();
    }
}

/// Functional direct convolution walking CHWN-friendly order: inner loops
/// run along `N` so the CPU implementation enjoys the same unit-stride
/// inner dimension the GPU kernel coalesces over. Input and output in
/// `CHWN`, filter in `NCHW` (`Co,Ci,Fh,Fw` order).
pub fn direct_conv_chwn(input: &Tensor, filter: &Tensor, shape: &ConvShape) -> Tensor {
    assert_eq!(input.layout(), Layout::CHWN, "direct_conv_chwn expects CHWN input");
    assert_eq!(input.shape(), shape.input_shape());
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let n = shape.n;
    let in_data = input.as_slice();
    let mut out = Tensor::zeros(shape.output_shape(), Layout::CHWN);
    // Output CHWN buffer: [Co][OH][OW][N]; parallel over (co, oy).
    let out_buf = out.as_mut_slice();
    out_buf.par_chunks_mut(ow * n).enumerate().for_each(|(row_idx, row)| {
        let co = row_idx / oh;
        let oy = row_idx % oh;
        for ox in 0..ow {
            let acc = &mut row[ox * n..(ox + 1) * n];
            for ci in 0..shape.ci {
                for fy in 0..shape.fh {
                    for fx in 0..shape.fw {
                        let iy = (oy * shape.stride + fy) as isize - shape.pad as isize;
                        let ix = (ox * shape.stride + fx) as isize - shape.pad as isize;
                        if iy < 0 || ix < 0 || iy as usize >= shape.h || ix as usize >= shape.w {
                            continue;
                        }
                        let w = filter.get(co, ci, fy, fx);
                        let in_row = ((ci * shape.h + iy as usize) * shape.w + ix as usize) * n;
                        for (a, &x) in acc.iter_mut().zip(&in_data[in_row..in_row + n]) {
                            *a += w * x;
                        }
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv_reference;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn imgs_per_thread_rule() {
        assert_eq!(imgs_per_thread(128), 4);
        assert_eq!(imgs_per_thread(256), 4);
        assert_eq!(imgs_per_thread(64), 2);
        assert_eq!(imgs_per_thread(32), 1);
        assert_eq!(imgs_per_thread(16), 1);
    }

    #[test]
    fn functional_matches_reference() {
        let s = ConvShape::table1(8, 16, 9, 3, 4, 1);
        let input = Tensor::random(s.input_shape(), Layout::CHWN, 1);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 2);
        let got = direct_conv_chwn(&input, &filter, &s);
        let want = conv_reference(&input, &filter, &s, Layout::CHWN).unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn zero_weight_over_infinite_input_is_nan_as_in_the_reference() {
        let s = ConvShape::table1(4, 2, 6, 3, 3, 1);
        let mut input = Tensor::random(s.input_shape(), Layout::CHWN, 5);
        input.set(1, 1, 2, 3, f32::INFINITY);
        let mut filter = Tensor::random(s.filter_shape(), Layout::NCHW, 6);
        for co in 0..s.co {
            for fy in 0..s.fh {
                for fx in 0..s.fw {
                    filter.set(co, 1, fy, fx, 0.0);
                }
            }
        }
        let got = direct_conv_chwn(&input, &filter, &s);
        let want = conv_reference(&input, &filter, &s, Layout::CHWN).unwrap();
        // 0 * inf = NaN in each of the 3x3 outputs per filter that see it.
        assert_eq!(want.as_slice().iter().filter(|v| v.is_nan()).count(), 2 * 9);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn functional_handles_stride_and_pad() {
        let s = ConvShape { pad: 1, ..ConvShape::table1(4, 8, 10, 3, 2, 2) };
        let input = Tensor::random(s.input_shape(), Layout::CHWN, 3);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 4);
        let got = direct_conv_chwn(&input, &filter, &s);
        let want = conv_reference(&input, &filter, &s, Layout::CHWN).unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn spec_flops_match_shape_flops() {
        let s = ConvShape::table1(128, 64, 12, 5, 64, 1); // CONV4
        let k = DirectConvChwn::new(s);
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        let expect = s.flops() as f64;
        assert!((r.flops - expect).abs() / expect < 0.02, "{} vs {expect}", r.flops);
    }

    #[test]
    fn input_loads_are_coalesced() {
        let s = ConvShape::table1(128, 16, 28, 5, 1, 1); // CONV1
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &DirectConvChwn::new(s), &SimOptions::default()).unwrap();
        let overfetch = r.transaction_bytes / r.requested_bytes;
        assert!(overfetch < 1.3, "overfetch {overfetch}");
    }

    #[test]
    fn batch_128_beats_batch_32_in_throughput() {
        // The paper's Fig 4a mechanism: N=128 gets 4x register reuse.
        let d = DeviceConfig::titan_black();
        let mk = |n| ConvShape::table1(n, 384, 13, 3, 256, 1); // CONV7 shape
        let r128 = simulate(&d, &DirectConvChwn::new(mk(128)), &SimOptions::default()).unwrap();
        let r32 = simulate(&d, &DirectConvChwn::new(mk(32)), &SimOptions::default()).unwrap();
        assert!(
            r128.gflops() > 1.5 * r32.gflops(),
            "128: {:.0} GF/s, 32: {:.0} GF/s",
            r128.gflops(),
            r32.gflops()
        );
    }

    #[test]
    fn grid_decomposition_counts() {
        let s = ConvShape::table1(128, 64, 24, 5, 3, 1); // CONV3: 20x20 out
        let k = DirectConvChwn::new(s);
        // modules=400, co_groups=2 (32 filters/block at Co=64), img_groups=1.
        assert_eq!(k.launch().grid_blocks, 400 * 2);
    }

    #[test]
    fn partial_warp_small_batch() {
        let s = ConvShape::table1(16, 16, 9, 3, 4, 1);
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &DirectConvChwn::new(s), &SimOptions::default()).unwrap();
        // Work still matches the analytic FLOP count.
        assert!((r.flops - s.flops() as f64).abs() / (s.flops() as f64) < 0.02);
    }
}
