//! Fast multi-dimensional data-layout transformation — §IV.C, Fig 7.
//!
//! Transforming `CHWN <-> NCHW` is, after flattening the three dimensions
//! that keep their relative order, a 2D transpose `[CHW][N] <-> [N][CHW]`.
//! Three kernels, exactly the paper's progression:
//!
//! - Naive (Fig 7a): one thread per element, reads coalesced
//!   along the source's innermost dimension, writes strided by the full
//!   row length — severe write over-fetch and a huge grid of tiny blocks.
//! - Opt1 (Fig 7b, steps 1-2): flatten to 2D, stage 32x32
//!   tiles through padded shared memory so both the global loads *and*
//!   stores coalesce.
//! - Opt2 (Fig 7b, step 3): additionally vectorize with
//!   `float2` under Kepler's 8-byte shared-memory bank mode, halving the
//!   instruction stream and doubling bytes per transaction. Applicable
//!   when `N >= 64` (the paper's rule).
//!
//! Functional semantics live in `memcnn_tensor::relayout`; these specs are
//! scored by the simulator to reproduce Fig 10/11.

use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};
use memcnn_tensor::{Layout, Shape};

/// Which transformation kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransformImpl {
    /// Fig 7a: naive 4D-hierarchy transpose.
    Naive,
    /// Fig 7b without vectorization: flatten + shared-memory 32x32 tiles.
    Opt1,
    /// Fig 7b with `float2` vectorization (requires `N >= 64`).
    Opt2,
}

/// A layout-transformation kernel between `CHWN` and `NCHW` (either
/// direction — the pair flattens to a 2D transpose).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TransformKernel {
    imp: TransformImpl,
    /// Flattened source rows.
    rows: usize,
    /// Flattened source cols (the source's innermost dimension).
    cols: usize,
    /// Whether the batch dimension (the vectorizable one) is the source's
    /// innermost (`CHWN -> NCHW`) or the destination's (`NCHW -> CHWN`).
    n_is_src_inner: bool,
    src: DeviceBuffer,
    dst: DeviceBuffer,
}

/// Batch-size threshold for the vectorized kernel (§IV.C: "applied when N
/// is larger than or equal to 64").
pub const VECTORIZE_MIN_N: usize = 64;

impl TransformKernel {
    /// Build a transformation kernel for `shape` moving from `from` to
    /// `to`. Panics unless the pair is a flattenable 2D transpose (the
    /// `CHWN <-> NCHW` family) and, for `Opt2`, unless `N >= 64`.
    pub fn new(shape: Shape, from: Layout, to: Layout, imp: TransformImpl) -> TransformKernel {
        assert!(
            from.is_2d_transpose_of(&to),
            "transform kernels handle flattenable layout pairs, got {from} -> {to}"
        );
        let n_is_src_inner = from.innermost() == memcnn_tensor::Dim::N;
        let n = shape.extent(memcnn_tensor::Dim::N);
        let chw = shape.len() / n;
        let (rows, cols) = if n_is_src_inner { (chw, n) } else { (n, chw) };
        if imp == TransformImpl::Opt2 {
            assert!(n >= VECTORIZE_MIN_N, "Opt2 requires N >= {VECTORIZE_MIN_N}, got {n}");
        }
        let mut asp = AddressSpace::new();
        let src = asp.alloc_f32(shape.len() as u64);
        let dst = asp.alloc_f32(shape.len() as u64);
        TransformKernel { imp, rows, cols, n_is_src_inner, src, dst }
    }

    /// Elements moved.
    pub fn elems(&self) -> usize {
        self.rows * self.cols
    }

    /// Scratch memory the transformation needs beyond the source tensor
    /// (the destination buffer — the paper's "less than 3%" §VI.A overhead
    /// argument counts this and frees it after the transform).
    pub fn scratch_bytes(&self) -> u64 {
        self.dst.bytes
    }

    fn trace_naive(&self, block: u64, t: &mut BlockTrace) {
        // Grid: rows x ceil(cols/256); 256 threads walking the source row.
        let col_blocks = self.cols.div_ceil(256) as u64;
        let row = (block / col_blocks) as usize;
        let c0 = ((block % col_blocks) * 256) as usize;
        let mut addrs = Vec::with_capacity(32);
        for w in 0..8usize {
            let base = c0 + w * 32;
            if base >= self.cols {
                break;
            }
            let lanes = 32.min(self.cols - base);
            addrs.clear();
            for lane in 0..lanes {
                addrs.push(self.src.f32((row * self.cols + base + lane) as u64));
            }
            t.global_load(&addrs, 4);
            // dst[col][row]: stride = rows elements — uncoalesced.
            addrs.clear();
            for lane in 0..lanes {
                addrs.push(self.dst.f32(((base + lane) * self.rows + row) as u64));
            }
            t.global_store(&addrs, 4);
            t.aux(4);
        }
    }

    fn tile_grid(&self, tile_r: usize, tile_c: usize) -> (usize, usize) {
        (self.rows.div_ceil(tile_r), self.cols.div_ceil(tile_c))
    }

    fn trace_opt1(&self, block: u64, t: &mut BlockTrace) {
        let (_, grid_c) = self.tile_grid(32, 32);
        let tr = (block as usize / grid_c) * 32;
        let tc = (block as usize % grid_c) * 32;
        let rows_here = 32.min(self.rows - tr);
        let cols_here = 32.min(self.cols - tc);
        let mut addrs = Vec::with_capacity(32);
        // Load 32 source rows (coalesced along cols), store into the padded
        // 33-wide shared tile.
        for r in 0..rows_here {
            addrs.clear();
            for lane in 0..cols_here {
                addrs.push(self.src.f32(((tr + r) * self.cols + tc + lane) as u64));
            }
            t.global_load(&addrs, 4);
            let sh: Vec<u64> = (0..cols_here as u64).map(|l| (r as u64 * 33 + l) * 4).collect();
            t.shared(&sh, 4);
        }
        t.sync();
        // Read the tile transposed (padding keeps it conflict-free) and
        // write destination rows coalesced.
        for c in 0..cols_here {
            let sh: Vec<u64> = (0..rows_here as u64).map(|l| (l * 33 + c as u64) * 4).collect();
            t.shared(&sh, 4);
            addrs.clear();
            for lane in 0..rows_here {
                addrs.push(self.dst.f32(((tc + c) * self.rows + tr + lane) as u64));
            }
            t.global_store(&addrs, 4);
        }
        t.aux(16);
        t.sync();
    }

    fn trace_opt2(&self, block: u64, t: &mut BlockTrace) {
        // The float2 dimension is the batch: tiles are 64 wide on the N
        // side, 32 on the CHW side.
        let (tile_r, tile_c) =
            if self.n_is_src_inner { (32usize, 64usize) } else { (64usize, 32usize) };
        let (_, grid_c) = self.tile_grid(tile_r, tile_c);
        let tr = (block as usize / grid_c) * tile_r;
        let tc = (block as usize % grid_c) * tile_c;
        let rows_here = tile_r.min(self.rows - tr);
        let cols_here = tile_c.min(self.cols - tc);
        let mut addrs = Vec::with_capacity(32);
        if self.n_is_src_inner {
            // CHWN -> NCHW: float2 loads along N (64 floats per warp).
            for r in 0..rows_here {
                addrs.clear();
                for lane in 0..cols_here.div_ceil(2).min(32) {
                    addrs.push(self.src.f32(((tr + r) * self.cols + tc + lane * 2) as u64));
                }
                t.global_load(&addrs, 8);
                let sh: Vec<u64> =
                    (0..addrs.len() as u64).map(|l| (r as u64 * 33 + l) * 8).collect();
                t.shared(&sh, 8);
            }
            t.sync();
            // Scatter: each float2 column writes two consecutive
            // destination rows as coalesced float stores (Fig 7b, 16-24).
            for c in 0..cols_here {
                let sh: Vec<u64> = (0..rows_here as u64)
                    .map(|l| (l * 33 + c as u64 / 2) * 8 + (c as u64 % 2) * 4)
                    .collect();
                t.shared(&sh, 8);
                addrs.clear();
                for lane in 0..rows_here {
                    addrs.push(self.dst.f32(((tc + c) * self.rows + tr + lane) as u64));
                }
                t.global_store(&addrs, 4);
            }
        } else {
            // NCHW -> CHWN: float loads along CHW, float2 stores along N.
            for r in 0..rows_here {
                addrs.clear();
                for lane in 0..cols_here.min(32) {
                    addrs.push(self.src.f32(((tr + r) * self.cols + tc + lane) as u64));
                }
                t.global_load(&addrs, 4);
                let sh: Vec<u64> =
                    (0..addrs.len() as u64).map(|l| (r as u64 * 33 + l) * 4).collect();
                t.shared(&sh, 4);
            }
            t.sync();
            for c in 0..cols_here {
                let sh: Vec<u64> =
                    (0..rows_here.div_ceil(2) as u64).map(|l| (l * 33 + c as u64) * 8).collect();
                t.shared(&sh, 8);
                addrs.clear();
                for lane in 0..rows_here.div_ceil(2).min(32) {
                    addrs.push(self.dst.f32(((tc + c) * self.rows + tr + lane * 2) as u64));
                }
                t.global_store(&addrs, 8);
            }
        }
        t.aux(16);
        t.sync();
    }
}

impl KernelSpec for TransformKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!(
            "transform-{:?} {}x{}{}",
            self.imp,
            self.rows,
            self.cols,
            if self.n_is_src_inner { " (CHWN->NCHW)" } else { " (NCHW->CHWN)" }
        )
    }

    fn launch(&self) -> LaunchConfig {
        match self.imp {
            TransformImpl::Naive => LaunchConfig {
                grid_blocks: (self.rows * self.cols.div_ceil(256)) as u64,
                threads_per_block: 256,
                regs_per_thread: 12,
                smem_per_block: 0,
                bank_mode: BankMode::FourByte,
            },
            TransformImpl::Opt1 => {
                let (gr, gc) = self.tile_grid(32, 32);
                LaunchConfig {
                    grid_blocks: (gr * gc) as u64,
                    threads_per_block: 256,
                    regs_per_thread: 18,
                    smem_per_block: 32 * 33 * 4,
                    bank_mode: BankMode::FourByte,
                }
            }
            TransformImpl::Opt2 => {
                let (tile_r, tile_c) = if self.n_is_src_inner { (32, 64) } else { (64, 32) };
                let (gr, gc) = self.tile_grid(tile_r, tile_c);
                LaunchConfig {
                    grid_blocks: (gr * gc) as u64,
                    threads_per_block: 256,
                    regs_per_thread: 20,
                    smem_per_block: 32 * 33 * 8,
                    bank_mode: BankMode::EightByte,
                }
            }
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = 4.0 * self.elems() as f64;
        WorkSummary::new(bytes, bytes, self.src.bytes + self.dst.bytes).with_ilp(match self.imp {
            TransformImpl::Naive => 1.0,
            TransformImpl::Opt1 => 4.0,
            TransformImpl::Opt2 => 8.0,
        })
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        match self.imp {
            TransformImpl::Naive => self.trace_naive(block, t),
            TransformImpl::Opt1 => self.trace_opt1(block, t),
            TransformImpl::Opt2 => self.trace_opt2(block, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};

    fn cv2_input() -> Shape {
        // LeNet CONV2 input: 128 x 16 x 14 x 14.
        Shape::new(128, 16, 14, 14)
    }

    fn cv6_input() -> Shape {
        // ZFNet CONV6 input: 64 x 96 x 55 x 55 (the paper's 97.6% example).
        Shape::new(64, 96, 55, 55)
    }

    #[test]
    fn naive_writes_are_uncoalesced() {
        let d = DeviceConfig::titan_black();
        let k = TransformKernel::new(cv2_input(), Layout::CHWN, Layout::NCHW, TransformImpl::Naive);
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        let overfetch = r.transaction_bytes / r.requested_bytes;
        assert!(overfetch > 3.0, "overfetch {overfetch}");
    }

    #[test]
    fn opt1_is_fully_coalesced_and_much_faster() {
        let d = DeviceConfig::titan_black();
        let shape = cv6_input();
        let naive = TransformKernel::new(shape, Layout::CHWN, Layout::NCHW, TransformImpl::Naive);
        let opt1 = TransformKernel::new(shape, Layout::CHWN, Layout::NCHW, TransformImpl::Opt1);
        let rn = simulate(&d, &naive, &SimOptions::default()).unwrap();
        let r1 = simulate(&d, &opt1, &SimOptions::default()).unwrap();
        let overfetch = r1.transaction_bytes / r1.requested_bytes;
        assert!(overfetch < 1.2, "opt1 overfetch {overfetch}");
        // Fig 11: ~6.5x average speedup from Opt1.
        assert!(
            r1.time() < rn.time() / 3.0,
            "naive {:.0}us vs opt1 {:.0}us",
            rn.time() * 1e6,
            r1.time() * 1e6
        );
    }

    #[test]
    fn opt2_outperforms_opt1_when_applicable() {
        let d = DeviceConfig::titan_black();
        let shape = cv6_input();
        let opt1 = TransformKernel::new(shape, Layout::CHWN, Layout::NCHW, TransformImpl::Opt1);
        let opt2 = TransformKernel::new(shape, Layout::CHWN, Layout::NCHW, TransformImpl::Opt2);
        let r1 = simulate(&d, &opt1, &SimOptions::default()).unwrap();
        let r2 = simulate(&d, &opt2, &SimOptions::default()).unwrap();
        assert!(
            r2.time() < r1.time(),
            "opt1 {:.0}us vs opt2 {:.0}us",
            r1.time() * 1e6,
            r2.time() * 1e6
        );
    }

    #[test]
    fn opt2_reaches_near_effective_bandwidth_on_cv6() {
        // §VI.A: "The optimized bandwidth for CONV6 has achieved
        // 229.5GB/S, which is 97.6% of the effective GPU memory bandwidth."
        let d = DeviceConfig::titan_black();
        let k = TransformKernel::new(cv6_input(), Layout::CHWN, Layout::NCHW, TransformImpl::Opt2);
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        assert!(r.dram_gbs() > 0.75 * d.dram_bw / 1e9, "only {} GB/s", r.dram_gbs());
    }

    #[test]
    #[should_panic(expected = "Opt2 requires N >= 64")]
    fn opt2_rejects_small_batches() {
        // Fig 11: "Transform-Opt2 is not applicable for CV10, CV11, CV12
        // whose N is smaller than 64."
        TransformKernel::new(
            Shape::new(32, 128, 56, 56),
            Layout::CHWN,
            Layout::NCHW,
            TransformImpl::Opt2,
        );
    }

    #[test]
    fn reverse_direction_works_for_all_impls() {
        let d = DeviceConfig::titan_black();
        for imp in [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2] {
            let k = TransformKernel::new(cv2_input(), Layout::NCHW, Layout::CHWN, imp);
            let r = simulate(&d, &k, &SimOptions::default()).unwrap();
            assert!(r.time() > 0.0, "{imp:?}");
        }
    }

    #[test]
    #[should_panic(expected = "flattenable layout pairs")]
    fn non_transpose_pairs_are_rejected() {
        TransformKernel::new(cv2_input(), Layout::NCHW, Layout::NHWC, TransformImpl::Opt1);
    }

    #[test]
    fn scratch_is_one_tensor_copy() {
        let k = TransformKernel::new(cv2_input(), Layout::CHWN, Layout::NCHW, TransformImpl::Opt1);
        assert_eq!(k.scratch_bytes(), 4 * cv2_input().len() as u64);
    }

    #[test]
    fn edge_tiles_are_handled() {
        // 13x13 maps: CHW = 256*13*13 = 43264, not a multiple of 32.
        let d = DeviceConfig::titan_black();
        let shape = Shape::new(128, 256, 13, 13);
        for imp in [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2] {
            let k = TransformKernel::new(shape, Layout::CHWN, Layout::NCHW, imp);
            let r = simulate(&d, &k, &SimOptions::default()).unwrap();
            assert!(r.requested_bytes > 0.0, "{imp:?}");
        }
    }
}
