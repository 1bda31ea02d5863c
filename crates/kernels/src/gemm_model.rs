//! GPU access-pattern model of a shared-memory-tiled SGEMM.
//!
//! This is the behavioural stand-in for cuBLAS (§II.B: Caffe/cuDNN
//! "utilize the cuBLAS library for matrix operations"). The kernel is the
//! classic tiled GEMM: each block computes a `TM x TN` tile of `C`,
//! marching over `K` in `TK`-wide steps; each step stages an `A` and a `B`
//! tile through shared memory, and each thread accumulates an
//! `RT x RT` register tile.

use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};

/// Tiling parameters of the modelled GEMM kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmConfig {
    /// C-tile rows per block.
    pub tm: usize,
    /// C-tile cols per block.
    pub tn: usize,
    /// K-step per shared-memory stage.
    pub tk: usize,
    /// Register tile edge per thread (RT x RT accumulators).
    pub rt: usize,
}

impl Default for GemmConfig {
    fn default() -> Self {
        // 64x64 C tiles, 16-wide K steps, 4x4 register tiles: 256 threads.
        GemmConfig { tm: 64, tn: 64, tk: 16, rt: 4 }
    }
}

impl GemmConfig {
    /// Threads per block implied by the tiling.
    pub fn threads(&self) -> usize {
        (self.tm / self.rt) * (self.tn / self.rt)
    }
}

/// Kernel spec of `C[m x n] = A[m x k] x B[k x n]` (row-major).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GemmKernel {
    m: usize,
    k: usize,
    n: usize,
    cfg: GemmConfig,
    a: DeviceBuffer,
    b: DeviceBuffer,
    c: DeviceBuffer,
    /// Extra footprint owned by the caller's pipeline (e.g. the im2col
    /// matrix this GEMM consumes), counted for OOM checks.
    extra_footprint: u64,
}

impl GemmKernel {
    /// Build with explicit device buffers (for pipelines that share them).
    pub fn new(
        m: usize,
        k: usize,
        n: usize,
        cfg: GemmConfig,
        a: DeviceBuffer,
        b: DeviceBuffer,
        c: DeviceBuffer,
    ) -> GemmKernel {
        assert!(
            cfg.tm.is_multiple_of(cfg.rt) && cfg.tn.is_multiple_of(cfg.rt),
            "register tile must divide C tile"
        );
        GemmKernel { m, k, n, cfg, a, b, c, extra_footprint: 0 }
    }

    /// Build with freshly allocated buffers.
    pub fn with_fresh_buffers(m: usize, k: usize, n: usize, cfg: GemmConfig) -> GemmKernel {
        let mut asp = AddressSpace::new();
        let a = asp.alloc_f32((m * k) as u64);
        let b = asp.alloc_f32((k * n) as u64);
        let c = asp.alloc_f32((m * n) as u64);
        GemmKernel::new(m, k, n, cfg, a, b, c)
    }

    /// Count extra bytes toward the footprint (pipeline workspaces).
    pub fn with_extra_footprint(mut self, bytes: u64) -> GemmKernel {
        self.extra_footprint = bytes;
        self
    }

    fn grid_dims(&self) -> (usize, usize) {
        (self.m.div_ceil(self.cfg.tm), self.n.div_ceil(self.cfg.tn))
    }

    /// FLOPs of the product.
    pub fn flops(&self) -> u64 {
        2 * (self.m * self.k * self.n) as u64
    }
}

impl KernelSpec for GemmKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("sgemm {}x{}x{}", self.m, self.k, self.n)
    }

    fn launch(&self) -> LaunchConfig {
        let (gm, gn) = self.grid_dims();
        let smem = (self.cfg.tm * self.cfg.tk + self.cfg.tk * self.cfg.tn) * 4;
        LaunchConfig {
            grid_blocks: (gm * gn) as u64,
            threads_per_block: self.cfg.threads() as u32,
            // Accumulators + staging + addressing.
            regs_per_thread: (self.cfg.rt * self.cfg.rt + 2 * self.cfg.rt + 16) as u32,
            smem_per_block: smem as u32,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let unique = 4.0 * (self.m * self.k + self.k * self.n) as f64;
        let stores = 4.0 * (self.m * self.n) as f64;
        let footprint =
            4 * (self.m * self.k + self.k * self.n + self.m * self.n) as u64 + self.extra_footprint;
        // Register tiling gives RT independent accumulator rows in flight.
        // The sustained-peak cap calibrates to cuDNN v4's measured MM
        // convolution plateau on Kepler (Fig 4: ~1400 GFLOPS of 5121 at
        // large K): compiler-scheduled tiled SGEMM stalls on shared-memory
        // operand latency the occupancy model cannot see. Short K loops
        // never fill the software pipeline (startup/drain dominate), which
        // is the §IV.A "matrix transformation overhead is more evident when
        // the matrix size is limited" effect at small C.
        let k_ramp = 20.0;
        let cap = 0.30 * self.k as f64 / (self.k as f64 + k_ramp);
        WorkSummary::new(unique, stores, footprint)
            .with_ilp(self.cfg.rt as f64 * 2.0)
            .with_alu_cap(cap)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let (gm, gn) = self.grid_dims();
        let _ = gm;
        let bm = (block as usize / gn) * self.cfg.tm;
        let bn = (block as usize % gn) * self.cfg.tn;
        let threads = self.cfg.threads();
        let warps = threads / 32;
        let tm_eff = self.cfg.tm.min(self.m - bm);
        let tn_eff = self.cfg.tn.min(self.n - bn);

        let steps = self.k.div_ceil(self.cfg.tk);
        // Shared-memory warp accesses of every step. They all use one
        // conflict-free pattern (consecutive lanes, consecutive words), so
        // they are recorded at once after the loop.
        let mut smem_accesses = 0;
        for s in 0..steps {
            let k0 = s * self.cfg.tk;
            let k_eff = self.cfg.tk.min(self.k - k0);
            // Stage A tile (tm_eff x k_eff): warps cooperatively load rows;
            // consecutive lanes walk K (row-major A) — coalesced up to
            // k_eff, then the next row.
            let a_elems = tm_eff * k_eff;
            tile_walk(t, self.a, a_elems, k_eff, false, |r| (bm + r) * self.k + k0);
            // Stage B tile (k_eff x tn_eff): consecutive lanes walk N —
            // coalesced.
            let b_elems = k_eff * tn_eff;
            tile_walk(t, self.b, b_elems, tn_eff, false, |kk| (k0 + kk) * self.n + bn);
            // Shared-memory staging stores.
            smem_accesses += ((a_elems + b_elems) / 32).max(1) as u64;
            t.sync();
            // Register-tile compute: per k-iteration each thread reads RT
            // A values (column broadcast within a thread row — conflict
            // free with padding) and RT B values, then does RT x RT FMAs.
            let smem_reads_per_warp = k_eff as u64 * 2 * self.cfg.rt as u64;
            smem_accesses += smem_reads_per_warp * warps as u64;
            t.flops(2 * (tm_eff * tn_eff * k_eff) as u64);
            t.aux(warps as u64 * 4);
            t.sync();
        }
        let stage_addrs: [u64; 32] = std::array::from_fn(|l| l as u64 * 4);
        t.shared_repeat(&stage_addrs, 4, smem_accesses);
        // Write C tile: consecutive lanes along N — coalesced.
        let c_elems = tm_eff * tn_eff;
        tile_walk(t, self.c, c_elems, tn_eff, true, |r| (bm + r) * self.n + bn);
    }
}

/// The warp accesses that cover elements `0..elems` of a row-major tile
/// `width` elements wide whose row `r` starts at `f32` element `row(r)` of
/// `buf`: 32 consecutive elements per access, the last one ragged.
/// Consecutive lanes walk a row, then the next (rows lie at increasing
/// addresses), so an access is one unit-stride run per row it touches.
/// The walk carries its `(row, col)` position across accesses, so no
/// access divides by `width`.
fn tile_walk(
    t: &mut BlockTrace,
    buf: DeviceBuffer,
    elems: usize,
    width: usize,
    store: bool,
    row: impl Fn(usize) -> usize,
) {
    let mut runs = [(0u64, 0u64); 32];
    let (mut r, mut c) = (0, 0);
    let mut left_in_tile = elems;
    while left_in_tile > 0 {
        let lanes = 32.min(left_in_tile);
        let (mut n, mut left) = (0, lanes);
        while left > 0 {
            let len = (width - c).min(left);
            runs[n] = (buf.f32((row(r) + c) as u64), len as u64);
            (n, left, c) = (n + 1, left - len, c + len);
            if c == width {
                (r, c) = (r + 1, 0);
            }
        }
        t.global_runs(&runs[..n], 4, store);
        left_in_tile -= lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};
    use proptest::prelude::*;

    /// The tile walk before it carried its position: one warp access per
    /// 32 elements, each locating its first element by division.
    fn reference_walk(
        t: &mut BlockTrace,
        buf: DeviceBuffer,
        elems: usize,
        width: usize,
        store: bool,
        row: impl Fn(usize) -> usize,
    ) {
        for e0 in (0..elems).step_by(32) {
            let lanes = 32.min(elems - e0);
            let mut runs = [(0u64, 0u64); 32];
            let (mut r, mut c) = (e0 / width, e0 % width);
            let (mut n, mut left) = (0, lanes);
            while left > 0 {
                let len = (width - c).min(left);
                runs[n] = (buf.f32((row(r) + c) as u64), len as u64);
                (n, left, r, c) = (n + 1, left - len, r + 1, 0);
            }
            t.global_runs(&runs[..n], 4, store);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The carried-position walk records exactly what the per-access
        /// division did, for the A, B and C tiles of any block and K step
        /// of random GEMMs: ragged edge tiles, `k < tk` and `n < 32`
        /// included.
        #[test]
        fn tile_walk_matches_per_access_division(
            m in 1usize..200,
            k in 1usize..100,
            n in 1usize..200,
            pick in any::<u64>(),
        ) {
            let g = GemmKernel::with_fresh_buffers(m, k, n, GemmConfig::default());
            let (tm, tn, tk) = (g.cfg.tm, g.cfg.tn, g.cfg.tk);
            let (_, gn) = g.grid_dims();
            let block = (pick % g.launch().grid_blocks) as usize;
            let (bm, bn) = (block / gn * tm, block % gn * tn);
            let (tm_eff, tn_eff) = (tm.min(m - bm), tn.min(n - bn));
            let k0 = (pick >> 32) as usize % k.div_ceil(tk) * tk;
            let k_eff = tk.min(k - k0);
            let mut walked = BlockTrace::new(BankMode::FourByte, 32);
            let mut reference = BlockTrace::new(BankMode::FourByte, 32);
            let mut check = |buf, rows, width, store, row: &dyn Fn(usize) -> usize| {
                tile_walk(&mut walked, buf, rows * width, width, store, row);
                reference_walk(&mut reference, buf, rows * width, width, store, row);
                assert_eq!(walked, reference, "{rows}x{width} tile at ({bm}, {bn}), k0 {k0}");
            };
            check(g.a, tm_eff, k_eff, false, &|r| (bm + r) * k + k0);
            check(g.b, k_eff, tn_eff, false, &|kk| (k0 + kk) * n + bn);
            check(g.c, tm_eff, tn_eff, true, &|r| (bm + r) * n + bn);
        }
    }

    #[test]
    fn big_square_gemm_is_compute_bound_at_decent_utilization() {
        let d = DeviceConfig::titan_black();
        let g = GemmKernel::with_fresh_buffers(2048, 2048, 2048, GemmConfig::default());
        let r = simulate(&d, &g, &SimOptions::default()).unwrap();
        let util = r.timing.alu_utilization;
        // Capped at ~30% sustained peak (the cuDNN v4 MM calibration).
        assert!(util > 0.22, "utilization {util}");
        assert!(util <= 0.31);
        // 2 * 2048^3 = 17.2 GFLOP.
        assert!((r.flops - 17.18e9).abs() / 17.18e9 < 0.01, "flops {}", r.flops);
    }

    #[test]
    fn skinny_k_gemm_is_memory_bound() {
        // K=9 (a 3x3 single-channel conv as GEMM): almost no reuse.
        let d = DeviceConfig::titan_black();
        let g = GemmKernel::with_fresh_buffers(64, 9, 50_000, GemmConfig::default());
        let r = simulate(&d, &g, &SimOptions::default()).unwrap();
        assert!(r.timing.alu_utilization < 0.2, "util {}", r.timing.alu_utilization);
    }

    #[test]
    fn grid_covers_matrix_with_edge_tiles() {
        let g = GemmKernel::with_fresh_buffers(100, 64, 130, GemmConfig::default());
        // ceil(100/64) x ceil(130/64) = 2 x 3.
        assert_eq!(g.launch().grid_blocks, 6);
    }

    #[test]
    fn footprint_counts_all_three_matrices() {
        let g = GemmKernel::with_fresh_buffers(10, 20, 30, GemmConfig::default());
        assert_eq!(g.work().footprint_bytes, 4 * (200 + 600 + 300));
        let g2 = GemmKernel::with_fresh_buffers(10, 20, 30, GemmConfig::default())
            .with_extra_footprint(1000);
        assert_eq!(g2.work().footprint_bytes, 4 * (200 + 600 + 300) + 1000);
    }

    #[test]
    fn larger_k_amortizes_staging_and_improves_utilization() {
        let d = DeviceConfig::titan_black();
        let small_k = GemmKernel::with_fresh_buffers(512, 32, 8192, GemmConfig::default());
        let large_k = GemmKernel::with_fresh_buffers(512, 2048, 8192, GemmConfig::default());
        let rs = simulate(&d, &small_k, &SimOptions::default()).unwrap();
        let rl = simulate(&d, &large_k, &SimOptions::default()).unwrap();
        assert!(rl.timing.alu_utilization > rs.timing.alu_utilization);
    }

    #[test]
    fn trace_flops_match_analytic_flops() {
        let d = DeviceConfig::titan_black();
        let g = GemmKernel::with_fresh_buffers(256, 128, 512, GemmConfig::default());
        let r = simulate(&d, &g, &SimOptions::default()).unwrap();
        let expect = g.flops() as f64;
        assert!((r.flops - expect).abs() / expect < 1e-6);
    }
}
