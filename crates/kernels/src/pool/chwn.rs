//! CHWN pooling kernel spec (cuda-convnet style) with optional thread
//! coarsening — the paper's §V.A optimization.
//!
//! Base kernel: 128-thread blocks, each warp handles one output position
//! for 32 images; loads coalesce along the innermost `N`. Coarsened kernel:
//! each warp handles a `uy x ux` tile of output positions, loading the
//! *union* of their (overlapping) windows once into registers — the
//! reduction in off-chip requests that Fig 12's `Opt` bars measure.

use crate::shapes::PoolShape;
use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};

/// Warps per block.
const WARPS: usize = 4;

/// CHWN pooling kernel spec.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PoolChwn {
    shape: PoolShape,
    /// Outputs per thread along `x` (1 = no coarsening).
    ux: usize,
    /// Outputs per thread along `y`.
    uy: usize,
    input: DeviceBuffer,
    output: DeviceBuffer,
}

impl PoolChwn {
    /// The uncoarsened cuda-convnet baseline.
    pub fn new(shape: PoolShape) -> PoolChwn {
        PoolChwn::coarsened(shape, 1, 1)
    }

    /// A coarsened variant with `ux x uy` outputs per thread.
    pub fn coarsened(shape: PoolShape, ux: usize, uy: usize) -> PoolChwn {
        assert!(ux >= 1 && uy >= 1, "expansion factors must be positive");
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.input_shape().len() as u64);
        let output = asp.alloc_f32(shape.output_shape().len() as u64);
        PoolChwn { shape, ux, uy, input, output }
    }

    /// Expansion factors `(ux, uy)`.
    pub fn expansion(&self) -> (usize, usize) {
        (self.ux, self.uy)
    }

    /// Union-window edge along x: `(ux-1)*stride + window`.
    fn union_w(&self) -> usize {
        (self.ux - 1) * self.shape.stride + self.shape.window
    }

    fn union_h(&self) -> usize {
        (self.uy - 1) * self.shape.stride + self.shape.window
    }

    /// Output tiles (warp work units).
    fn tiles(&self) -> usize {
        let (oh, ow) = (self.shape.out_h(), self.shape.out_w());
        self.shape.c * oh.div_ceil(self.uy) * ow.div_ceil(self.ux)
    }

    fn img_groups(&self) -> usize {
        self.shape.n.div_ceil(32)
    }
}

impl KernelSpec for PoolChwn {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        if (self.ux, self.uy) == (1, 1) {
            format!("pool-chwn {}", self.shape)
        } else {
            format!("pool-chwn-coarsened {}x{} {}", self.ux, self.uy, self.shape)
        }
    }

    fn launch(&self) -> LaunchConfig {
        let warp_units = self.tiles() * self.img_groups();
        LaunchConfig {
            grid_blocks: warp_units.div_ceil(WARPS) as u64,
            threads_per_block: (WARPS * 32) as u32,
            // The union window lives in registers — the §V.A register
            // pressure that stops the hill climb.
            regs_per_thread: (16 + self.union_w() * self.union_h()).min(255) as u32,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let s = &self.shape;
        let in_bytes = 4.0 * s.input_shape().len() as f64;
        let out_bytes = 4.0 * s.output_shape().len() as f64;
        WorkSummary::new(in_bytes, out_bytes, (in_bytes + out_bytes) as u64)
            .with_ilp((self.ux * self.uy) as f64)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let s = &self.shape;
        let (oh, ow) = (s.out_h(), s.out_w());
        let tiles_x = ow.div_ceil(self.ux);
        let tiles_y = oh.div_ceil(self.uy);
        let tiles = self.tiles();
        let mut addrs = Vec::with_capacity(32);
        for w in 0..WARPS as u64 {
            let unit = block * WARPS as u64 + w;
            if unit >= (tiles * self.img_groups()) as u64 {
                break;
            }
            let tile = (unit as usize) % tiles;
            let img_g = (unit as usize) / tiles;
            let c = tile / (tiles_y * tiles_x);
            let ty = (tile / tiles_x) % tiles_y;
            let tx = tile % tiles_x;
            let oy0 = ty * self.uy;
            let ox0 = tx * self.ux;
            let n0 = img_g * 32;
            let lanes = 32.min(s.n - n0);

            // Load the union of the tile's windows once (register reuse).
            let y_lo = oy0 * s.stride;
            let x_lo = ox0 * s.stride;
            let y_hi = (y_lo + self.union_h()).min(s.h);
            let x_hi = (x_lo + self.union_w()).min(s.w);
            for iy in y_lo..y_hi {
                for ix in x_lo..x_hi {
                    addrs.clear();
                    let row = ((c * s.h + iy) * s.w + ix) * s.n + n0;
                    for lane in 0..lanes {
                        addrs.push(self.input.f32((row + lane) as u64));
                    }
                    t.global_load(&addrs, 4);
                }
            }
            // Compute: every output consumes window^2 compares/adds.
            let outs_y = self.uy.min(oh - oy0);
            let outs_x = self.ux.min(ow - ox0);
            t.flops((outs_y * outs_x * s.window * s.window * lanes) as u64);
            t.aux(((y_hi - y_lo) * (x_hi - x_lo)) as u64 / 2 + 4);
            // Store the tile's outputs, coalesced along N.
            for oy in oy0..oy0 + outs_y {
                for ox in ox0..ox0 + outs_x {
                    addrs.clear();
                    let row = ((c * oh + oy) * ow + ox) * s.n + n0;
                    for lane in 0..lanes {
                        addrs.push(self.output.f32((row + lane) as u64));
                    }
                    t.global_store(&addrs, 4);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};

    fn pl3() -> PoolShape {
        // Cifar POOL3: 24x24, win 3, stride 2, C=64, N=128 (overlapped).
        PoolShape::table1(128, 24, 3, 64, 2)
    }

    #[test]
    fn baseline_is_coalesced_and_bandwidth_bound() {
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &PoolChwn::new(pl3()), &SimOptions::default()).unwrap();
        let overfetch = r.transaction_bytes / r.requested_bytes;
        assert!(overfetch < 1.1, "overfetch {overfetch}");
        assert!(r.dram_gbs() > 80.0, "achieved {} GB/s", r.dram_gbs());
    }

    #[test]
    fn coarsening_reduces_requested_traffic_on_overlapped_pooling() {
        let d = DeviceConfig::titan_black();
        let base = simulate(&d, &PoolChwn::new(pl3()), &SimOptions::default()).unwrap();
        let opt = simulate(&d, &PoolChwn::coarsened(pl3(), 2, 2), &SimOptions::default()).unwrap();
        // Union of a 2x2 tile of 3x3/stride-2 windows: 5x5=25 loads for 4
        // outputs vs 36 uncoarsened (partial edge tiles give some back; the
        // paper's own PL3 numbers are -9.1% transactions, -36% DRAM).
        assert!(
            opt.requested_bytes < 0.90 * base.requested_bytes,
            "opt {} vs base {}",
            opt.requested_bytes,
            base.requested_bytes
        );
        // Our L2 model credits the baseline's overlap re-reads more than
        // the paper's Titan Black profiling did, so the time gain is
        // attenuated relative to the paper's +33.9%; it must at least not
        // regress.
        assert!(opt.time() <= 1.03 * base.time());
    }

    #[test]
    fn coarsening_does_not_help_non_overlapped_pooling() {
        // PL1: win 2, stride 2 — windows are disjoint, the union equals the
        // sum, so requested bytes stay put.
        let d = DeviceConfig::titan_black();
        let s = PoolShape::table1(128, 28, 2, 16, 2);
        let base = simulate(&d, &PoolChwn::new(s), &SimOptions::default()).unwrap();
        let opt = simulate(&d, &PoolChwn::coarsened(s, 2, 2), &SimOptions::default()).unwrap();
        let ratio = opt.requested_bytes / base.requested_bytes;
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn excessive_coarsening_spills_occupancy() {
        // Large unions inflate register pressure; occupancy collapses —
        // the cliff the hill-climbing auto-tuner stops at.
        let small = PoolChwn::coarsened(pl3(), 1, 1).launch();
        let big = PoolChwn::coarsened(pl3(), 8, 8).launch();
        assert!(big.regs_per_thread > 3 * small.regs_per_thread);
    }

    #[test]
    fn flops_count_every_window_element() {
        let d = DeviceConfig::titan_black();
        let s = pl3();
        let r = simulate(&d, &PoolChwn::new(s), &SimOptions::default()).unwrap();
        let expect = (s.n * s.c * s.out_h() * s.out_w() * s.window * s.window) as f64;
        assert!((r.flops - expect).abs() / expect < 0.05, "{} vs {expect}", r.flops);
    }

    #[test]
    fn edge_tiles_clamp_to_bounds() {
        // 13x13 output (PL7-like) with ux=4: last tile is partial; the
        // kernel must not crash and flops must still match.
        let d = DeviceConfig::titan_black();
        let s = PoolShape::table1(64, 13, 3, 256, 2);
        let r = simulate(&d, &PoolChwn::coarsened(s, 4, 2), &SimOptions::default()).unwrap();
        let expect = (s.n * s.c * s.out_h() * s.out_w() * s.window * s.window) as f64;
        assert!((r.flops - expect).abs() / expect < 0.10, "{} vs {expect}", r.flops);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use memcnn_gpusim::{simulate, DeviceConfig, SimOptions};

    #[test]
    #[ignore]
    fn debug_breakdown() {
        let d = DeviceConfig::titan_black();
        let s = PoolShape::table1(128, 24, 3, 64, 2);
        for (tag, k) in [
            ("base", PoolChwn::new(s)),
            ("2x2", PoolChwn::coarsened(s, 2, 2)),
            ("4x2", PoolChwn::coarsened(s, 4, 2)),
        ] {
            let r = simulate(&d, &k, &SimOptions::default()).unwrap();
            println!("{tag}: {:?}", r.timing);
            println!(
                "  dram={:.2}MB tx={:.2}MB req={:.2}MB l2hit={:.2} grid={}",
                r.dram_bytes / 1e6,
                r.transaction_bytes / 1e6,
                r.requested_bytes / 1e6,
                r.l2_hit_rate,
                r.grid_blocks
            );
        }
    }
}
