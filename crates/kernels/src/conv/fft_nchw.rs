//! FFT-based convolution over `NCHW` — cuDNN v4's `FFT` and `FFT_TILING`
//! modes (§IV.A "Data Layouts in FFT-based Implementations", Fig 5).
//!
//! Pipeline: (1) batched 2D FFT of the input feature maps, (2) batched 2D
//! FFT of the zero-padded filters, (3) per-frequency complex products
//! accumulated over `Ci` (a small CGEMM per frequency bin), (4) batched
//! inverse FFT and crop. The tiling variant runs the same pipeline over
//! 32x32 tiles to shrink the padded frames.
//!
//! Two failure modes from the paper are reproduced:
//!
//! - **Unsupported stride**: cuDNN v4's FFT modes require stride 1; CV5 and
//!   CV6 (the only strided layers in Table 1) are exactly the layers Fig 5
//!   reports as "execution failures". Construction returns
//!   [`ConvError::Unsupported`] for them. (The paper attributes the failures
//!   to the 6 GB memory limit; CV5's frames alone need ~7 GB with
//!   double-buffered workspaces, so both explanations coincide there.)
//! - **Out of memory**: declared footprints include the complex frames and
//!   a 2x cuFFT workspace factor, so over-budget configurations fail at
//!   simulation time with [`memcnn_gpusim::SimError::OutOfMemory`].

use crate::conv::ConvError;
use crate::shapes::ConvShape;
use memcnn_fft::{fft_correlate2d, next_pow2};
use memcnn_gpusim::{
    simulate_sequence, AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, DeviceConfig,
    KernelSpec, LaunchConfig, SequenceReport, SimError, SimOptions, WorkSummary,
};
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;

/// Which FFT convolution variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FftConvMode {
    /// Whole-image frames (cuDNN `FFT`): fastest when it fits, hungriest.
    Full,
    /// 32x32 tiled frames (cuDNN `FFT_TILING`): bounded padding overhead.
    Tiled,
}

/// Tile edge of the tiling variant (the paper: "splits the inputs into
/// 32x32 tiles").
pub const TILE: usize = 32;

/// cuFFT-style workspace multiplier on the complex frames (plan workspace
/// plus double buffering).
const WORKSPACE_FACTOR: f64 = 2.0;

/// The FFT convolution pipeline.
#[derive(Clone, Debug)]
pub struct FftConvNchw {
    shape: ConvShape,
    mode: FftConvMode,
    /// Frame edge (power of two).
    frame: usize,
    /// Tiles per image (1 for Full).
    tiles: usize,
    buffers: FftBuffers,
}

#[derive(Clone, Copy, Debug)]
struct FftBuffers {
    input: DeviceBuffer,
    in_freq: DeviceBuffer,
    filt_freq: DeviceBuffer,
    out_freq: DeviceBuffer,
    output: DeviceBuffer,
    total_bytes: u64,
}

impl FftConvNchw {
    /// Build the pipeline; fails for strided convolutions (cuDNN v4 FFT
    /// limitation).
    pub fn new(shape: ConvShape, mode: FftConvMode) -> Result<FftConvNchw, ConvError> {
        shape.validate().map_err(ConvError::Unsupported)?;
        if shape.stride != 1 {
            return Err(ConvError::Unsupported(format!(
                "FFT convolution requires stride 1, got {} (cuDNN v4 limitation)",
                shape.stride
            )));
        }
        let (frame, tiles) = match mode {
            FftConvMode::Full => {
                (next_pow2((shape.h + 2 * shape.pad).max(shape.w + 2 * shape.pad)), 1)
            }
            FftConvMode::Tiled => {
                if shape.fh >= TILE || shape.fw >= TILE {
                    return Err(ConvError::Unsupported(format!(
                        "FFT tiling requires filters smaller than the {TILE}x{TILE} tile"
                    )));
                }
                let padded = (shape.h + 2 * shape.pad).max(shape.w + 2 * shape.pad);
                if padded + shape.fh - 1 <= TILE {
                    // Image already fits one tile: identical to whole-image
                    // frames (cuDNN's FFT_TILING degenerates the same way).
                    (next_pow2(padded), 1)
                } else {
                    let eff = TILE - shape.fh + 1;
                    let t1d = shape.out_h().div_ceil(eff);
                    (TILE, t1d * t1d)
                }
            }
        };
        let complex_per_frame = (frame * frame * 2) as u64; // f32 pairs
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.input_shape().len() as u64);
        let in_freq = asp.alloc_f32((shape.n * shape.ci * tiles) as u64 * complex_per_frame);
        let filt_freq = asp.alloc_f32((shape.co * shape.ci) as u64 * complex_per_frame);
        let out_freq = asp.alloc_f32((shape.n * shape.co * tiles) as u64 * complex_per_frame);
        let output = asp.alloc_f32(shape.output_shape().len() as u64);
        let freq_bytes = in_freq.bytes + filt_freq.bytes + out_freq.bytes;
        let total_bytes =
            input.bytes + output.bytes + (freq_bytes as f64 * WORKSPACE_FACTOR) as u64;
        Ok(FftConvNchw {
            shape,
            mode,
            frame,
            tiles,
            buffers: FftBuffers { input, in_freq, filt_freq, out_freq, output, total_bytes },
        })
    }

    /// The convolution shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Frame edge used for the transforms.
    pub fn frame(&self) -> usize {
        self.frame
    }

    /// Tiles per image.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Total device-memory footprint in bytes (incl. workspace factor).
    pub fn footprint_bytes(&self) -> u64 {
        self.buffers.total_bytes
    }

    /// The pipeline's kernels in execution order.
    pub fn kernels(&self) -> Vec<Box<dyn KernelSpec + Send>> {
        let s = &self.shape;
        let b = &self.buffers;
        vec![
            Box::new(FftTransformKernel {
                name: format!("fft-fwd-input {}", self.mode_tag()),
                batch: s.n * s.ci * self.tiles,
                frame: self.frame,
                src: b.input,
                src_real_elems: s.input_shape().len() as u64,
                dst: b.in_freq,
                inverse: false,
                footprint: b.total_bytes,
            }),
            Box::new(FftTransformKernel {
                name: format!("fft-fwd-filter {}", self.mode_tag()),
                batch: s.co * s.ci,
                frame: self.frame,
                src: b.input, // filters live with input for modelling purposes
                src_real_elems: s.filter_shape().len() as u64,
                dst: b.filt_freq,
                inverse: false,
                footprint: b.total_bytes,
            }),
            Box::new(FftPointwiseKernel {
                shape: *s,
                frame: self.frame,
                tiles: self.tiles,
                in_freq: b.in_freq,
                filt_freq: b.filt_freq,
                out_freq: b.out_freq,
                footprint: b.total_bytes,
            }),
            Box::new(FftTransformKernel {
                name: format!("fft-inv-output {}", self.mode_tag()),
                batch: s.n * s.co * self.tiles,
                frame: self.frame,
                src: b.out_freq,
                src_real_elems: 0,
                dst: b.output,
                inverse: true,
                footprint: b.total_bytes,
            }),
        ]
    }

    fn mode_tag(&self) -> &'static str {
        match self.mode {
            FftConvMode::Full => "full",
            FftConvMode::Tiled => "tiled",
        }
    }

    /// Simulate the pipeline (OOM surfaces here, as in the paper's Fig 5).
    pub fn simulate(
        &self,
        device: &DeviceConfig,
        opts: &SimOptions,
    ) -> Result<SequenceReport, SimError> {
        let kernels = self.kernels();
        let refs: Vec<&dyn KernelSpec> = kernels.iter().map(|k| k.as_ref() as _).collect();
        simulate_sequence(device, &refs, opts)
    }
}

/// Batched 2D FFT kernel (forward or inverse): streams frames through
/// shared memory with `log2` butterfly stages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FftTransformKernel {
    name: String,
    batch: usize,
    frame: usize,
    src: DeviceBuffer,
    /// Real elements actually read for forward transforms (padding reads
    /// nothing); 0 means complex source (inverse path).
    src_real_elems: u64,
    dst: DeviceBuffer,
    inverse: bool,
    footprint: u64,
}

impl FftTransformKernel {
    fn elems_per_frame(&self) -> usize {
        self.frame * self.frame
    }
}

impl KernelSpec for FftTransformKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn launch(&self) -> LaunchConfig {
        let total = self.batch * self.elems_per_frame();
        LaunchConfig {
            grid_blocks: (total.div_ceil(256)).max(1) as u64,
            threads_per_block: 256,
            regs_per_thread: 40,
            smem_per_block: 256 * 8 * 2,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let complex_bytes = (self.batch * self.elems_per_frame() * 8) as f64;
        let (reads, writes) = if self.inverse {
            (complex_bytes, complex_bytes / 2.0) // crop to real
        } else {
            (self.src_real_elems as f64 * 4.0, complex_bytes)
        };
        WorkSummary::new(reads, writes, self.footprint).with_ilp(4.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let total = (self.batch * self.elems_per_frame()) as u64;
        let base = block * 256;
        let stages = (self.elems_per_frame().max(2)).ilog2() as u64;
        let mut addrs = Vec::with_capacity(32);
        for w in 0..8u64 {
            addrs.clear();
            for lane in 0..32u64 {
                let idx = base + w * 32 + lane;
                if idx >= total {
                    break;
                }
                if self.inverse {
                    addrs.push(self.src.addr(idx, 8));
                } else if idx < self.src_real_elems {
                    addrs.push(self.src.f32(idx % (self.src.bytes / 4)));
                }
            }
            t.global_load(&addrs, if self.inverse { 8 } else { 4 });
            addrs.clear();
            for lane in 0..32u64 {
                let idx = base + w * 32 + lane;
                if idx >= total {
                    break;
                }
                addrs.push(self.dst.addr(idx % (self.dst.bytes / 8), 8));
            }
            t.global_store(&addrs, if self.inverse { 4 } else { 8 });
        }
        // Butterfly stages in shared memory: one exchange pass per stage
        // per warp, plus ~10 FLOPs per point per stage.
        let clean: Vec<u64> = (0..32u64).map(|l| l * 8).collect();
        t.shared_repeat(&clean, 8, stages * 8 * 2);
        t.flops(10 * 256 * stages);
        t.aux(8 * stages);
    }
}

/// Per-frequency complex products accumulated over `Ci`: `frame^2`
/// independent CGEMMs of `[N x Ci] x [Ci x Co]` (tiled 32x32).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FftPointwiseKernel {
    shape: ConvShape,
    frame: usize,
    tiles: usize,
    in_freq: DeviceBuffer,
    filt_freq: DeviceBuffer,
    out_freq: DeviceBuffer,
    footprint: u64,
}

impl KernelSpec for FftPointwiseKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("fft-pointwise cgemm x{}", self.frame * self.frame)
    }

    fn launch(&self) -> LaunchConfig {
        let s = &self.shape;
        let bins = self.frame * self.frame;
        let blocks_per_bin = (s.n * self.tiles).div_ceil(32).max(1) * s.co.div_ceil(32).max(1);
        LaunchConfig {
            grid_blocks: (bins * blocks_per_bin) as u64,
            threads_per_block: 256,
            regs_per_thread: 48,
            smem_per_block: 2 * 32 * 8 * 8,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let s = &self.shape;
        let bins = (self.frame * self.frame) as f64;
        let nt = (s.n * self.tiles) as f64;
        let reads = bins * 8.0 * (nt * s.ci as f64 + (s.ci * s.co) as f64);
        let writes = bins * 8.0 * nt * s.co as f64;
        WorkSummary::new(reads, writes, self.footprint).with_ilp(8.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let s = &self.shape;
        let nt = s.n * self.tiles;
        let n_tiles = nt.div_ceil(32).max(1);
        let co_tiles = s.co.div_ceil(32).max(1);
        let per_bin = (n_tiles * co_tiles) as u64;
        let bin = block / per_bin;
        let within = block % per_bin;
        let n0 = (within as usize / co_tiles) * 32;
        let co0 = (within as usize % co_tiles) * 32;
        let n_here = 32.min(nt - n0);
        let co_here = 32.min(s.co - co0);

        // Frequency data is stored bin-major ([bin][frame]), the
        // interleaved layout cuDNN's FFT path uses precisely so these
        // per-bin GEMM reads coalesce.
        let in_frames = (s.n * self.tiles * s.ci) as u64;
        let filt_frames = (s.co * s.ci) as u64;
        let out_frames = (s.n * self.tiles * s.co) as u64;
        let mut addrs = Vec::with_capacity(32);
        for ci in 0..s.ci {
            // Load A column: in_freq[bin][ci][n] — consecutive n.
            addrs.clear();
            for i in 0..n_here.min(32) {
                let frame_idx = (ci * s.n * self.tiles + n0 + i) as u64;
                addrs.push(self.in_freq.addr(bin * in_frames + frame_idx, 8));
            }
            t.global_load(&addrs, 8);
            // Load B row: filt_freq[bin][ci][co] — consecutive co.
            addrs.clear();
            for j in 0..co_here.min(32) {
                let frame_idx = (ci * s.co + co0 + j) as u64;
                addrs.push(self.filt_freq.addr(bin * filt_frames + frame_idx, 8));
            }
            t.global_load(&addrs, 8);
            // Complex FMA tile: 8 real FLOPs per complex MAC.
            t.flops((8 * n_here * co_here) as u64);
        }
        let clean: Vec<u64> = (0..32u64).map(|l| l * 8).collect();
        t.shared_repeat(&clean, 8, s.ci as u64 * 4);
        t.aux(s.ci as u64 * 2);
        // Store C tile, bin-major.
        for i in 0..n_here {
            addrs.clear();
            for j in 0..co_here.min(32) {
                let frame_idx = ((n0 + i) * s.co + co0 + j) as u64;
                addrs.push(self.out_freq.addr(bin * out_frames + frame_idx, 8));
            }
            t.global_store(&addrs, 8);
        }
    }
}

/// Functional FFT convolution (whole frames): per `(n, co)`, accumulate the
/// per-channel frequency products and invert once. Matches the direct
/// reference to numerical tolerance.
pub fn fft_conv_forward(
    input: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    if shape.stride != 1 {
        return Err(ConvError::Unsupported("FFT convolution requires stride 1".into()));
    }
    if shape.pad != 0 {
        return Err(ConvError::Unsupported(
            "functional FFT path implemented for pad 0 (pad the input first)".into(),
        ));
    }
    let input = input.to_layout(Layout::NCHW);
    let filter = filter.to_layout(Layout::NCHW);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let mut out = Tensor::zeros(shape.output_shape(), out_layout);
    let planes: Vec<((usize, usize), Vec<f32>)> = (0..shape.n * shape.co)
        .into_par_iter()
        .map(|idx| {
            let (n, co) = (idx / shape.co, idx % shape.co);
            let mut acc = vec![0f32; oh * ow];
            for ci in 0..shape.ci {
                let img: Vec<f32> = (0..shape.h * shape.w)
                    .map(|e| input.get(n, ci, e / shape.w, e % shape.w))
                    .collect();
                let ker: Vec<f32> = (0..shape.fh * shape.fw)
                    .map(|e| filter.get(co, ci, e / shape.fw, e % shape.fw))
                    .collect();
                let part = fft_correlate2d(&img, shape.h, shape.w, &ker, shape.fh, shape.fw);
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a += p;
                }
            }
            ((n, co), acc)
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

/// Functional tiled FFT convolution: per 32x32 tile (with filter halo),
/// correlate in the frequency domain and stitch. Semantically identical to
/// [`fft_conv_forward`]; exists to validate the tiling decomposition.
pub fn fft_conv_forward_tiled(
    input: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    if shape.stride != 1 || shape.pad != 0 {
        return Err(ConvError::Unsupported("tiled FFT path requires stride 1, pad 0".into()));
    }
    if shape.fh >= TILE || shape.fw >= TILE {
        return Err(ConvError::Unsupported("filter must be smaller than the tile".into()));
    }
    let input = input.to_layout(Layout::NCHW);
    let filter = filter.to_layout(Layout::NCHW);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let eff = TILE - shape.fh + 1;
    let mut out = Tensor::zeros(shape.output_shape(), out_layout);
    for n in 0..shape.n {
        for co in 0..shape.co {
            for ty in (0..oh).step_by(eff) {
                for tx in (0..ow).step_by(eff) {
                    let th = eff.min(oh - ty);
                    let tw = eff.min(ow - tx);
                    let ih = th + shape.fh - 1;
                    let iw = tw + shape.fw - 1;
                    let mut acc = vec![0f32; th * tw];
                    for ci in 0..shape.ci {
                        let img: Vec<f32> = (0..ih * iw)
                            .map(|e| input.get(n, ci, ty + e / iw, tx + e % iw))
                            .collect();
                        let ker: Vec<f32> = (0..shape.fh * shape.fw)
                            .map(|e| filter.get(co, ci, e / shape.fw, e % shape.fw))
                            .collect();
                        let part = fft_correlate2d(&img, ih, iw, &ker, shape.fh, shape.fw);
                        for (a, p) in acc.iter_mut().zip(&part) {
                            *a += p;
                        }
                    }
                    for dy in 0..th {
                        for dx in 0..tw {
                            out.set(n, co, ty + dy, tx + dx, acc[dy * tw + dx]);
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv_reference;

    #[test]
    fn functional_fft_matches_direct() {
        let s = ConvShape::table1(2, 3, 12, 5, 2, 1);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 10);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 11);
        let fft = fft_conv_forward(&input, &filter, &s, Layout::NCHW).unwrap();
        let direct = conv_reference(&input, &filter, &s, Layout::NCHW).unwrap();
        assert!(fft.approx_eq(&direct, 1e-2), "diff {}", fft.max_abs_diff(&direct).unwrap());
    }

    #[test]
    fn functional_tiled_matches_direct_across_tile_seams() {
        // 40x40 input: outputs span two tiles in each dimension.
        let s = ConvShape::table1(1, 2, 40, 3, 2, 1);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 12);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 13);
        let tiled = fft_conv_forward_tiled(&input, &filter, &s, Layout::NCHW).unwrap();
        let direct = conv_reference(&input, &filter, &s, Layout::NCHW).unwrap();
        assert!(tiled.approx_eq(&direct, 1e-2), "diff {}", tiled.max_abs_diff(&direct).unwrap());
    }

    #[test]
    fn strided_conv_is_rejected() {
        // CV5 and CV6 — the Fig 5 "execution failures".
        let cv5 = ConvShape::table1(64, 96, 224, 3, 3, 2);
        let cv6 = ConvShape::table1(64, 256, 55, 5, 96, 2);
        for s in [cv5, cv6] {
            for mode in [FftConvMode::Full, FftConvMode::Tiled] {
                assert!(matches!(FftConvNchw::new(s, mode), Err(ConvError::Unsupported(_))));
            }
        }
    }

    #[test]
    fn cv5_would_also_exceed_device_memory() {
        // Even without the stride gate, CV5's frames exceed 6 GB: check the
        // footprint arithmetic on the stride-1 variant of its shape.
        let s = ConvShape::table1(64, 96, 224, 3, 3, 1);
        let p = FftConvNchw::new(s, FftConvMode::Full).unwrap();
        assert!(p.frame() == 256);
        assert!(
            p.footprint_bytes() > 6 * 1024 * 1024 * 1024,
            "footprint {:.2} GB",
            p.footprint_bytes() as f64 / (1 << 30) as f64
        );
        let d = DeviceConfig::titan_black();
        assert!(matches!(
            p.simulate(&d, &SimOptions::default()),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn tiling_shrinks_the_footprint() {
        let s = ConvShape::table1(32, 256, 56, 3, 128, 1); // CV10
        let full = FftConvNchw::new(s, FftConvMode::Full).unwrap();
        let tiled = FftConvNchw::new(s, FftConvMode::Tiled).unwrap();
        assert!(tiled.footprint_bytes() < full.footprint_bytes());
        assert_eq!(full.tiles(), 1);
        assert!(tiled.tiles() > 1);
    }

    #[test]
    fn pipeline_simulates_on_supported_layers() {
        let s = ConvShape::table1(64, 384, 13, 3, 256, 1); // CV7
        let d = DeviceConfig::titan_black();
        let p = FftConvNchw::new(s, FftConvMode::Full).unwrap();
        let r = p.simulate(&d, &SimOptions::default()).unwrap();
        assert_eq!(r.kernels.len(), 4);
        assert!(r.time() > 0.0);
    }

    #[test]
    fn fft_beats_mm_on_large_filter_many_channel_layers() {
        // Fig 5: "The FFT-based approach can perform better than cuDNN-MM
        // when the filter kernel is large ... or there are many channels
        // such as CV7, CV10".
        use crate::conv::mm_nchw::MmConvNchw;
        let s = ConvShape::table1(64, 384, 13, 3, 256, 1); // CV7
        let d = DeviceConfig::titan_black();
        let fft = FftConvNchw::new(s, FftConvMode::Full).unwrap();
        let rf = fft.simulate(&d, &SimOptions::default()).unwrap();
        let rm = MmConvNchw::new(s).simulate(&d, &SimOptions::default()).unwrap();
        assert!(
            rf.time() < rm.time(),
            "fft {:.3} ms vs mm {:.3} ms",
            rf.time() * 1e3,
            rm.time() * 1e3
        );
    }

    #[test]
    fn fft_loses_on_small_channel_layers() {
        // Fig 5: "for small channel sizes, such as CV3, CV9, it performs
        // much worse than the MM method".
        use crate::conv::mm_nchw::MmConvNchw;
        let s = ConvShape::table1(128, 64, 24, 5, 3, 1); // CV3
        let d = DeviceConfig::titan_black();
        let fft = FftConvNchw::new(s, FftConvMode::Full).unwrap();
        let rf = fft.simulate(&d, &SimOptions::default()).unwrap();
        let rm = MmConvNchw::new(s).simulate(&d, &SimOptions::default()).unwrap();
        assert!(
            rf.time() > rm.time(),
            "fft {:.3} ms vs mm {:.3} ms",
            rf.time() * 1e3,
            rm.time() * 1e3
        );
    }
}
