//! Winograd F(2x2, 3x3) convolution — the paper's §VII outlook.
//!
//! "We also observe that like the FFT approach, more techniques leveraging
//! arithmetic complexity may be proposed in the future for CNNs, e.g., the
//! recent proposal from Nervana Systems [16]." Reference [16] is Lavin &
//! Gray's fast algorithms paper; its F(2x2, 3x3) variant computes each 2x2
//! output tile with 16 multiplies instead of 36 (a 2.25x reduction) by
//! transforming 4x4 input tiles and the 3x3 filters into a common domain,
//! doing an element-wise product accumulated over channels (16 independent
//! `[N*tiles x Ci] x [Ci x Co]` GEMMs), and transforming back.
//!
//! Like the FFT path it inherits the `NCHW` layout and the stride-1
//! limitation — and unlike FFT its domain is real 4x4 tiles, so the
//! memory overhead is bounded (no large-frame padding).

use crate::conv::ConvError;
use crate::shapes::ConvShape;
use memcnn_gpusim::{
    simulate_sequence, AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, DeviceConfig,
    KernelSpec, LaunchConfig, SequenceReport, SimError, SimOptions, WorkSummary,
};
use memcnn_tensor::{Layout, Tensor};
use rayon::prelude::*;

/// Output tile edge (m in F(m x m, r x r)).
const M: usize = 2;
/// Filter edge (r).
const R: usize = 3;
/// Transformed tile edge (m + r - 1).
const T: usize = M + R - 1;

/// 1D input transform `B^T d` for F(2,3) applied along one axis of a 4-vec.
#[inline]
fn bt(d: [f32; 4]) -> [f32; 4] {
    [d[0] - d[2], d[1] + d[2], d[2] - d[1], d[1] - d[3]]
}

/// 1D filter transform `G g`: 3 taps -> 4 values.
#[inline]
fn g(w: [f32; 3]) -> [f32; 4] {
    [w[0], 0.5 * (w[0] + w[1] + w[2]), 0.5 * (w[0] - w[1] + w[2]), w[2]]
}

/// 1D output transform `A^T m`: 4 values -> 2 outputs.
#[inline]
fn at(m: [f32; 4]) -> [f32; 2] {
    [m[0] + m[1] + m[2], m[1] - m[2] - m[3]]
}

/// Transform a 4x4 input tile: `V = B^T d B`.
fn transform_input_tile(d: &[[f32; 4]; 4]) -> [[f32; 4]; 4] {
    let mut rows = [[0f32; 4]; 4];
    for (row, out) in d.iter().zip(rows.iter_mut()) {
        *out = bt(*row);
    }
    let mut v = [[0f32; 4]; 4];
    for c in 0..4 {
        let col = bt([rows[0][c], rows[1][c], rows[2][c], rows[3][c]]);
        for r in 0..4 {
            v[r][c] = col[r];
        }
    }
    v
}

/// Transform a 3x3 filter: `U = G g G^T`.
fn transform_filter(w: &[[f32; 3]; 3]) -> [[f32; 4]; 4] {
    let mut rows = [[0f32; 4]; 3];
    for (row, out) in w.iter().zip(rows.iter_mut()) {
        *out = g(*row);
    }
    let mut u = [[0f32; 4]; 4];
    for c in 0..4 {
        let col = g([rows[0][c], rows[1][c], rows[2][c]]);
        for r in 0..4 {
            u[r][c] = col[r];
        }
    }
    u
}

/// Inverse-transform an accumulated 4x4 tile: `Y = A^T M A` (2x2).
fn transform_output_tile(m: &[[f32; 4]; 4]) -> [[f32; 2]; 2] {
    let mut rows = [[0f32; 2]; 4];
    for (row, out) in m.iter().zip(rows.iter_mut()) {
        *out = at(*row);
    }
    let mut y = [[0f32; 2]; 2];
    for c in 0..2 {
        let col = at([rows[0][c], rows[1][c], rows[2][c], rows[3][c]]);
        for r in 0..2 {
            y[r][c] = col[r];
        }
    }
    y
}

/// Functional Winograd convolution (3x3, stride 1; padding by
/// materialization). Matches [`crate::conv::conv_reference`] to fp32
/// tolerance.
pub fn winograd_conv_forward(
    input: &Tensor,
    filter: &Tensor,
    shape: &ConvShape,
    out_layout: Layout,
) -> Result<Tensor, ConvError> {
    if shape.fh != R || shape.fw != R || shape.stride != 1 {
        return Err(ConvError::Unsupported(
            "Winograd F(2x2,3x3) requires 3x3 filters with stride 1".into(),
        ));
    }
    let input = input.to_layout(Layout::NCHW);
    let filter = filter.to_layout(Layout::NCHW);
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let (ph, pw) = (shape.h + 2 * shape.pad, shape.w + 2 * shape.pad);

    // Pre-transform all filters.
    let filters_u: Vec<[[f32; 4]; 4]> = (0..shape.co * shape.ci)
        .map(|idx| {
            let (co, ci) = (idx / shape.ci, idx % shape.ci);
            let mut w = [[0f32; 3]; 3];
            for (fy, row) in w.iter_mut().enumerate() {
                for (fx, v) in row.iter_mut().enumerate() {
                    *v = filter.get(co, ci, fy, fx);
                }
            }
            transform_filter(&w)
        })
        .collect();

    let padded_get = |n: usize, ci: usize, y: isize, x: isize| -> f32 {
        let (y, x) = (y - shape.pad as isize, x - shape.pad as isize);
        if y >= 0 && x >= 0 && (y as usize) < shape.h && (x as usize) < shape.w {
            input.get(n, ci, y as usize, x as usize)
        } else {
            0.0
        }
    };
    let _ = (ph, pw);

    let tiles_y = oh.div_ceil(M);
    let tiles_x = ow.div_ceil(M);
    let mut out = Tensor::zeros(shape.output_shape(), out_layout);
    let planes: Vec<((usize, usize), Vec<f32>)> = (0..shape.n * shape.co)
        .into_par_iter()
        .map(|idx| {
            let (n, co) = (idx / shape.co, idx % shape.co);
            let mut plane = vec![0f32; oh * ow];
            for ty in 0..tiles_y {
                for tx in 0..tiles_x {
                    let mut acc = [[0f32; 4]; 4];
                    for ci in 0..shape.ci {
                        let mut d = [[0f32; 4]; 4];
                        for (r, row) in d.iter_mut().enumerate() {
                            for (c, v) in row.iter_mut().enumerate() {
                                *v =
                                    padded_get(n, ci, (ty * M + r) as isize, (tx * M + c) as isize);
                            }
                        }
                        let v = transform_input_tile(&d);
                        let u = &filters_u[co * shape.ci + ci];
                        for r in 0..T {
                            for c in 0..T {
                                acc[r][c] += u[r][c] * v[r][c];
                            }
                        }
                    }
                    let y = transform_output_tile(&acc);
                    for (dy, row) in y.iter().enumerate() {
                        for (dx, &val) in row.iter().enumerate() {
                            let (oy, ox) = (ty * M + dy, tx * M + dx);
                            if oy < oh && ox < ow {
                                plane[oy * ow + ox] = val;
                            }
                        }
                    }
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

/// GPU pipeline spec of Winograd convolution: input transform, filter
/// transform, 16 batched GEMMs, output transform.
#[derive(Clone, Debug)]
pub struct WinogradConvNchw {
    shape: ConvShape,
    tiles: usize,
    input: DeviceBuffer,
    v_buf: DeviceBuffer,
    u_buf: DeviceBuffer,
    m_buf: DeviceBuffer,
    output: DeviceBuffer,
    footprint: u64,
}

impl WinogradConvNchw {
    /// Build the pipeline; 3x3 stride-1 only.
    pub fn new(shape: ConvShape) -> Result<WinogradConvNchw, ConvError> {
        shape.validate().map_err(ConvError::Unsupported)?;
        if shape.fh != R || shape.fw != R || shape.stride != 1 {
            return Err(ConvError::Unsupported(
                "Winograd F(2x2,3x3) requires 3x3 filters with stride 1".into(),
            ));
        }
        let tiles_1d = shape.out_h().div_ceil(M);
        let tiles = tiles_1d * tiles_1d;
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.input_shape().len() as u64);
        let v_buf = asp.alloc_f32((shape.n * shape.ci * tiles * T * T) as u64);
        let u_buf = asp.alloc_f32((shape.co * shape.ci * T * T) as u64);
        let m_buf = asp.alloc_f32((shape.n * shape.co * tiles * T * T) as u64);
        let output = asp.alloc_f32(shape.output_shape().len() as u64);
        let footprint = asp.footprint();
        Ok(WinogradConvNchw { shape, tiles, input, v_buf, u_buf, m_buf, output, footprint })
    }

    /// Tiles per image.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Multiply count relative to direct convolution (2.25x fewer for
    /// interior tiles).
    pub fn multiply_reduction(&self) -> f64 {
        (M * M * R * R) as f64 / (T * T) as f64
    }

    /// Device-memory footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    /// The pipeline's kernels in execution order.
    pub fn kernels(&self) -> Vec<Box<dyn KernelSpec + Send>> {
        let s = &self.shape;
        vec![
            Box::new(WinogradTransformKernel {
                name: "winograd-input-transform".into(),
                items: s.n * s.ci * self.tiles,
                read_bytes: 4.0 * s.input_shape().len() as f64 * 16.0 / 9.0, // tile overlap re-reads
                read: self.input,
                write: self.v_buf,
                flops_per_item: 32, // 4 row + 4 col transforms x 4 adds
                footprint: self.footprint,
            }),
            Box::new(WinogradTransformKernel {
                name: "winograd-filter-transform".into(),
                items: s.co * s.ci,
                read_bytes: 4.0 * s.filter_shape().len() as f64,
                read: self.input,
                write: self.u_buf,
                flops_per_item: 28,
                footprint: self.footprint,
            }),
            Box::new(WinogradPointwiseKernel {
                shape: *s,
                tiles: self.tiles,
                v_buf: self.v_buf,
                u_buf: self.u_buf,
                m_buf: self.m_buf,
                footprint: self.footprint,
            }),
            Box::new(WinogradTransformKernel {
                name: "winograd-output-transform".into(),
                items: s.n * s.co * self.tiles,
                read_bytes: 4.0 * (s.n * s.co * self.tiles * T * T) as f64,
                read: self.m_buf,
                write: self.output,
                flops_per_item: 24,
                footprint: self.footprint,
            }),
        ]
    }

    /// Simulate the pipeline.
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

/// Streaming tile-transform kernel: one item = one 4x4 tile (or filter).
#[derive(Clone, Debug)]
pub(crate) struct WinogradTransformKernel {
    name: String,
    items: usize,
    read_bytes: f64,
    read: DeviceBuffer,
    write: DeviceBuffer,
    flops_per_item: u64,
    footprint: u64,
}

impl WinogradTransformKernel {
    /// Every field, with `read_bytes` as its bit pattern: the value the
    /// cache compares and hashes (exhaustive, so a new field must join).
    #[allow(clippy::type_complexity)]
    fn key_fields(&self) -> (&str, usize, u64, DeviceBuffer, DeviceBuffer, u64, u64) {
        let WinogradTransformKernel {
            name,
            items,
            read_bytes,
            read,
            write,
            flops_per_item,
            footprint,
        } = self;
        (name, *items, read_bytes.to_bits(), *read, *write, *flops_per_item, *footprint)
    }
}

impl PartialEq for WinogradTransformKernel {
    fn eq(&self, other: &WinogradTransformKernel) -> bool {
        self.key_fields() == other.key_fields()
    }
}

impl Eq for WinogradTransformKernel {}

impl std::hash::Hash for WinogradTransformKernel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key_fields().hash(state);
    }
}

impl KernelSpec for WinogradTransformKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: (self.items.div_ceil(256)).max(1) as u64,
            threads_per_block: 256,
            regs_per_thread: 40,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let write_bytes = (self.items * T * T * 4) as f64;
        WorkSummary::new(self.read_bytes, write_bytes, self.footprint).with_ilp(4.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        // One thread per tile: reads a 4x4 neighbourhood (two coalesced-ish
        // row segments per row, approximated as 16/9 over-read already in
        // the work floor), writes 16 values scattered across the 16 point
        // planes (coalesced within a plane).
        let mut addrs = Vec::with_capacity(32);
        let base_item = block * 256;
        for w in 0..8u64 {
            let i0 = base_item + w * 32;
            if i0 >= self.items as u64 {
                break;
            }
            let lanes = 32.min(self.items as u64 - i0) as usize;
            // Reads: 4 row segments per item; lanes touch consecutive tiles
            // (stride 2 floats within a feature-map row).
            for seg in 0..4u64 {
                addrs.clear();
                for lane in 0..lanes as u64 {
                    let e = ((i0 + lane) * 8 + seg * 2) % (self.read.bytes / 4);
                    addrs.push(self.read.f32(e));
                }
                t.global_load(&addrs, 8);
            }
            // Writes: 16 planes, coalesced per plane.
            for plane in 0..(T * T) as u64 {
                addrs.clear();
                for lane in 0..lanes as u64 {
                    addrs.push(
                        self.write
                            .f32((plane * self.items as u64 + i0 + lane) % (self.write.bytes / 4)),
                    );
                }
                t.global_store(&addrs, 4);
            }
            t.flops(self.flops_per_item * lanes as u64);
            t.aux(8);
        }
    }
}

/// The 16 batched GEMMs `M_p[N*tiles x Co] = V_p[N*tiles x Ci] x U_p[Ci x Co]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct WinogradPointwiseKernel {
    shape: ConvShape,
    tiles: usize,
    v_buf: DeviceBuffer,
    u_buf: DeviceBuffer,
    m_buf: DeviceBuffer,
    footprint: u64,
}

impl KernelSpec for WinogradPointwiseKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("winograd-pointwise x{}", T * T)
    }

    fn launch(&self) -> LaunchConfig {
        let s = &self.shape;
        let rows = s.n * self.tiles;
        let blocks_per_point = rows.div_ceil(64).max(1) * s.co.div_ceil(64).max(1);
        LaunchConfig {
            grid_blocks: (T * T * blocks_per_point) as u64,
            threads_per_block: 256,
            regs_per_thread: 48,
            smem_per_block: 2 * 64 * 16 * 4,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let s = &self.shape;
        let rows = (s.n * self.tiles) as f64;
        let points = (T * T) as f64;
        let reads = points * 4.0 * (rows * s.ci as f64 + (s.ci * s.co) as f64);
        let writes = points * 4.0 * rows * s.co as f64;
        // Same sustained-fraction story as the conv GEMM.
        let cap = 0.30 * s.ci as f64 / (s.ci as f64 + 20.0);
        WorkSummary::new(reads, writes, self.footprint).with_ilp(8.0).with_alu_cap(cap)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let s = &self.shape;
        let rows = s.n * self.tiles;
        let row_tiles = rows.div_ceil(64).max(1);
        let co_tiles = s.co.div_ceil(64).max(1);
        let per_point = (row_tiles * co_tiles) as u64;
        let point = block / per_point;
        let within = block % per_point;
        let r0 = (within as usize / co_tiles) * 64;
        let c0 = (within as usize % co_tiles) * 64;
        let r_here = 64.min(rows - r0);
        let c_here = 64.min(s.co - c0);
        let mut addrs = Vec::with_capacity(32);
        let steps = s.ci.div_ceil(16);
        for step in 0..steps {
            let k0 = step * 16;
            let k_here = 16.min(s.ci - k0);
            // V tile: [point][ci][rows] layout — coalesced along rows.
            for kk in 0..k_here {
                addrs.clear();
                for lane in 0..32.min(r_here) {
                    let e = (point * (s.ci * rows) as u64) + ((k0 + kk) * rows + r0 + lane) as u64;
                    addrs.push(self.v_buf.f32(e % (self.v_buf.bytes / 4)));
                }
                t.global_load(&addrs, 4);
            }
            // U tile: [point][ci][co] — coalesced along co.
            for kk in 0..k_here {
                addrs.clear();
                for lane in 0..32.min(c_here) {
                    let e = (point * (s.ci * s.co) as u64) + ((k0 + kk) * s.co + c0 + lane) as u64;
                    addrs.push(self.u_buf.f32(e % (self.u_buf.bytes / 4)));
                }
                t.global_load(&addrs, 4);
            }
            let clean: Vec<u64> = (0..32u64).map(|l| l * 4).collect();
            t.shared_repeat(&clean, 4, (k_here * 8) as u64);
            t.flops(2 * (r_here * c_here * k_here) as u64);
            t.aux(8);
            t.sync();
        }
        // Store M tile.
        for r in 0..r_here.min(64) {
            addrs.clear();
            for lane in 0..32.min(c_here) {
                let e = (point * (rows * s.co) as u64) + ((r0 + r) * s.co + c0 + lane) as u64;
                addrs.push(self.m_buf.f32(e % (self.m_buf.bytes / 4)));
            }
            t.global_store(&addrs, 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv_reference;
    use crate::conv::mm_nchw::MmConvNchw;
    use memcnn_gpusim::DeviceBuffer;

    #[test]
    fn transform_cache_key_sees_every_field() {
        let buf = |base| DeviceBuffer { base, bytes: 64 };
        let base = WinogradTransformKernel {
            name: "t".into(),
            items: 4,
            read_bytes: 1.5,
            read: buf(0),
            write: buf(64),
            flops_per_item: 32,
            footprint: 128,
        };
        let edits: [fn(&mut WinogradTransformKernel); 7] = [
            |k| k.name.push('x'),
            |k| k.items += 1,
            |k| k.read_bytes = -k.read_bytes,
            |k| k.read.base += 4,
            |k| k.write.bytes += 4,
            |k| k.flops_per_item += 1,
            |k| k.footprint += 1,
        ];
        assert!(base.key_eq(&base.clone()));
        for (i, edit) in edits.iter().enumerate() {
            let mut k = base.clone();
            edit(&mut k);
            assert!(!base.key_eq(&k), "edit {i} left the key unchanged");
        }
        // Floats compare by bit pattern, as their Debug renderings do.
        let zero = WinogradTransformKernel { read_bytes: 0.0, ..base.clone() };
        assert!(!zero.key_eq(&WinogradTransformKernel { read_bytes: -0.0, ..base }));
    }

    #[test]
    fn winograd_matches_reference_unpadded() {
        let s = ConvShape::table1(2, 4, 10, 3, 3, 1);
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 60);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 61);
        let got = winograd_conv_forward(&input, &filter, &s, Layout::NCHW).unwrap();
        let want = conv_reference(&input, &filter, &s, Layout::NCHW).unwrap();
        assert!(got.approx_eq(&want, 1e-3), "diff {}", got.max_abs_diff(&want).unwrap());
    }

    #[test]
    fn winograd_matches_reference_with_padding_and_odd_sizes() {
        // Odd output extent exercises the partial last tile.
        let s = ConvShape { pad: 1, ..ConvShape::table1(3, 5, 9, 3, 2, 1) };
        let input = Tensor::random(s.input_shape(), Layout::NCHW, 62);
        let filter = Tensor::random(s.filter_shape(), Layout::NCHW, 63);
        let got = winograd_conv_forward(&input, &filter, &s, Layout::NCHW).unwrap();
        let want = conv_reference(&input, &filter, &s, Layout::NCHW).unwrap();
        assert!(got.approx_eq(&want, 1e-3), "diff {}", got.max_abs_diff(&want).unwrap());
    }

    #[test]
    fn rejects_non_3x3_and_strided() {
        assert!(WinogradConvNchw::new(ConvShape::table1(8, 16, 12, 5, 8, 1)).is_err());
        assert!(WinogradConvNchw::new(ConvShape::table1(8, 16, 12, 3, 8, 2)).is_err());
        let input = Tensor::zeros(ConvShape::table1(1, 1, 8, 5, 1, 1).input_shape(), Layout::NCHW);
        let f5 = Tensor::zeros(ConvShape::table1(1, 1, 8, 5, 1, 1).filter_shape(), Layout::NCHW);
        assert!(winograd_conv_forward(
            &input,
            &f5,
            &ConvShape::table1(1, 1, 8, 5, 1, 1),
            Layout::NCHW
        )
        .is_err());
    }

    #[test]
    fn multiply_reduction_is_2_25() {
        let p = WinogradConvNchw::new(ConvShape::table1(32, 512, 14, 3, 512, 1)).unwrap();
        assert!((p.multiply_reduction() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn winograd_beats_mm_on_deep_3x3_layers() {
        // CV12 (VGG 14x14, C=512): the arithmetic-complexity advantage
        // should show, as Lavin & Gray report for VGG-style layers.
        let d = DeviceConfig::titan_black();
        let s = ConvShape::table1(32, 512, 14, 3, 512, 1); // CV12
        let w = WinogradConvNchw::new(s).unwrap();
        let rw = w.simulate(&d, &SimOptions::default()).unwrap();
        let rm = MmConvNchw::new(s).simulate(&d, &SimOptions::default()).unwrap();
        assert!(
            rw.time() < rm.time(),
            "winograd {:.3} ms vs mm {:.3} ms",
            rw.time() * 1e3,
            rm.time() * 1e3
        );
    }

    #[test]
    fn footprint_is_proportional_to_tensors() {
        // The transformed-domain buffers are a fixed multiple of the data
        // (T^2/M^2 = 4x for the M buffer) — no power-of-two frame blow-up
        // — so even the 224x224 CV9 fits the 6 GB device comfortably.
        let s = ConvShape::table1(32, 64, 224, 3, 3, 1); // CV9
        let w = WinogradConvNchw::new(s).unwrap();
        let raw = 4 * (s.input_shape().len() + s.output_shape().len() + s.filter_shape().len());
        assert!(
            w.footprint_bytes() < 8 * raw as u64,
            "footprint {:.2} GB vs raw {:.2} GB",
            w.footprint_bytes() as f64 / 1e9,
            raw as f64 / 1e9
        );
        let d = DeviceConfig::titan_black();
        assert!(w.simulate(&d, &SimOptions::default()).is_ok());
    }
}
