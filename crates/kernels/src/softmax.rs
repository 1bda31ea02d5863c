//! Softmax (classifier) layer kernels — the §V.B case study.
//!
//! The layer is five element-wise/reduction steps over a `batch x
//! categories` matrix (§II.A). Four implementations, spanning the paper's
//! baseline-to-optimized progression and the Fig 13 ablation:
//!
//! 1. [`five_kernel_pipeline`] — cuda-convnet/Caffe: one kernel per step,
//!    one *thread per image* (the outer loop), serial inner loop.
//!    Intermediates round-trip through global memory; accesses along the
//!    batch lane are strided by `C`; 128 threads cannot hide latency.
//! 2. [`cudnn_pipeline`] — a stronger multi-kernel baseline (block per
//!    image, parallel inner reductions) that is usually `BL_Best` in
//!    Fig 13's sense.
//! 3. [`SoftmaxFusedSerial`] — all five steps fused into one kernel but
//!    inner loops still serial: isolates the benefit of fusion (the
//!    paper: fusion alone contributes 2.81x GM).
//! 4. [`SoftmaxFused`] — the paper's Fig 9 kernel: fused, input cached in
//!    shared memory (`in_tile`, requires `C < 11K`), inner loops
//!    parallelized with block-wide reductions ("inject threads"), one
//!    coalesced read and write of the matrix.

use crate::shapes::SoftmaxShape;
use memcnn_gpusim::{
    AddressSpace, BankMode, BlockTrace, CacheKey, DeviceBuffer, KernelSpec, LaunchConfig,
    WorkSummary,
};

/// The paper's shared-memory capacity bound on cached categories
/// (Fig 9: `__shared__ float in_tile[C]; // C < 11K`).
pub const FUSED_SMEM_CATEGORY_LIMIT: usize = 11 * 1024;

/// Functional softmax with the max-shift for numerical stability; input and
/// output are row-major `batch x categories`.
pub fn softmax_forward(input: &[f32], shape: SoftmaxShape) -> Vec<f32> {
    assert_eq!(input.len(), shape.len(), "input must be batch x categories");
    let c = shape.categories;
    let mut out = vec![0f32; input.len()];
    for (row_in, row_out) in input.chunks(c).zip(out.chunks_mut(c)) {
        let max = row_in.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for (o, &x) in row_out.iter_mut().zip(row_in) {
            *o = (x - max).exp();
            sum += *o;
        }
        for o in row_out.iter_mut() {
            *o /= sum;
        }
    }
    out
}

/// Gradient of softmax followed by cross-entropy with one-hot `labels`
/// (the standard classifier backward): `grad = softmax(x) - onehot`.
pub fn softmax_xent_backward(input: &[f32], labels: &[usize], shape: SoftmaxShape) -> Vec<f32> {
    assert_eq!(labels.len(), shape.batch, "one label per image");
    let mut grad = softmax_forward(input, shape);
    for (n, &lab) in labels.iter().enumerate() {
        assert!(lab < shape.categories, "label out of range");
        grad[n * shape.categories + lab] -= 1.0;
    }
    grad
}

/// Device buffers shared by the multi-kernel pipelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct SoftmaxBuffers {
    input: DeviceBuffer,
    mid1: DeviceBuffer,
    mid2: DeviceBuffer,
    maxv: DeviceBuffer,
    sumv: DeviceBuffer,
    output: DeviceBuffer,
    footprint: u64,
}

impl SoftmaxBuffers {
    fn new(shape: SoftmaxShape) -> SoftmaxBuffers {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.len() as u64);
        let mid1 = asp.alloc_f32(shape.len() as u64);
        let mid2 = asp.alloc_f32(shape.len() as u64);
        let maxv = asp.alloc_f32(shape.batch as u64);
        let sumv = asp.alloc_f32(shape.batch as u64);
        let output = asp.alloc_f32(shape.len() as u64);
        let footprint = asp.footprint();
        SoftmaxBuffers { input, mid1, mid2, maxv, sumv, output, footprint }
    }
}

/// Which of the five §II.A steps a baseline kernel performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Step {
    /// Step 1: per-image max.
    Max,
    /// Step 2: subtract the max.
    Sub,
    /// Step 3: exponentiate.
    Exp,
    /// Step 4: per-image sum.
    Sum,
    /// Step 5: normalize.
    Div,
}

/// One step of the cuda-convnet/Caffe softmax: thread per image, serial
/// inner loop over categories, lane addresses strided by `C`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct StepKernel {
    shape: SoftmaxShape,
    step: Step,
    buf: SoftmaxBuffers,
}

impl StepKernel {
    /// (reads-per-category, per-image reads, writes-per-category,
    /// per-image writes, flops-per-element).
    fn traffic(
        &self,
    ) -> (Vec<DeviceBuffer>, Vec<DeviceBuffer>, Vec<DeviceBuffer>, Vec<DeviceBuffer>, u64) {
        let b = &self.buf;
        match self.step {
            Step::Max => (vec![b.input], vec![], vec![], vec![b.maxv], 1),
            Step::Sub => (vec![b.input], vec![b.maxv], vec![b.mid1], vec![], 1),
            Step::Exp => (vec![b.mid1], vec![], vec![b.mid2], vec![], 10),
            Step::Sum => (vec![b.mid2], vec![], vec![], vec![b.sumv], 1),
            Step::Div => (vec![b.mid2], vec![b.sumv], vec![b.output], vec![], 4),
        }
    }
}

impl KernelSpec for StepKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("softmax-step-{:?} {}", self.step, self.shape)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.shape.batch.div_ceil(128) as u64,
            threads_per_block: 128,
            regs_per_thread: 20,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let (rc, ri, wc, wi, _) = self.traffic();
        let per_cat = self.shape.len() as f64 * 4.0;
        let per_img = self.shape.batch as f64 * 4.0;
        WorkSummary::new(
            rc.len() as f64 * per_cat + ri.len() as f64 * per_img,
            wc.len() as f64 * per_cat + wi.len() as f64 * per_img,
            self.buf.footprint,
        )
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let c = self.shape.categories;
        let (rc, ri, wc, wi, flops_per_elem) = self.traffic();
        let mut addrs = Vec::with_capacity(32);
        for w in 0..4u64 {
            let n0 = (block * 128 + w * 32) as usize;
            if n0 >= self.shape.batch {
                break;
            }
            let lanes = 32.min(self.shape.batch - n0);
            // Per-image values (max/sum) load/store once per thread,
            // coalesced along the batch.
            for b in &ri {
                addrs.clear();
                for lane in 0..lanes {
                    addrs.push(b.f32((n0 + lane) as u64));
                }
                t.global_load(&addrs, 4);
            }
            // The serial category loop: each iteration the warp touches 32
            // rows at the same column — stride C, un-coalesced.
            for cat in 0..c {
                for b in &rc {
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(b.f32(((n0 + lane) * c + cat) as u64));
                    }
                    t.global_load(&addrs, 4);
                }
                for b in &wc {
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(b.f32(((n0 + lane) * c + cat) as u64));
                    }
                    t.global_store(&addrs, 4);
                }
                t.flops(flops_per_elem * lanes as u64);
            }
            t.aux(c as u64);
            for b in &wi {
                addrs.clear();
                for lane in 0..lanes {
                    addrs.push(b.f32((n0 + lane) as u64));
                }
                t.global_store(&addrs, 4);
            }
        }
    }
}

/// The cuda-convnet/Caffe baseline: five dependent kernels.
pub fn five_kernel_pipeline(shape: SoftmaxShape) -> Vec<Box<dyn KernelSpec + Send>> {
    let buf = SoftmaxBuffers::new(shape);
    [Step::Max, Step::Sub, Step::Exp, Step::Sum, Step::Div]
        .into_iter()
        .map(|step| Box::new(StepKernel { shape, step, buf }) as Box<dyn KernelSpec + Send>)
        .collect()
}

/// A block-per-image kernel with parallel inner loop, used by the stronger
/// `cudnn_pipeline` baseline: performs `passes_read` coalesced reads and
/// `passes_write` coalesced writes of the matrix plus a block reduction.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct BlockPerImageKernel {
    shape: SoftmaxShape,
    name: &'static str,
    reads: Vec<DeviceBuffer>,
    writes: Vec<DeviceBuffer>,
    reduce: bool,
    flops_per_elem: u64,
    footprint: u64,
}

fn block_threads(categories: usize) -> u32 {
    (categories.next_multiple_of(32)).clamp(32, 1024) as u32
}

impl KernelSpec for BlockPerImageKernel {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("softmax-{} {}", self.name, self.shape)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.shape.batch as u64,
            threads_per_block: block_threads(self.shape.categories),
            regs_per_thread: 24,
            smem_per_block: if self.reduce { 1024 * 4 } else { 0 },
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = self.shape.len() as f64 * 4.0;
        WorkSummary::new(
            self.reads.len() as f64 * bytes,
            self.writes.len() as f64 * bytes,
            self.footprint,
        )
        .with_ilp(2.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let c = self.shape.categories;
        let threads = block_threads(c) as usize;
        let warps = threads / 32;
        let row = block as usize * c;
        let mut addrs = Vec::with_capacity(32);
        // Grid-stride over categories: coalesced along the row.
        for chunk in (0..c).step_by(threads) {
            for w in 0..warps {
                let c0 = chunk + w * 32;
                if c0 >= c {
                    break;
                }
                let lanes = 32.min(c - c0);
                for b in &self.reads {
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(b.f32((row + c0 + lane) as u64));
                    }
                    t.global_load(&addrs, 4);
                }
                for b in &self.writes {
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(b.f32((row + c0 + lane) as u64));
                    }
                    t.global_store(&addrs, 4);
                }
                t.flops(self.flops_per_elem * lanes as u64);
            }
        }
        if self.reduce {
            // Tree reduction in shared memory: log2(threads) rounds.
            let clean: Vec<u64> = (0..32u64).map(|l| l * 4).collect();
            let rounds = (threads.max(2)).ilog2() as u64;
            t.shared_repeat(&clean, 4, rounds * warps as u64 * 2);
            for _ in 0..rounds {
                t.sync();
            }
            t.flops(threads as u64);
        }
        t.aux((c / threads.max(1)) as u64 + 4);
    }
}

/// A stronger multi-kernel baseline in the cuDNN style: block per image,
/// parallel reductions, but still four dependent kernels streaming
/// intermediates through global memory.
pub fn cudnn_pipeline(shape: SoftmaxShape) -> Vec<Box<dyn KernelSpec + Send>> {
    let buf = SoftmaxBuffers::new(shape);
    vec![
        Box::new(BlockPerImageKernel {
            shape,
            name: "cudnn-max",
            reads: vec![buf.input],
            writes: vec![],
            reduce: true,
            flops_per_elem: 1,
            footprint: buf.footprint,
        }) as Box<dyn KernelSpec + Send>,
        Box::new(BlockPerImageKernel {
            shape,
            name: "cudnn-sub-exp",
            reads: vec![buf.input],
            writes: vec![buf.mid2],
            reduce: false,
            flops_per_elem: 11,
            footprint: buf.footprint,
        }),
        Box::new(BlockPerImageKernel {
            shape,
            name: "cudnn-sum",
            reads: vec![buf.mid2],
            writes: vec![],
            reduce: true,
            flops_per_elem: 1,
            footprint: buf.footprint,
        }),
        Box::new(BlockPerImageKernel {
            shape,
            name: "cudnn-div",
            reads: vec![buf.mid2],
            writes: vec![buf.output],
            reduce: false,
            flops_per_elem: 4,
            footprint: buf.footprint,
        }),
    ]
}

/// Fusion-only ablation: one kernel, one launch, but the §II.A inner loops
/// stay serial (thread per image). Intermediates live in registers where
/// they fit; the input is re-read from global memory on each of the three
/// category sweeps (max, exp+sum, normalize).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SoftmaxFusedSerial {
    shape: SoftmaxShape,
    input: DeviceBuffer,
    output: DeviceBuffer,
    footprint: u64,
}

impl SoftmaxFusedSerial {
    /// Build with fresh buffers.
    pub fn new(shape: SoftmaxShape) -> SoftmaxFusedSerial {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.len() as u64);
        let output = asp.alloc_f32(shape.len() as u64);
        SoftmaxFusedSerial { shape, input, output, footprint: asp.footprint() }
    }
}

impl KernelSpec for SoftmaxFusedSerial {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("softmax-fused-serial {}", self.shape)
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: self.shape.batch.div_ceil(128) as u64,
            threads_per_block: 128,
            regs_per_thread: 32,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = self.shape.len() as f64 * 4.0;
        WorkSummary::new(3.0 * bytes, bytes, self.footprint)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let c = self.shape.categories;
        let mut addrs = Vec::with_capacity(32);
        for w in 0..4u64 {
            let n0 = (block * 128 + w * 32) as usize;
            if n0 >= self.shape.batch {
                break;
            }
            let lanes = 32.min(self.shape.batch - n0);
            // Three serial sweeps reading the input (strided by C), the
            // last one writing the output.
            for sweep in 0..3 {
                for cat in 0..c {
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(self.input.f32(((n0 + lane) * c + cat) as u64));
                    }
                    t.global_load(&addrs, 4);
                    if sweep == 2 {
                        addrs.clear();
                        for lane in 0..lanes {
                            addrs.push(self.output.f32(((n0 + lane) * c + cat) as u64));
                        }
                        t.global_store(&addrs, 4);
                    }
                    t.flops(if sweep == 1 { 11 } else { 2 } * lanes as u64);
                }
            }
            t.aux(3 * c as u64);
        }
    }
}

/// The paper's optimized kernel (Fig 9): all five steps fused, input cached
/// in shared memory when `C < 11K`, inner loops parallelized across the
/// block with shared-memory tree reductions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SoftmaxFused {
    shape: SoftmaxShape,
    input: DeviceBuffer,
    output: DeviceBuffer,
    footprint: u64,
}

impl SoftmaxFused {
    /// Build with fresh buffers.
    pub fn new(shape: SoftmaxShape) -> SoftmaxFused {
        let mut asp = AddressSpace::new();
        let input = asp.alloc_f32(shape.len() as u64);
        let output = asp.alloc_f32(shape.len() as u64);
        SoftmaxFused { shape, input, output, footprint: asp.footprint() }
    }

    /// Whether the input row fits the shared-memory cache (`in_tile`).
    pub fn caches_input(&self) -> bool {
        self.shape.categories < FUSED_SMEM_CATEGORY_LIMIT
    }
}

impl KernelSpec for SoftmaxFused {
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }

    fn name(&self) -> String {
        format!("softmax-fused {}", self.shape)
    }

    fn launch(&self) -> LaunchConfig {
        let threads = block_threads(self.shape.categories);
        let in_tile = if self.caches_input() { self.shape.categories * 4 } else { 0 };
        LaunchConfig {
            grid_blocks: self.shape.batch as u64,
            threads_per_block: threads,
            regs_per_thread: 28,
            smem_per_block: (in_tile + 1024 * 4) as u32,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        let bytes = self.shape.len() as f64 * 4.0;
        let reads = if self.caches_input() { bytes } else { 3.0 * bytes };
        WorkSummary::new(reads, bytes, self.footprint).with_ilp(2.0)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let c = self.shape.categories;
        let threads = block_threads(c) as usize;
        let warps = threads / 32;
        let row = block as usize * c;
        let clean: Vec<u64> = (0..32u64).map(|l| l * 4).collect();
        let mut addrs = Vec::with_capacity(32);
        // Vectorized global accesses (float4/float2) where the row length
        // allows — optimized streaming kernels always do this, and the
        // wider bursts are what push the achieved bandwidth to the paper's
        // ~94% of effective.
        let vec_w = if c.is_multiple_of(4) {
            4
        } else if c.is_multiple_of(2) {
            2
        } else {
            1
        };
        let span = 32 * vec_w; // floats covered per warp access
        let sweeps: &[usize] = if self.caches_input() { &[0] } else { &[0, 1, 2] };
        for &sweep in sweeps {
            for chunk in (0..c).step_by(threads * vec_w) {
                for w in 0..warps {
                    let c0 = chunk + w * span;
                    if c0 >= c {
                        break;
                    }
                    let lanes = (c - c0).div_ceil(vec_w).min(32);
                    addrs.clear();
                    for lane in 0..lanes {
                        addrs.push(self.input.f32((row + c0 + lane * vec_w) as u64));
                    }
                    t.global_load(&addrs, 4 * vec_w as u64);
                    if sweep == 0 && self.caches_input() {
                        t.shared(&clean[..lanes], 4 * vec_w as u64); // fill in_tile
                    }
                }
            }
        }
        // Steps 1-4 operate on the cached tile: per category element, a
        // handful of shared reads/writes plus two tree reductions.
        let elems_per_warp = c.div_ceil(warps.max(1)) as u64;
        t.shared_repeat(&clean, 4, elems_per_warp.div_ceil(32) * warps as u64 * 6);
        let rounds = (threads.max(2)).ilog2() as u64;
        t.shared_repeat(&clean, 4, 2 * rounds * warps as u64 * 2);
        for _ in 0..2 * rounds {
            t.sync();
        }
        t.flops(16 * c as u64 + 2 * threads as u64);
        t.aux((c / threads.max(1)) as u64 * 4 + 8);
        // Final normalized write, coalesced and vectorized.
        for chunk in (0..c).step_by(threads * vec_w) {
            for w in 0..warps {
                let c0 = chunk + w * span;
                if c0 >= c {
                    break;
                }
                let lanes = (c - c0).div_ceil(vec_w).min(32);
                addrs.clear();
                for lane in 0..lanes {
                    addrs.push(self.output.f32((row + c0 + lane * vec_w) as u64));
                }
                t.global_store(&addrs, 4 * vec_w as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_gpusim::{simulate, simulate_sequence, DeviceConfig, SimOptions};

    fn boxed_refs(v: &[Box<dyn KernelSpec + Send>]) -> Vec<&dyn KernelSpec> {
        v.iter().map(|k| k.as_ref() as _).collect()
    }

    #[test]
    fn functional_rows_sum_to_one() {
        let shape = SoftmaxShape::new(4, 7);
        let input: Vec<f32> = (0..28).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let out = softmax_forward(&input, shape);
        for row in out.chunks(7) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn functional_is_translation_invariant_and_stable() {
        let shape = SoftmaxShape::new(1, 5);
        let a = softmax_forward(&[1.0, 2.0, 3.0, 4.0, 5.0], shape);
        let b = softmax_forward(&[101.0, 102.0, 103.0, 104.0, 105.0], shape);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
        // Large magnitudes must not overflow to NaN (the max-shift at work).
        let big = softmax_forward(&[1000.0, 999.0], SoftmaxShape::new(1, 2));
        assert!(big.iter().all(|p| p.is_finite()));
        assert!((big[0] + big[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn xent_backward_is_softmax_minus_onehot() {
        let shape = SoftmaxShape::new(2, 3);
        let input = [0.5, 0.1, -0.3, 1.0, 1.0, 1.0];
        let probs = softmax_forward(&input, shape);
        let grad = softmax_xent_backward(&input, &[2, 0], shape);
        assert!((grad[2] - (probs[2] - 1.0)).abs() < 1e-6);
        assert!((grad[3] - (probs[3] - 1.0)).abs() < 1e-6);
        assert!((grad[0] - probs[0]).abs() < 1e-6);
        // Gradient rows sum to ~0.
        assert!(grad[..3].iter().sum::<f32>().abs() < 1e-5);
    }

    #[test]
    fn five_kernel_baseline_is_slow_and_latency_bound_for_large_c() {
        let d = DeviceConfig::titan_black();
        let shape = SoftmaxShape::new(128, 10000);
        let pipeline = five_kernel_pipeline(shape);
        let r = simulate_sequence(&d, &boxed_refs(&pipeline), &SimOptions::default()).unwrap();
        assert_eq!(r.kernels.len(), 5);
        assert!(r.dram_gbs() < 60.0, "baseline too fast: {} GB/s", r.dram_gbs());
    }

    #[test]
    fn fused_kernel_reaches_high_bandwidth_at_large_c() {
        // Fig 13: "the bandwidth achieved in Opt can reach 220.95GB/S,
        // which is 94.02% of the effective GPU memory bandwidth".
        let d = DeviceConfig::titan_black();
        let shape = SoftmaxShape::new(128, 10000);
        let r = simulate(&d, &SoftmaxFused::new(shape), &SimOptions::default()).unwrap();
        assert!(r.dram_gbs() > 150.0, "opt only {} GB/s", r.dram_gbs());
    }

    #[test]
    fn ablation_ordering_baseline_fused_serial_fused() {
        // 5-kernel > fused-serial > fused, at every large-ish config.
        let d = DeviceConfig::titan_black();
        for shape in [SoftmaxShape::new(128, 1000), SoftmaxShape::new(64, 10000)] {
            let base = five_kernel_pipeline(shape);
            let t_base =
                simulate_sequence(&d, &boxed_refs(&base), &SimOptions::default()).unwrap().time();
            let t_serial = simulate(&d, &SoftmaxFusedSerial::new(shape), &SimOptions::default())
                .unwrap()
                .time();
            let t_fused =
                simulate(&d, &SoftmaxFused::new(shape), &SimOptions::default()).unwrap().time();
            assert!(
                t_base > t_serial && t_serial > t_fused,
                "{shape}: base {t_base:.2e}, serial {t_serial:.2e}, fused {t_fused:.2e}"
            );
        }
    }

    #[test]
    fn fused_smem_cache_respects_the_11k_limit() {
        assert!(SoftmaxFused::new(SoftmaxShape::new(8, 10000)).caches_input());
        let big = SoftmaxFused::new(SoftmaxShape::new(8, 20000));
        assert!(!big.caches_input());
        // And the uncached fall-back still launches (smem within limits).
        let d = DeviceConfig::titan_black();
        assert!(simulate(&d, &big, &SimOptions::default()).is_ok());
    }

    #[test]
    fn small_configs_are_launch_bound_with_low_bandwidth() {
        // Fig 13's left edge: tiny classifiers cannot utilize bandwidth.
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &SoftmaxFused::new(SoftmaxShape::new(32, 10)), &SimOptions::default())
            .unwrap();
        assert!(r.dram_gbs() < 10.0);
    }

    #[test]
    fn cudnn_baseline_sits_between_naive_and_fused() {
        let d = DeviceConfig::titan_black();
        let shape = SoftmaxShape::new(128, 10000);
        let naive = five_kernel_pipeline(shape);
        let cudnn = cudnn_pipeline(shape);
        let t_naive =
            simulate_sequence(&d, &boxed_refs(&naive), &SimOptions::default()).unwrap().time();
        let t_cudnn =
            simulate_sequence(&d, &boxed_refs(&cudnn), &SimOptions::default()).unwrap().time();
        let t_fused =
            simulate(&d, &SoftmaxFused::new(shape), &SimOptions::default()).unwrap().time();
        assert!(t_naive > t_cudnn && t_cudnn > t_fused);
    }
}
