//! Golden pin of the simulator's numbers.
//!
//! Cold-simulates (`use_cache: false`) every Table 1 convolution, pooling
//! and classifier entry under every kernel-spec family, plus the layout
//! transforms of every convolution input, on the Titan Black and the
//! Titan X, and folds the bits of every `KernelReport` field into one
//! FNV-1a digest. The digest was recorded before the simulator's
//! recording fast paths (monotone coalescing, run-based warp accesses,
//! the move-to-front L2) went in: any change to a simulated number, in
//! any spec, on either device, moves it.
//!
//! A second digest covers the specs Table 1 does not list: the classifier
//! GEMMs, ReLU and LRN layers of the five evaluation networks at their
//! Table-1 batches (the largest single launches a plan simulates), and
//! the Winograd pipeline of every Table 1 convolution it supports. It was
//! recorded before the 32-bit sector streams, the division-free L2 set
//! index and the incremental GEMM tile walk went in.

use memcnn::core::LayerSpec;
use memcnn::gpusim::{simulate, DeviceConfig, KernelReport, KernelSpec, SimOptions};
use memcnn::kernels::conv::direct_chwn::DirectConvChwn;
use memcnn::kernels::conv::fft_nchw::{FftConvMode, FftConvNchw};
use memcnn::kernels::conv::mm_nchw::MmConvNchw;
use memcnn::kernels::conv::winograd::WinogradConvNchw;
use memcnn::kernels::layers::{ElementwiseKernel, LrnKernel};
use memcnn::kernels::matmul::gemm_kernel;
use memcnn::kernels::pool::chwn::PoolChwn;
use memcnn::kernels::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
use memcnn::kernels::softmax::{
    cudnn_pipeline, five_kernel_pipeline, SoftmaxFused, SoftmaxFusedSerial,
};
use memcnn::kernels::transform::{TransformImpl, TransformKernel, VECTORIZE_MIN_N};
use memcnn::models::all_networks;
use memcnn::models::table1::{CLASS_LAYERS, CONV_LAYERS, POOL_LAYERS};
use memcnn::tensor::Layout;

/// Digest of every report below, recorded on the simulator before its
/// recording fast paths. A change that moves it changed a simulated
/// number.
const GOLDEN: u64 = 0xe9c9_a224_f351_4d9c;

/// Digest of the network-layer and Winograd reports below, recorded on
/// the simulator before its 32-bit sector streams.
const GOLDEN_NETWORK_LAYERS: u64 = 0x4956_c79c_cef7_c77e;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn report(&mut self, r: &KernelReport) {
        self.bytes(r.name.as_bytes());
        let t = &r.timing;
        for v in [
            t.time,
            t.t_launch,
            t.t_compute,
            t.t_dram,
            t.t_l2,
            t.t_latency,
            t.t_smem,
            t.t_issue,
            t.dram_gbs,
            t.flops_rate,
            t.alu_utilization,
            t.alu_eff,
        ] {
            self.f64(v);
        }
        self.bytes(format!("{:?}", t.bound).as_bytes());
        let o = &r.occupancy;
        self.u64(u64::from(o.blocks_per_sm));
        self.u64(u64::from(o.warps_per_sm));
        self.u64(o.concurrent_blocks);
        self.u64(o.concurrent_warps);
        self.f64(o.fraction);
        self.bytes(format!("{:?}", o.limiter).as_bytes());
        for v in [r.dram_bytes, r.transaction_bytes, r.requested_bytes, r.l2_hit_rate, r.flops] {
            self.f64(v);
        }
        self.u64(r.sampled_blocks);
        self.u64(r.grid_blocks);
    }
}

/// One entry of the digest: a boxed spec, or the im2col + GEMM pipeline
/// (whose kernels borrow from it).
enum Entry {
    Spec(Box<dyn KernelSpec + Send>),
    Mm(Box<MmConvNchw>),
}

impl Entry {
    fn kernels(&self) -> Vec<&dyn KernelSpec> {
        match self {
            Entry::Spec(k) => vec![k.as_ref()],
            Entry::Mm(mm) => mm.kernels(),
        }
    }
}

/// Every spec the digest covers, in a fixed order.
fn specs() -> Vec<Entry> {
    fn boxed(ks: Vec<Box<dyn KernelSpec + Send>>) -> impl Iterator<Item = Entry> {
        ks.into_iter().map(Entry::Spec)
    }
    let mut out = Vec::new();
    for e in CONV_LAYERS {
        out.push(Entry::Spec(Box::new(DirectConvChwn::new(e.shape))));
        out.push(Entry::Mm(Box::new(MmConvNchw::new(e.shape))));
        for mode in [FftConvMode::Full, FftConvMode::Tiled] {
            if let Ok(fft) = FftConvNchw::new(e.shape, mode) {
                out.extend(boxed(fft.kernels()));
            }
        }
        let shape = e.shape.input_shape();
        for (from, to) in [(Layout::CHWN, Layout::NCHW), (Layout::NCHW, Layout::CHWN)] {
            for imp in [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2] {
                if imp != TransformImpl::Opt2 || e.shape.n >= VECTORIZE_MIN_N {
                    out.push(Entry::Spec(Box::new(TransformKernel::new(shape, from, to, imp))));
                }
            }
        }
    }
    for e in POOL_LAYERS {
        out.push(Entry::Spec(Box::new(PoolChwn::new(e.shape))));
        out.push(Entry::Spec(Box::new(PoolChwn::coarsened(e.shape, 2, 2))));
        out.push(Entry::Spec(Box::new(PoolNchwCaffe::new(e.shape))));
        out.push(Entry::Spec(Box::new(PoolNchwCudnn::new(e.shape))));
    }
    for e in CLASS_LAYERS {
        out.extend(boxed(five_kernel_pipeline(e.shape)));
        out.extend(boxed(cudnn_pipeline(e.shape)));
        out.push(Entry::Spec(Box::new(SoftmaxFusedSerial::new(e.shape))));
        out.push(Entry::Spec(Box::new(SoftmaxFused::new(e.shape))));
    }
    out
}

/// The FC GEMM, ReLU and LRN spec of every such layer of the five
/// networks (in network then layer order), then the Winograd pipeline of
/// every Table 1 convolution it supports.
fn network_layer_specs() -> Vec<Box<dyn KernelSpec + Send>> {
    let mut out: Vec<Box<dyn KernelSpec + Send>> = Vec::new();
    for net in all_networks() {
        for layer in net.layers() {
            let elems = layer.input.len() as u64;
            match layer.spec {
                LayerSpec::Fc { outputs } => {
                    let inputs = layer.input.c * layer.input.h * layer.input.w;
                    out.push(Box::new(gemm_kernel(outputs, inputs, layer.input.n)));
                }
                LayerSpec::ReLU => out.push(Box::new(ElementwiseKernel::new("relu", elems, 1))),
                LayerSpec::Lrn { size } => out.push(Box::new(LrnKernel::new(elems, size as u64))),
                _ => {}
            }
        }
    }
    for e in CONV_LAYERS {
        if let Ok(w) = WinogradConvNchw::new(e.shape) {
            out.extend(w.kernels());
        }
    }
    out
}

/// Cold-simulate `kernels` on both devices and fold every report.
fn digest(kernels: &[&dyn KernelSpec]) -> u64 {
    let opts = SimOptions { use_cache: false, ..SimOptions::default() };
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for device in [DeviceConfig::titan_black(), DeviceConfig::titan_x()] {
        h.bytes(device.name.as_bytes());
        for &k in kernels {
            let r = simulate(&device, k, &opts).unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            h.report(&r);
        }
    }
    h.0
}

#[test]
fn cold_simulation_of_every_table1_spec_matches_the_golden_digest() {
    let specs = specs();
    let kernels: Vec<&dyn KernelSpec> = specs.iter().flat_map(Entry::kernels).collect();
    assert_eq!(
        format!("{:016x}", digest(&kernels)),
        format!("{GOLDEN:016x}"),
        "a simulated number moved ({} kernels x 2 devices)",
        kernels.len()
    );
}

#[test]
fn cold_simulation_of_network_layers_and_winograd_matches_the_golden_digest() {
    let specs = network_layer_specs();
    let kernels: Vec<&dyn KernelSpec> = specs.iter().map(|k| k.as_ref() as _).collect();
    assert_eq!(
        format!("{:016x}", digest(&kernels)),
        format!("{GOLDEN_NETWORK_LAYERS:016x}"),
        "a simulated number moved ({} kernels x 2 devices)",
        kernels.len()
    );
}
