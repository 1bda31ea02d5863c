//! Cache-transparency properties: for arbitrary kernel specs, the memoized
//! simulation path must return reports bit-identical to a cold run, and
//! the typed cache keys (the spec values themselves) must separate
//! distinct specs and never render them.
//!
//! `{:?}` comparison of *reports* is exact: Rust's `f64` Debug rendering
//! round-trips, so two reports render identically iff every field is
//! bit-identical.

use memcnn_gpusim::simcache::{self, SimKey};
use memcnn_gpusim::{
    simulate, BankMode, BlockTrace, CacheKey, DeviceConfig, KernelSpec, LaunchConfig, SimOptions,
    WorkSummary,
};
use memcnn_kernels::conv::direct_chwn::DirectConvChwn;
use memcnn_kernels::pool::chwn::PoolChwn;
use memcnn_kernels::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
use memcnn_kernels::transform::{TransformImpl, TransformKernel};
use memcnn_kernels::{ConvShape, PoolShape};
use memcnn_tensor::{Layout, Shape};
use proptest::prelude::*;

fn small_conv() -> impl Strategy<Value = ConvShape> {
    (1usize..4, 1usize..5, 5usize..10, 1usize..5, 1usize..4, 1usize..3, 0usize..3).prop_map(
        |(n, ci, h, co, f, s, pad)| {
            let f = f * 2 + 1;
            ConvShape { n, ci, h, w: h, co: co * 2, fh: f, fw: f, stride: s, pad }
        },
    )
}

/// Simulate `k` cold, then twice through the cache (a miss-and-fill followed
/// by a guaranteed hit), and require all three reports bit-identical.
fn assert_cache_transparent<K: KernelSpec>(k: &K) {
    let d = DeviceConfig::titan_black();
    let cold_opts = SimOptions { use_cache: false, ..SimOptions::default() };
    let warm_opts = SimOptions::default();
    let cold = simulate(&d, k, &cold_opts).unwrap();
    let warm = simulate(&d, k, &warm_opts).unwrap();
    let hit = simulate(&d, k, &warm_opts).unwrap();
    assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "cold vs cache-fill");
    assert_eq!(format!("{warm:?}"), format!("{hit:?}"), "cache-fill vs hit");
}

fn key(k: &dyn KernelSpec) -> &dyn CacheKey {
    k.cache_key().expect("the workspace's specs are cacheable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conv, pooling, and transform specs all report bit-identically
    /// through the cache for arbitrary shapes.
    #[test]
    fn cached_reports_equal_cold_reports(shape in small_conv(), hw in 4usize..12, win in 2usize..4) {
        prop_assume!(shape.validate().is_ok());
        prop_assume!(win <= hw);
        assert_cache_transparent(&DirectConvChwn::new(shape));
        let p = PoolShape::table1(shape.n, hw, win, shape.ci, 2);
        assert_cache_transparent(&PoolNchwCaffe::new(p));
        assert_cache_transparent(&PoolChwn::new(p));
        let t = Shape::new(shape.n * 32, shape.ci, hw, hw);
        assert_cache_transparent(&TransformKernel::new(t, Layout::NCHW, Layout::CHWN, TransformImpl::Opt1));
    }

    /// Distinct specs get distinct cache keys: different shapes never
    /// collide, and neither do structurally identical specs of different
    /// types (a key compares the spec's type before its fields).
    #[test]
    fn distinct_specs_never_share_a_key(a in small_conv(), b in small_conv()) {
        prop_assume!(a.validate().is_ok() && b.validate().is_ok());
        let (ka, kb) = (DirectConvChwn::new(a), DirectConvChwn::new(b));
        prop_assert_eq!(a == b, key(&ka).key_eq(key(&kb)), "key equality must track spec equality");
        // Same construction twice -> same key (addresses are
        // per-construction, bump-allocated from a fixed origin).
        prop_assert!(key(&ka).key_eq(key(&DirectConvChwn::new(a))));
        // Same shape, different kernel type -> different key.
        let p = PoolShape::table1(a.n, a.h, 2, a.ci, 2);
        let (caffe, cudnn) = (PoolNchwCaffe::new(p), PoolNchwCudnn::new(p));
        prop_assert!(!key(&caffe).key_eq(key(&cudnn)));
        // Keys carry the device: the same spec on another device misses.
        let opts = SimOptions::default();
        let tb = SimKey::new(&DeviceConfig::titan_black(), key(&ka), &opts);
        let tx = SimKey::new(&DeviceConfig::titan_x(), key(&ka), &opts);
        prop_assert!(tb != tx);
    }
}

/// A cacheable spec whose `Debug` panics: the cache must key it without
/// ever rendering it.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Unprintable {
    stride: u64,
}

impl std::fmt::Debug for Unprintable {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        panic!("the simulation cache rendered a spec")
    }
}

impl KernelSpec for Unprintable {
    fn name(&self) -> String {
        "unprintable".to_string()
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: 64,
            threads_per_block: 128,
            regs_per_thread: 16,
            smem_per_block: 0,
            bank_mode: BankMode::FourByte,
        }
    }

    fn work(&self) -> WorkSummary {
        WorkSummary::new(0.0, 0.0, 1 << 20)
    }

    fn trace_block(&self, block: u64, t: &mut BlockTrace) {
        let addrs: Vec<u64> = (0..32).map(|lane| (block * 32 + lane) * 4 * self.stride).collect();
        t.global_load(&addrs, 4);
    }

    fn cache_key(&self) -> Option<&dyn CacheKey> {
        Some(self)
    }
}

#[test]
fn a_spec_whose_debug_panics_misses_then_hits() {
    let d = DeviceConfig::titan_black();
    let opts = SimOptions::default();
    // A stride no other test uses, so the first simulation is a miss.
    let spec = Unprintable { stride: 0x5eed };
    let probe = SimKey::new(&d, &spec, &opts);
    assert!(simcache::lookup(&probe).is_none(), "nothing cached yet");
    let miss = simulate(&d, &spec, &opts).unwrap();
    assert!(simcache::lookup(&probe).is_some(), "the miss stored its report");
    let hit = simulate(&d, &spec, &opts).unwrap();
    assert_eq!(miss.time().to_bits(), hit.time().to_bits());
    assert_eq!(miss.dram_bytes.to_bits(), hit.dram_bytes.to_bits());
}
