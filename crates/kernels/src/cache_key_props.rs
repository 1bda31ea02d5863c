//! Typed simulation-cache keys against the text keys they replaced.
//!
//! A spec's cache identity is the spec value itself (derived `Eq` and
//! `Hash`). The simulation cache used to key specs by their type name and
//! `Debug` rendering instead; since that rendering shows every field, the
//! two keys must agree: for every spec family, over random shapes, two
//! specs' typed keys are equal exactly when their type names and `Debug`
//! strings are, and equal keys hash equally.

use crate::backward::{conv_backward_chwn, conv_backward_nchw};
use crate::conv::direct_chwn::DirectConvChwn;
use crate::conv::fft_nchw::{FftConvMode, FftConvNchw, FftPointwiseKernel, FftTransformKernel};
use crate::conv::mm_nchw::MmConvNchw;
use crate::conv::winograd::{WinogradConvNchw, WinogradPointwiseKernel, WinogradTransformKernel};
use crate::gemm_model::{GemmConfig, GemmKernel};
use crate::im2col::Im2colKernel;
use crate::layers::{ElementwiseKernel, LrnKernel};
use crate::pool::chwn::PoolChwn;
use crate::pool::nchw::{PoolNchwCaffe, PoolNchwCudnn};
use crate::softmax::{
    cudnn_pipeline, five_kernel_pipeline, BlockPerImageKernel, SoftmaxFused, SoftmaxFusedSerial,
    StepKernel,
};
use crate::transform::{TransformImpl, TransformKernel};
use crate::{ConvShape, PoolShape, SoftmaxShape};
use memcnn_gpusim::simcache::KeyHasher;
use memcnn_gpusim::{CacheKey, KernelSpec};
use memcnn_tensor::{Layout, Shape};
use proptest::prelude::*;
use std::fmt::Debug;
use std::hash::Hasher;

/// The text key the cache used to build: type name, then `Debug`.
fn text_key(k: &dyn KernelSpec) -> String {
    fn render<T: Debug + 'static>(key: &dyn CacheKey) -> Option<String> {
        key.as_any().downcast_ref::<T>().map(|v| format!("{}::{v:?}", std::any::type_name::<T>()))
    }
    let renders: &[fn(&dyn CacheKey) -> Option<String>] = &[
        render::<DirectConvChwn>,
        render::<Im2colKernel>,
        render::<GemmKernel>,
        render::<FftTransformKernel>,
        render::<FftPointwiseKernel>,
        render::<WinogradTransformKernel>,
        render::<WinogradPointwiseKernel>,
        render::<PoolNchwCaffe>,
        render::<PoolNchwCudnn>,
        render::<PoolChwn>,
        render::<TransformKernel>,
        render::<SoftmaxFused>,
        render::<SoftmaxFusedSerial>,
        render::<StepKernel>,
        render::<BlockPerImageKernel>,
        render::<ElementwiseKernel>,
        render::<LrnKernel>,
    ];
    let key = k.cache_key().expect("every spec in this crate is cacheable");
    renders.iter().find_map(|r| r(key)).expect("a spec type this test does not list")
}

fn key_hash(k: &dyn KernelSpec) -> u64 {
    let mut h = KeyHasher::default();
    k.cache_key().expect("cacheable").key_hash(&mut h);
    h.finish()
}

/// Every pair drawn from `specs` (both orders, and each with itself):
/// typed equality iff text equality, and equal keys hash equally.
fn keys_track_text(specs: &[&dyn KernelSpec]) {
    for &x in specs {
        for &y in specs {
            let typed = x.cache_key().unwrap().key_eq(y.cache_key().unwrap());
            let (tx, ty) = (text_key(x), text_key(y));
            assert_eq!(typed, tx == ty, "{tx} vs {ty}");
            if typed {
                assert_eq!(key_hash(x), key_hash(y), "{tx}");
            }
        }
    }
}

/// Small ranges, so two draws often coincide and the "equal" side of the
/// property is exercised as well as the "different" side.
fn conv() -> impl Strategy<Value = ConvShape> {
    (1usize..3, 1usize..3, 5usize..7, 1usize..3, 0usize..2, 1usize..3, 0usize..2).prop_map(
        |(n, ci, h, co, f, stride, pad)| {
            let f = 2 * f + 1;
            ConvShape { n, ci, h, w: h, co: 2 * co, fh: f, fw: f, stride, pad }
        },
    )
}

fn pool() -> impl Strategy<Value = (PoolShape, usize, usize)> {
    (1usize..3, 4usize..6, 2usize..4, 1usize..3, 1usize..3, 1usize..3, 1usize..3)
        .prop_map(|(n, hw, win, c, s, ux, uy)| (PoolShape::table1(n, hw, win, c, s), ux, uy))
}

fn softmax() -> impl Strategy<Value = SoftmaxShape> {
    (1usize..3, 9usize..11).prop_map(|(b, c)| SoftmaxShape::new(b, c))
}

fn boxed(ks: &[Box<dyn KernelSpec + Send>]) -> impl Iterator<Item = &dyn KernelSpec> {
    ks.iter().map(|k| k.as_ref() as &dyn KernelSpec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_family_keys_track_text_keys(a in conv(), b in conv()) {
        prop_assume!(a.validate().is_ok() && b.validate().is_ok());
        let direct = [DirectConvChwn::new(a), DirectConvChwn::new(b)];
        let mm = [MmConvNchw::new(a), MmConvNchw::new(b)];
        let fft: Vec<FftConvNchw> = [a, b]
            .iter()
            .flat_map(|&s| [FftConvMode::Full, FftConvMode::Tiled].map(|m| FftConvNchw::new(s, m)))
            .filter_map(Result::ok)
            .collect();
        let fft_kernels: Vec<_> = fft.iter().map(FftConvNchw::kernels).collect();
        let wino: Vec<_> = [a, b]
            .iter()
            .filter_map(|&s| WinogradConvNchw::new(s).ok())
            .map(|w| w.kernels())
            .collect();
        let backward: Vec<_> =
            [a, b].iter().flat_map(|s| [conv_backward_chwn(s), conv_backward_nchw(s)]).collect();
        let mut specs: Vec<&dyn KernelSpec> = direct.iter().map(|k| k as _).collect();
        specs.extend(mm.iter().flat_map(MmConvNchw::kernels));
        specs.extend(fft_kernels.iter().flat_map(|ks| boxed(ks)));
        specs.extend(wino.iter().flat_map(|ks| boxed(ks)));
        specs.extend(backward.iter().flat_map(|ks| boxed(ks)));
        keys_track_text(&specs);
    }

    #[test]
    fn pool_family_keys_track_text_keys(a in pool(), b in pool()) {
        let mut owned: Vec<Box<dyn KernelSpec + Send>> = Vec::new();
        for (p, ux, uy) in [a, b] {
            owned.push(Box::new(PoolNchwCaffe::new(p)));
            owned.push(Box::new(PoolNchwCudnn::new(p)));
            owned.push(Box::new(PoolChwn::coarsened(p, ux, uy)));
        }
        keys_track_text(&boxed(&owned).collect::<Vec<_>>());
    }

    #[test]
    fn transform_family_keys_track_text_keys(
        dims in prop::collection::vec((1usize..3, 1usize..3, 2usize..4), 2),
        pairs in prop::collection::vec((0usize..2, 0usize..3), 2),
    ) {
        let layouts = [Layout::NCHW, Layout::CHWN];
        let imps = [TransformImpl::Naive, TransformImpl::Opt1, TransformImpl::Opt2];
        let owned: Vec<TransformKernel> = dims
            .iter()
            .zip(&pairs)
            .map(|(&(n, c, hw), &(from, imp))| {
                let shape = Shape::new(64 * n, c, hw, hw);
                TransformKernel::new(shape, layouts[from], layouts[1 - from], imps[imp])
            })
            .collect();
        keys_track_text(&owned.iter().map(|k| k as _).collect::<Vec<_>>());
    }

    #[test]
    fn softmax_family_keys_track_text_keys(a in softmax(), b in softmax()) {
        let pipelines: Vec<_> =
            [a, b].iter().flat_map(|&s| [five_kernel_pipeline(s), cudnn_pipeline(s)]).collect();
        let fused = [SoftmaxFused::new(a), SoftmaxFused::new(b)];
        let serial = [SoftmaxFusedSerial::new(a), SoftmaxFusedSerial::new(b)];
        let mut specs: Vec<&dyn KernelSpec> = pipelines.iter().flat_map(|ks| boxed(ks)).collect();
        specs.extend(fused.iter().map(|k| k as &dyn KernelSpec));
        specs.extend(serial.iter().map(|k| k as &dyn KernelSpec));
        keys_track_text(&specs);
    }

    #[test]
    fn layer_family_keys_track_text_keys(
        elems in prop::collection::vec((0usize..2, 1u64..3, 1u64..3), 2),
        gemms in prop::collection::vec((1usize..3, 1usize..3, 1usize..3), 2),
    ) {
        let names = ["relu", "tanh"];
        let mut owned: Vec<Box<dyn KernelSpec + Send>> = Vec::new();
        for &(name, n, f) in &elems {
            owned.push(Box::new(ElementwiseKernel::new(names[name], 1024 * n, f)));
            owned.push(Box::new(LrnKernel::new(1024 * n, 2 * f + 1)));
        }
        for &(m, k, n) in &gemms {
            owned.push(Box::new(GemmKernel::with_fresh_buffers(
                16 * m,
                16 * k,
                16 * n,
                GemmConfig::default(),
            )));
        }
        keys_track_text(&boxed(&owned).collect::<Vec<_>>());
    }
}
