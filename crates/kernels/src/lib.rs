//! # memcnn-kernels — CNN kernels as functional code + GPU access models
//!
//! Every layer kernel the SC'16 evaluation touches, in two coupled forms:
//!
//! 1. A **functional CPU implementation** (rayon-parallel, tested against
//!    naive references) that produces real values — so the reproduced
//!    system actually computes CNNs, not just cost estimates.
//! 2. A **[`memcnn_gpusim::KernelSpec`]** that replays the corresponding
//!    CUDA kernel's launch geometry and per-block warp access pattern, so
//!    the simulator can score the memory behaviour the paper analyses.
//!
//! Inventory:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | cuda-convnet direct convolution (CHWN) | [`conv::direct_chwn`] |
//! | Caffe/cuDNN im2col + GEMM convolution (NCHW) | [`conv::mm_nchw`], [`im2col`], [`matmul`] |
//! | cuDNN v4 FFT / FFT-tiling convolution | [`conv::fft_nchw`] |
//! | Pooling: CHWN, NCHW (Caffe/cuDNN), coarsened Opt | [`pool`] |
//! | Softmax: 5-kernel, cuDNN-style, fused-serial, fused Opt | [`softmax`] |
//! | Layout transformation: naive / Opt1 / Opt2 (Fig 7) | [`transform`] |
//! | FC, ReLU, LRN (whole-network support) | [`layers`] |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backward;
pub mod conv;
pub mod gemm_model;
pub mod im2col;
pub mod layers;
pub mod matmul;
pub mod pool;
pub mod shapes;
pub mod softmax;
pub mod transform;

pub use shapes::{ConvShape, PoolShape, SoftmaxShape};
