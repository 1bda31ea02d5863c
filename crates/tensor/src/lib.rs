//! 4D tensors with first-class data layouts.
//!
//! Deep CNN frameworks store activations and weights as 4-dimensional arrays
//! over the logical dimensions `N` (batch), `C` (channels / feature maps),
//! `H` (image height) and `W` (image width). The SC'16 paper this workspace
//! reproduces ("Optimizing Memory Efficiency for Deep Convolutional Neural
//! Networks on GPUs", Li et al.) shows that the *order* in which those four
//! dimensions are laid out in linear memory — the **data layout** — is a
//! first-order performance concern on GPUs, and that no single layout suits
//! every layer of a network.
//!
//! This crate provides the data model the rest of the workspace builds on:
//!
//! - [`Dim`]: the four logical dimensions.
//! - [`Shape`]: logical extents, layout-independent.
//! - [`Layout`]: one of the 24 dimension orders, with stride math. The two
//!   orders that matter in practice, [`Layout::NCHW`] (Caffe/cuDNN) and
//!   [`Layout::CHWN`] (cuda-convnet), get named constants, but all 24 are
//!   supported so layout studies can sweep the full space.
//! - [`Tensor`]: an owned `f32` tensor carrying its shape and layout, with
//!   layout-aware indexing and conversions.
//! - [`relayout`]: reference and rayon-parallel layout transformations (the
//!   *functional* counterpart of the paper's fast transformation kernels;
//!   the GPU-side access-pattern models live in `memcnn-kernels`).
//!
//! # Example
//!
//! ```
//! use memcnn_tensor::{Dim, Layout, Shape, Tensor};
//!
//! let shape = Shape::new(128, 16, 14, 14);
//! let t = Tensor::random(shape, Layout::NCHW, 42);
//!
//! // NCHW: width is unit-stride; CHWN: the batch is.
//! assert_eq!(t.stride_of(Dim::W), 1);
//! let u = t.to_layout(Layout::CHWN);
//! assert_eq!(u.stride_of(Dim::N), 1);
//!
//! // Layouts change memory order, never values.
//! assert!(t.approx_eq(&u, 0.0));
//! assert_eq!(t.get(3, 1, 4, 1), u.get(3, 1, 4, 1));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod dim;
mod error;
mod layout;
pub mod relayout;
mod shape;
mod tensor;

pub use dim::Dim;
pub use error::TensorError;
pub use layout::Layout;
pub use shape::Shape;
pub use tensor::Tensor;
