//! Owned 4D `f32` tensors carrying shape and layout.

use crate::{relayout, Dim, Layout, Shape, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::fmt;

/// An owned, dense, `f32` 4D tensor with an explicit [`Layout`].
///
/// All public coordinates are *logical* `(n, c, h, w)` tuples; the layout
/// determines where each element lives in the backing buffer. Converting
/// between layouts is an explicit, observable operation ([`Tensor::to_layout`]),
/// mirroring the paper's treatment of layout transformation as a real kernel
/// with a real cost rather than an implicit view change.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    layout: Layout,
    /// Precomputed per-dimension strides, indexed by [`Dim::index`].
    strides: [usize; 4],
    data: Vec<f32>,
}

impl Tensor {
    /// A tensor of zeros.
    pub fn zeros(shape: Shape, layout: Layout) -> Tensor {
        Tensor { shape, layout, strides: layout.strides(shape), data: vec![0.0; shape.len()] }
    }

    /// A tensor filled with one value.
    pub fn full(shape: Shape, layout: Layout, value: f32) -> Tensor {
        let mut t = Tensor::zeros(shape, layout);
        t.data.fill(value);
        t
    }

    /// A tensor whose elements are a function of their logical coordinates.
    pub fn from_fn(
        shape: Shape,
        layout: Layout,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Tensor {
        let mut t = Tensor::zeros(shape, layout);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let off = Layout::offset_with_strides(&t.strides, n, c, h, w);
                        t.data[off] = f(n, c, h, w);
                    }
                }
            }
        }
        t
    }

    /// A tensor of uniform random values in `[-1, 1)`, deterministic in the
    /// seed. Synthetic data stands in for MNIST/CIFAR/ImageNet images: every
    /// quantity the reproduced experiments measure depends only on shapes.
    pub fn random(shape: Shape, layout: Layout, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Tensor::zeros(shape, layout);
        for v in &mut t.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        t
    }

    /// Wrap an existing buffer. The buffer is interpreted in `layout` order.
    pub fn from_vec(shape: Shape, layout: Layout, data: Vec<f32>) -> Result<Tensor, TensorError> {
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Tensor { shape, layout, strides: layout.strides(shape), data })
    }

    /// Logical shape.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Memory layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Precomputed strides, indexed by [`Dim::index`].
    #[inline]
    pub fn strides(&self) -> [usize; 4] {
        self.strides
    }

    /// Stride of one logical dimension.
    #[inline]
    pub fn stride_of(&self, dim: Dim) -> usize {
        self.strides[dim.index()]
    }

    /// Flat view of the backing buffer (layout order).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the backing buffer (layout order).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Linear offset of logical coordinates in the backing buffer.
    #[inline]
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.shape.n && c < self.shape.c && h < self.shape.h && w < self.shape.w);
        Layout::offset_with_strides(&self.strides, n, c, h, w)
    }

    /// Read one element by logical coordinates.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.offset(n, c, h, w)]
    }

    /// Write one element by logical coordinates.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: f32) {
        let off = self.offset(n, c, h, w);
        self.data[off] = value;
    }

    /// Convert to another layout (copying). Returns a clone if the layout is
    /// already the requested one. Flattenable pairs (`NCHW <-> CHWN` and the
    /// other moves of one dimension between the outermost and innermost
    /// position) take the blocked 2D transpose; the rest walk the
    /// destination element by element.
    pub fn to_layout(&self, layout: Layout) -> Tensor {
        if layout == self.layout {
            self.clone()
        } else if self.layout.is_2d_transpose_of(&layout) && !self.shape.is_empty() {
            relayout::relayout_2d_transpose(self, layout)
        } else {
            relayout::relayout(self, layout)
        }
    }

    /// This tensor in `layout`: borrowed when it already is, converted by
    /// [`Tensor::to_layout`] otherwise.
    pub fn as_layout(&self, layout: Layout) -> Cow<'_, Tensor> {
        if layout == self.layout {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.to_layout(layout))
        }
    }

    /// Consume the tensor into `layout`, converting only when it differs.
    pub fn into_layout(self, layout: Layout) -> Tensor {
        if layout == self.layout {
            self
        } else {
            self.to_layout(layout)
        }
    }

    /// Maximum absolute element-wise difference to another tensor of the
    /// same shape (layouts may differ).
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch { expected: self.shape, actual: other.shape });
        }
        let mut max = 0f32;
        for n in 0..self.shape.n {
            for c in 0..self.shape.c {
                for h in 0..self.shape.h {
                    for w in 0..self.shape.w {
                        let d = (self.get(n, c, h, w) - other.get(n, c, h, w)).abs();
                        if d > max {
                            max = d;
                        }
                    }
                }
            }
        }
        Ok(max)
    }

    /// Whether all elements are within `tol` of another tensor's.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        matches!(self.max_abs_diff(other), Ok(d) if d <= tol)
    }

    /// Iterate elements in logical `(n, c, h, w)` order with coordinates.
    pub fn iter_logical(&self) -> impl Iterator<Item = ((usize, usize, usize, usize), f32)> + '_ {
        let shape = self.shape;
        (0..shape.n).flat_map(move |n| {
            (0..shape.c).flat_map(move |c| {
                (0..shape.h).flat_map(move |h| {
                    (0..shape.w).map(move |w| ((n, c, h, w), self.get(n, c, h, w)))
                })
            })
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({} in {}, {} elements)", self.shape, self.layout, self.shape.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord_tensor(layout: Layout) -> Tensor {
        Tensor::from_fn(Shape::new(2, 3, 4, 5), layout, |n, c, h, w| {
            (n * 1000 + c * 100 + h * 10 + w) as f32
        })
    }

    #[test]
    fn get_set_roundtrip_all_layouts() {
        for layout in Layout::all() {
            let mut t = Tensor::zeros(Shape::new(2, 3, 4, 5), layout);
            t.set(1, 2, 3, 4, 42.0);
            assert_eq!(t.get(1, 2, 3, 4), 42.0);
            assert_eq!(t.as_slice().iter().filter(|&&v| v == 42.0).count(), 1);
        }
    }

    #[test]
    fn from_fn_places_values_by_logical_coords() {
        for layout in [Layout::NCHW, Layout::CHWN, Layout::NHWC] {
            let t = coord_tensor(layout);
            assert_eq!(t.get(1, 2, 3, 4), 1234.0);
            assert_eq!(t.get(0, 0, 0, 0), 0.0);
        }
    }

    #[test]
    fn nchw_buffer_order_is_w_fastest() {
        let t = coord_tensor(Layout::NCHW);
        // First five elements walk W.
        assert_eq!(&t.as_slice()[..5], &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn chwn_buffer_order_is_n_fastest() {
        let t = coord_tensor(Layout::CHWN);
        // First two elements walk N.
        assert_eq!(&t.as_slice()[..2], &[0.0, 1000.0]);
    }

    #[test]
    fn to_layout_preserves_logical_values() {
        let t = coord_tensor(Layout::NCHW);
        for layout in Layout::all() {
            let u = t.to_layout(layout);
            assert_eq!(u.layout(), layout);
            assert!(t.approx_eq(&u, 0.0), "relayout to {layout} changed values");
        }
    }

    #[test]
    fn to_layout_of_an_empty_tensor() {
        let t = Tensor::zeros(Shape::new(0, 3, 4, 5), Layout::NCHW);
        let u = t.to_layout(Layout::CHWN);
        assert_eq!((u.layout(), u.as_slice().len()), (Layout::CHWN, 0));
    }

    #[test]
    fn as_layout_borrows_and_into_layout_moves_when_the_layout_matches() {
        let t = coord_tensor(Layout::CHWN);
        assert!(matches!(t.as_layout(Layout::CHWN), Cow::Borrowed(_)));
        let nchw = t.as_layout(Layout::NCHW);
        assert!(matches!(nchw, Cow::Owned(_)) && nchw.approx_eq(&t, 0.0));
        let ptr = t.as_slice().as_ptr();
        assert_eq!(t.into_layout(Layout::CHWN).as_slice().as_ptr(), ptr);
    }

    #[test]
    fn from_vec_validates_length() {
        let shape = Shape::new(1, 1, 2, 2);
        assert!(Tensor::from_vec(shape, Layout::NCHW, vec![0.0; 4]).is_ok());
        let err = Tensor::from_vec(shape, Layout::NCHW, vec![0.0; 5]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 4, actual: 5 });
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let shape = Shape::new(2, 2, 2, 2);
        let a = Tensor::random(shape, Layout::NCHW, 7);
        let b = Tensor::random(shape, Layout::NCHW, 7);
        let c = Tensor::random(shape, Layout::NCHW, 8);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn max_abs_diff_detects_shape_mismatch() {
        let a = Tensor::zeros(Shape::new(1, 1, 2, 2), Layout::NCHW);
        let b = Tensor::zeros(Shape::new(1, 1, 2, 3), Layout::NCHW);
        assert!(a.max_abs_diff(&b).is_err());
    }

    #[test]
    fn iter_logical_visits_every_element_once() {
        let t = coord_tensor(Layout::CHWN);
        let items: Vec<_> = t.iter_logical().collect();
        assert_eq!(items.len(), t.shape().len());
        assert_eq!(items[0], ((0, 0, 0, 0), 0.0));
        let ((n, c, h, w), v) = *items.last().unwrap();
        assert_eq!((n, c, h, w), (1, 2, 3, 4));
        assert_eq!(v, 1234.0);
    }
}
