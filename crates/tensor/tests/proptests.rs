//! Property-based tests for layout/stride/relayout invariants.

use memcnn_tensor::{Dim, Layout, Shape, Tensor};
use proptest::prelude::*;

fn small_shape() -> impl Strategy<Value = Shape> {
    (1usize..6, 1usize..6, 1usize..8, 1usize..8).prop_map(|(n, c, h, w)| Shape::new(n, c, h, w))
}

fn any_layout() -> impl Strategy<Value = Layout> {
    (0usize..24).prop_map(|i| Layout::all()[i])
}

proptest! {
    /// offset() is a bijection from logical coordinates onto 0..len.
    #[test]
    fn offsets_are_a_bijection(shape in small_shape(), layout in any_layout()) {
        let mut seen = vec![false; shape.len()];
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let off = layout.offset(shape, n, c, h, w);
                        prop_assert!(off < shape.len());
                        prop_assert!(!seen[off]);
                        seen[off] = true;
                    }
                }
            }
        }
    }

    /// coords() inverts offset() everywhere.
    #[test]
    fn coords_inverts_offset(shape in small_shape(), layout in any_layout(), idx in 0usize..1000) {
        let off = idx % shape.len();
        let (n, c, h, w) = layout.coords(shape, off);
        prop_assert_eq!(layout.offset(shape, n, c, h, w), off);
    }

    /// The innermost dimension always has unit stride, and the product of
    /// stride and extent of the outermost dimension equals the tensor size.
    #[test]
    fn stride_structure(shape in small_shape(), layout in any_layout()) {
        let strides = layout.strides(shape);
        prop_assert_eq!(strides[layout.innermost().index()], 1);
        let outer = layout.outermost();
        prop_assert_eq!(strides[outer.index()] * shape.extent(outer), shape.len());
    }

    /// Relayout preserves every logical value, for arbitrary layout pairs.
    #[test]
    fn relayout_preserves_values(
        shape in small_shape(),
        src in any_layout(),
        dst in any_layout(),
        seed in 0u64..1000,
    ) {
        let t = Tensor::random(shape, src, seed);
        let u = t.to_layout(dst);
        prop_assert!(t.approx_eq(&u, 0.0));
    }

    /// Relayout round-trips bit-exactly.
    #[test]
    fn relayout_roundtrips(
        shape in small_shape(),
        src in any_layout(),
        dst in any_layout(),
        seed in 0u64..1000,
    ) {
        let t = Tensor::random(shape, src, seed);
        let back = t.to_layout(dst).to_layout(src);
        prop_assert_eq!(t.as_slice(), back.as_slice());
    }

    /// Parallel relayout agrees with the sequential reference.
    #[test]
    fn parallel_relayout_matches(
        shape in small_shape(),
        src in any_layout(),
        dst in any_layout(),
        seed in 0u64..1000,
    ) {
        let t = Tensor::random(shape, src, seed);
        let a = memcnn_tensor::relayout::relayout(&t, dst);
        let b = memcnn_tensor::relayout::relayout_parallel(&t, dst);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// The flattened-2D-transpose fast path agrees with the reference for
    /// the CHWN <-> NCHW pair at arbitrary shapes.
    #[test]
    fn transpose_fast_path_matches(shape in small_shape(), seed in 0u64..1000) {
        let t = Tensor::random(shape, Layout::CHWN, seed);
        let a = memcnn_tensor::relayout::relayout(&t, Layout::NCHW);
        let b = memcnn_tensor::relayout::relayout_2d_transpose(&t, Layout::NCHW);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    /// `to_layout` (the blocked 2D transpose for flattenable pairs, the
    /// element-wise walk otherwise) equals the element-wise reference bit
    /// for bit, for every one of the 24 x 24 layout pairs.
    #[test]
    fn to_layout_matches_relayout_for_every_pair(shape in small_shape(), seed in 0u64..1000) {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for src in Layout::all() {
            let t = Tensor::random(shape, src, seed);
            for dst in Layout::all() {
                let want = memcnn_tensor::relayout::relayout(&t, dst);
                prop_assert_eq!(bits(&t.to_layout(dst)), bits(&want), "{} -> {}", src, dst);
            }
        }
    }

    /// Strides scale linearly: doubling the extent of the innermost
    /// dimension doubles the strides of all dimensions outside it.
    #[test]
    fn stride_scaling(shape in small_shape(), layout in any_layout()) {
        let inner = layout.innermost();
        let doubled = shape.with_extent(inner, shape.extent(inner) * 2);
        let s1 = layout.strides(shape);
        let s2 = layout.strides(doubled);
        for d in Dim::ALL {
            if d == inner {
                prop_assert_eq!(s1[d.index()], s2[d.index()]);
            } else {
                prop_assert_eq!(s1[d.index()] * 2, s2[d.index()]);
            }
        }
    }
}
