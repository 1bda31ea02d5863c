//! Matrix multiplication: the packed, register-tiled CPU GEMM behind every
//! functional GEMM-shaped layer (functional semantics) and a
//! shared-memory-tiled GPU GEMM kernel spec (performance model).
//!
//! GEMM is the substrate under the Caffe/cuDNN convolution path (§II.B:
//! "one is to use Matrix Multiplication to compute convolutions... the
//! strategy used in Caffe and cuDNN") and under fully-connected layers.
//!
//! On the host, [`gemm_packed`] is the one core: `A` is packed into
//! `MR`-row panels, a caller-supplied packer fills each `k x NR` panel of
//! `B`, and a `MR x NR` register tile accumulates one block of `C`. Dense
//! `B` ([`sgemm`]), the implicit-GEMM convolution (`conv::conv_forward`,
//! which gathers `B` straight from the input and stores `C` as NCHW planes)
//! and the fully-connected layer (`layers::fc_forward`, which reads `B`
//! transposed) differ only in their packer and where they store `C`. Every element of `C` is `((0 + a0*b0) + a1*b1) + ...` in
//! ascending `k`, with no fused multiply-add, computed by exactly one task:
//! the result is bit-identical to [`sgemm_naive`] at any thread count.

use crate::gemm_model::GemmKernel;
use rayon::prelude::*;

/// Rows of `A` per packed panel, and rows of the register tile.
const MR: usize = 4;
/// Columns of `B` per packed panel, and columns of the register tile.
pub const NR: usize = 16;
/// Columns of `C` per parallel task.
const NC: usize = 1024;

/// `C = A x B` for row-major `A (m x k)` and a `B (k x n)` that
/// `pack_b(j0, width, panel)` supplies one panel at a time: it writes
/// `B[kk][j0 + jj]` to `panel[kk * NR + jj]` for every `kk < k` and
/// `jj < width` (`width <= NR`; the rest of the panel is ignored). Each
/// finished row segment `C[i][j0..j0 + values.len()]` goes to
/// `store(i, j0, values)`, once, so the caller writes `C` in whatever
/// layout it needs.
///
/// Tasks run over contiguous `NC`-column chunks of `C`; inside a chunk,
/// each `k x NR` panel of `B` is packed once and swept by every `MR`-row
/// panel of `A` through an `MR x NR` register tile.
pub fn gemm_packed<P, S>(m: usize, k: usize, n: usize, a: &[f32], pack_b: P, mut store: S)
where
    P: Fn(usize, usize, &mut [f32]) + Sync,
    S: FnMut(usize, usize, &[f32]),
{
    assert_eq!(a.len(), m * k, "A must be m x k");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        let zeros = vec![0f32; n];
        (0..m).for_each(|i| store(i, 0, &zeros));
        return;
    }
    // a_packed[panel][kk][r] = A[panel * MR + r][kk]; rows past m are zero.
    let mut a_packed = vec![0f32; m.div_ceil(MR) * k * MR];
    for (panel, ap) in a_packed.chunks_exact_mut(k * MR).enumerate() {
        for r in 0..MR.min(m - panel * MR) {
            let row = &a[(panel * MR + r) * k..][..k];
            for (slot, &v) in ap.iter_mut().skip(r).step_by(MR).zip(row) {
                *slot = v;
            }
        }
    }
    let blocks: Vec<Vec<f32>> = (0..n.div_ceil(NC))
        .into_par_iter()
        .map(|chunk| {
            let (j0, w) = (chunk * NC, NC.min(n - chunk * NC));
            // Row-major m x w block of C.
            let mut block = vec![0f32; m * w];
            let mut panel = vec![0f32; k * NR];
            for jp in (0..w).step_by(NR) {
                let width = NR.min(w - jp);
                pack_b(j0 + jp, width, &mut panel);
                for (p, ap) in a_packed.chunks_exact(k * MR).enumerate() {
                    let tile = register_tile(ap, &panel);
                    for (r, row) in tile.iter().enumerate().take(m - p * MR) {
                        block[(p * MR + r) * w + jp..][..width].copy_from_slice(&row[..width]);
                    }
                }
            }
            block
        })
        .collect();
    // Each block is freed as soon as it is stored.
    for (chunk, block) in blocks.into_iter().enumerate() {
        let w = NC.min(n - chunk * NC);
        for (i, row) in block.chunks_exact(w).enumerate() {
            store(i, chunk * NC, row);
        }
    }
}

/// [`gemm_packed`] into a row-major `C (m x n)`.
pub(crate) fn gemm_row_major<P>(m: usize, k: usize, n: usize, a: &[f32], pack_b: P) -> Vec<f32>
where
    P: Fn(usize, usize, &mut [f32]) + Sync,
{
    let mut c = vec![0f32; m * n];
    gemm_packed(m, k, n, a, pack_b, |i, j0, row| {
        c[i * n + j0..][..row.len()].copy_from_slice(row);
    });
    c
}

/// One `MR x NR` block of `C` from a packed `A` panel (`k x MR`) and a
/// packed `B` panel (`k x NR`): every accumulator takes its products in
/// ascending `k`, as separate multiplies and adds.
#[inline(always)]
fn register_tile(ap: &[f32], bp: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0f32; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (acc_row, &ar) in acc.iter_mut().zip(a) {
            for (slot, &bc) in acc_row.iter_mut().zip(b) {
                *slot += ar * bc;
            }
        }
    }
    acc
}

/// `C = A x B` for row-major `A (m x k)`, `B (k x n)`; returns row-major
/// `C (m x n)`: [`gemm_packed`] with a packer that copies rows of `B`.
pub fn sgemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "A must be m x k");
    assert_eq!(b.len(), k * n, "B must be k x n");
    gemm_row_major(m, k, n, a, |j0, width, panel| {
        for (dst, src) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..width].copy_from_slice(&src[j0..j0 + width]);
        }
    })
}

/// Naive triple loop, the oracle `sgemm` is tested against.
pub fn sgemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

pub use crate::gemm_model::GemmConfig;

/// Build the GPU GEMM kernel spec for a `m x k x n` product with fresh
/// device buffers.
pub fn gemm_kernel(m: usize, k: usize, n: usize) -> GemmKernel {
    GemmKernel::with_fresh_buffers(m, k, n, GemmConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        (0..rows * cols).map(|i| f(i / cols, i % cols)).collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn check(m: usize, k: usize, n: usize) {
        let a = mat(m, k, |i, j| ((i * 31 + j * 7) % 13) as f32 * 0.37 - 2.1);
        let b = mat(k, n, |i, j| ((i * 17 + j * 3) % 11) as f32 * 0.29 - 1.3);
        let fast = sgemm(m, k, n, &a, &b);
        assert_eq!(fast.len(), m * n);
        assert_eq!(bits(&fast), bits(&sgemm_naive(m, k, n, &a, &b)), "m={m} k={k} n={n}");
    }

    #[test]
    fn identity_multiplication() {
        let a = mat(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = mat(3, 4, |i, j| (i * 4 + j) as f32);
        assert_eq!(sgemm(3, 3, 4, &a, &b), b);
    }

    #[test]
    fn matches_naive_on_odd_sizes() {
        for (m, k, n) in [(1, 1, 1), (5, 7, 3), (17, 33, 9), (64, 64, 64), (100, 3, 50)] {
            check(m, k, n);
        }
    }

    #[test]
    fn partial_row_panels() {
        // m not a multiple of MR: the last A panel is zero-padded.
        for m in [1, 2, 3, 5, 6, 7, 9] {
            check(m, 12, 40);
        }
    }

    #[test]
    fn partial_and_multiple_column_tasks() {
        // n below one NR panel, n across a panel edge, and n spanning
        // several NC-column tasks with a ragged last one.
        for n in [1, 7, 15, 17, NC - 1, NC + 1, 3 * NC + 5] {
            check(5, 9, n);
        }
    }

    #[test]
    fn single_step_and_long_k() {
        check(6, 1, 33);
        check(2, 600, 2);
    }

    #[test]
    fn empty_dimensions() {
        assert!(sgemm(0, 4, 5, &[], &[0.0; 20]).is_empty());
        assert!(sgemm(3, 4, 0, &[0.0; 12], &[]).is_empty());
        assert_eq!(sgemm(2, 0, 3, &[], &[]), vec![0.0; 6]);
        assert_eq!(sgemm(2, 0, 3, &[], &[]), sgemm_naive(2, 0, 3, &[], &[]));
    }

    #[test]
    #[should_panic(expected = "A must be m x k")]
    fn wrong_a_len_panics() {
        sgemm(2, 2, 2, &[1.0; 3], &[1.0; 4]);
    }
}
