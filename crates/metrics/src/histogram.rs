//! Log-bucketed, mergeable histograms for latency samples.
//!
//! # Bucketing scheme
//!
//! A bucket index is derived from the IEEE-754 bit pattern of the sample:
//! the 11 exponent bits select an octave and the top [`SUB_BITS`] mantissa
//! bits split that octave into [`SUB_BUCKETS`] linear sub-buckets, so
//!
//! ```text
//! index(v) = exponent(v) * SUB_BUCKETS + top_mantissa_bits(v)
//! ```
//!
//! Every bucket spans at most `1/SUB_BUCKETS` (6.25%) of its lower bound,
//! which is what makes bucket-resolution percentiles honest: a recorded
//! p99 always lands in the bucket of the exact sorted-vector p99 or an
//! adjacent one. Because the index is pure bit manipulation — no `log2`,
//! no libm — two machines bucket identically, bit for bit.
//!
//! Index 0 is reserved for non-positive (and NaN) samples; the serving
//! simulator uses a 0.0 latency as its "request was shed" sentinel, so
//! those sort below every real latency instead of poisoning the scale.
//!
//! # Storage
//!
//! Counts live in a dense array over the *occupied* index range (first
//! to last non-empty bucket, both inclusive), with bucket 0 held apart so
//! a shed sentinel cannot stretch that range down to index 0. Recording
//! is an index computation and an add; an [`unrecord`](Histogram::unrecord)
//! that empties an end bucket trims the range, so a percentile scan spans
//! only the live spread of samples. The range is the whole
//! representation: two histograms with the same buckets have the same
//! array, so equality is plain field equality.
//!
//! # Merging
//!
//! Merging is per-bucket addition: associative, commutative, and
//! independent of chunking. The scenario orchestrator leans on this to
//! fold per-process histograms into suite-wide ones without ever holding
//! raw samples.

use serde::Serialize;
use std::fmt;

/// Mantissa bits used for sub-bucketing (16 sub-buckets per octave).
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: u32 = 1 << SUB_BITS;
/// Largest bucket index (the top sub-bucket of the all-ones exponent);
/// [`bucket_index`] never returns more.
pub const MAX_INDEX: u32 = (0x7ff << SUB_BITS) | (SUB_BUCKETS - 1);

/// Bucket index of a sample. Deterministic bit manipulation only; index
/// 0 collects non-positive and NaN samples.
pub fn bucket_index(v: f64) -> u32 {
    if v.is_nan() || v <= 0.0 {
        return 0; // non-positive and NaN alike
    }
    let bits = v.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as u32;
    // Reserve index 0 even for subnormals (exponent 0, sub 0).
    (exponent * SUB_BUCKETS + sub).max(1)
}

/// Inclusive lower bound of a bucket (0.0 for the reserved bucket 0).
pub fn bucket_lower(index: u32) -> f64 {
    if index == 0 {
        return 0.0;
    }
    let exponent = (index / SUB_BUCKETS) as u64;
    let sub = (index % SUB_BUCKETS) as u64;
    f64::from_bits((exponent << 52) | (sub << (52 - SUB_BITS)))
}

/// Exclusive upper bound of a bucket (the next bucket's lower bound).
pub fn bucket_upper(index: u32) -> f64 {
    bucket_lower(index + 1)
}

/// Representative value reported for a bucket: the midpoint of its
/// bounds (0.0 for the reserved bucket).
pub fn bucket_value(index: u32) -> f64 {
    if index == 0 {
        return 0.0;
    }
    let upper = bucket_upper(index);
    let lower = bucket_lower(index);
    if upper.is_finite() {
        0.5 * (lower + upper)
    } else {
        lower
    }
}

/// A log-bucketed histogram. See the module docs for the bucketing
/// scheme, the storage, and merge semantics.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket 0: non-positive and NaN samples.
    zero: u64,
    /// Bucket index of `dense[0]` (0 while `dense` is empty).
    base: u32,
    /// Counts of buckets `base..base + dense.len()`: empty, or first and
    /// last entries non-zero.
    dense: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.record_bucket(bucket_index(v), 1);
    }

    /// Record `n` identical samples.
    pub fn record_n(&mut self, v: f64, n: u64) {
        self.record_bucket(bucket_index(v), n);
    }

    /// Remove one previously recorded sample (sliding windows decrement
    /// the bucket the expiring sample landed in). A no-op if the bucket
    /// is already empty, so unbalanced calls cannot underflow.
    pub fn unrecord(&mut self, v: f64) {
        let idx = bucket_index(v);
        if idx == 0 {
            if self.zero > 0 {
                self.zero -= 1;
                self.count -= 1;
            }
            return;
        }
        let Some(c) = idx.checked_sub(self.base).and_then(|i| self.dense.get_mut(i as usize))
        else {
            return;
        };
        if *c == 0 {
            return;
        }
        *c -= 1;
        self.count -= 1;
        if *c == 0 {
            self.trim();
        }
    }

    /// Drop empty buckets from both ends of the dense range.
    fn trim(&mut self) {
        while self.dense.last() == Some(&0) {
            self.dense.pop();
        }
        let lead = self.dense.iter().take_while(|&&c| c == 0).count();
        if lead > 0 {
            self.dense.drain(..lead);
            self.base += lead as u32;
        }
        if self.dense.is_empty() {
            self.base = 0;
        }
    }

    /// Widen the dense range to cover bucket `idx` (≥ 1) and return its
    /// slot.
    fn slot(&mut self, idx: u32) -> &mut u64 {
        if self.dense.is_empty() {
            self.base = idx;
            self.dense.push(0);
        } else if idx < self.base {
            let grow = (self.base - idx) as usize;
            self.dense.splice(..0, std::iter::repeat_n(0, grow));
            self.base = idx;
        } else if (idx - self.base) as usize >= self.dense.len() {
            self.dense.resize((idx - self.base) as usize + 1, 0);
        }
        &mut self.dense[(idx - self.base) as usize]
    }

    /// Add `n` samples directly into bucket `index` — the inverse of the
    /// `Serialize` impl's `[index, count]` pairs, for rebuilding a
    /// histogram from its JSON form.
    ///
    /// # Panics
    ///
    /// If `index` exceeds [`MAX_INDEX`] (no sample lands there; parsers
    /// reject such pairs before calling this).
    pub fn record_bucket(&mut self, index: u32, n: u64) {
        assert!(index <= MAX_INDEX, "bucket index {index} is past the last bucket");
        if n == 0 {
            return;
        }
        if index == 0 {
            self.zero += n;
        } else {
            *self.slot(index) += n;
        }
        self.count += n;
    }

    /// Fold another histogram into this one (per-bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        self.zero += other.zero;
        self.count += other.count;
        let Some(last) = other.dense.len().checked_sub(1) else { return };
        // Widen to the union of both ranges once, then add slice-wise.
        self.slot(other.base);
        self.slot(other.base + last as u32);
        let at = (other.base - self.base) as usize;
        for (mine, &theirs) in self.dense[at..].iter_mut().zip(&other.dense) {
            *mine += theirs;
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Occupied `(bucket index, count)` pairs, ascending by index.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let zero = (self.zero > 0).then_some((0, self.zero));
        let dense = self.dense.iter().enumerate().filter(|&(_, &c)| c > 0);
        zero.into_iter().chain(dense.map(|(i, &c)| (self.base + i as u32, c)))
    }

    /// Bucket index holding the nearest-rank `p`-th percentile (`p` in
    /// [0, 100]); `None` when empty. Matches [`crate::percentile`]'s
    /// nearest-rank rule: rank `ceil(p/100 * count)` clamped to [1, count].
    pub fn percentile_index(&self, p: f64) -> Option<u32> {
        self.percentile_indices([p])[0]
    }

    /// [`percentile_index`](Self::percentile_index) for several `ps` at
    /// once, in one pass over the buckets. `ps` must ascend.
    pub fn percentile_indices<const N: usize>(&self, ps: [f64; N]) -> [Option<u32>; N] {
        debug_assert!(ps.windows(2).all(|w| w[0] <= w[1]), "percentiles must ascend: {ps:?}");
        let mut out = [None; N];
        if self.count == 0 {
            return out;
        }
        let ranks = ps.map(|p| nearest_rank(p, self.count));
        let mut next = 0;
        let mut seen = self.zero;
        while next < N && seen >= ranks[next] {
            out[next] = Some(0);
            next += 1;
        }
        // `seen` counts the samples in bucket 0 and `dense[..i]`; every
        // rank is at most `count`, so the walk ends inside `dense`.
        let mut i = 0;
        while next < N {
            // Skip 8-bucket chunks that cannot reach the rank (one
            // vectorized sum each), then walk bucket by bucket.
            while let Some(chunk) = self.dense.get(i..i + 8) {
                let sum: u64 = chunk.iter().sum();
                if seen + sum >= ranks[next] {
                    break;
                }
                seen += sum;
                i += 8;
            }
            while seen < ranks[next] {
                seen += self.dense[i];
                i += 1;
            }
            let idx = self.base + (i - 1) as u32;
            while next < N && seen >= ranks[next] {
                out[next] = Some(idx);
                next += 1;
            }
        }
        out
    }

    /// Nearest-rank percentile at bucket resolution: the representative
    /// value ([`bucket_value`]) of the bucket holding the rank. 0.0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        self.percentile_index(p).map_or(0.0, bucket_value)
    }
}

/// The nearest-rank rule: the 1-based rank of the `p`-th percentile
/// (`p` in [0, 100]) of `count ≥ 1` samples, `ceil(p/100 * count)`
/// clamped to [1, count].
pub(crate) fn nearest_rank(p: f64, count: u64) -> u64 {
    // `ceil` by truncation and one compare, which is exactly `f64::ceil`
    // followed by the saturating cast for every input (NaN and negatives
    // cast to 0, huge values to `u64::MAX`) without a libm call.
    let x = (p / 100.0) * count as f64;
    let t = x as u64;
    let rank = if (t as f64) < x { t.saturating_add(1) } else { t };
    rank.clamp(1, count)
}

/// Renders as the sparse map the histogram describes:
/// `Histogram { counts: {index: count, ..}, count: N }`.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Counts<'a>(&'a Histogram);
        impl fmt::Debug for Counts<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.buckets()).finish()
            }
        }
        f.debug_struct("Histogram")
            .field("counts", &Counts(self))
            .field("count", &self.count)
            .finish()
    }
}

impl Serialize for Histogram {
    fn serialize_json(&self, out: &mut String) {
        // {"count":N,"buckets":[[index,count],...]} — pairs serialize as
        // JSON arrays, sparse and ascending, so equal histograms have
        // equal serializations.
        out.push_str("{\"count\":");
        self.count.serialize_json(out);
        out.push_str(",\"buckets\":[");
        for (i, (idx, n)) in self.buckets().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            idx.serialize_json(out);
            out.push(',');
            n.serialize_json(out);
            out.push(']');
        }
        out.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_positive_reals_with_tight_relative_width() {
        for v in [1e-7, 1e-4, 3.7e-3, 0.5, 1.0, 1.5, 8.0, 1e6] {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v && v < bucket_upper(idx), "bucket must contain {v}");
            let rel = (bucket_upper(idx) - bucket_lower(idx)) / bucket_lower(idx);
            assert!(rel <= 1.0 / SUB_BUCKETS as f64 + 1e-12, "bucket too wide at {v}: {rel}");
        }
        // Bucket boundaries are exact powers of two times (1 + k/16).
        assert_eq!(bucket_lower(bucket_index(1.0)), 1.0);
        assert_eq!(bucket_upper(bucket_index(1.0)), 1.0625);
        // Non-positive and NaN collapse into the reserved bucket.
        for v in [0.0, -1.0, f64::NAN] {
            assert_eq!(bucket_index(v), 0);
        }
        assert_eq!(bucket_value(0), 0.0);
    }

    #[test]
    fn merge_is_commutative_and_chunking_invariant() {
        let samples: Vec<f64> = (1..200).map(|i| (i as f64) * 3.3e-4).collect();
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let (left, right) = samples.split_at(71);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        left.iter().for_each(|&s| a.record(s));
        right.iter().for_each(|&s| b.record(s));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab, whole, "chunked merge must equal whole-vector recording");
        assert_eq!(ab.count(), samples.len() as u64);
    }

    #[test]
    fn percentiles_land_within_one_bucket_of_exact() {
        let mut sorted: Vec<f64> = (1..=500).map(|i| 1e-4 * (i as f64).powf(1.3)).collect();
        sorted.sort_by(f64::total_cmp);
        let mut h = Histogram::new();
        sorted.iter().for_each(|&s| h.record(s));
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let got = h.percentile_index(p).unwrap();
            assert!(
                got.abs_diff(bucket_index(exact)) <= 1,
                "p{p}: bucket {got} vs exact bucket {}",
                bucket_index(exact)
            );
            // The representative value is within one bucket width too.
            let v = h.percentile(p);
            assert!(bucket_lower(bucket_index(exact) - 1) <= v);
            assert!(v <= bucket_upper(bucket_index(exact) + 1));
        }
    }

    #[test]
    fn unrecord_reverses_record_for_sliding_windows() {
        let mut h = Histogram::new();
        h.record(0.002);
        h.record(0.004);
        h.record(0.002);
        h.unrecord(0.002);
        assert_eq!(h.count(), 2);
        let mut expect = Histogram::new();
        expect.record(0.002);
        expect.record(0.004);
        assert_eq!(h, expect, "unrecord must cancel one record exactly");
        h.unrecord(0.002);
        h.unrecord(0.004);
        assert!(h.is_empty());
        // Empty serialization is canonical (removed buckets leave no keys).
        let mut s = String::new();
        h.serialize_json(&mut s);
        assert_eq!(s, "{\"count\":0,\"buckets\":[]}");
    }

    #[test]
    fn nearest_rank_is_the_ceil_formula_without_libm() {
        let ceil_rank = |p: f64, n: u64| (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut ps: Vec<f64> = (0..=1000).map(|i| f64::from(i) / 10.0).collect();
        ps.extend([f64::NAN, -0.0, -5.0, 1e-300, 99.999_999, 1e30, f64::INFINITY]);
        for n in (1..=300).chain([1 << 40, u64::MAX]) {
            for &p in &ps {
                assert_eq!(nearest_rank(p, n), ceil_rank(p, n), "p {p}, count {n}");
            }
        }
    }

    #[test]
    fn shed_sentinels_stay_in_the_reserved_bucket() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.003);
        assert_eq!(h.percentile_index(1.0), Some(0));
        assert_eq!(h.percentile(100.0), bucket_value(bucket_index(0.003)));
    }
}
