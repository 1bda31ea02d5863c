//! Summary statistics and the decision rules the benchmark applies:
//! nearest-rank percentiles with the "at least ten samples beyond" tail
//! rule, Python-compatible quartiles, the regression bound with an
//! absolute floor, the paired gain rule, and a deterministic bisection.

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads here match the ones a reader recomputes.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range over the median: the run-to-run spread the
/// benchmark's bounds are judged against.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`p` in
/// `[0, 100]`): the value at rank `ceil(p * n / 100)`. 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

fn rank(n: usize, p: f64) -> usize {
    // `p * n / 100` rather than `p / 100 * n`, and a nudge below the
    // ceiling, so decimal percentiles such as 99.9 do not round up a whole
    // rank (0.999 is not exact in binary).
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentiles the benchmark reports, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest of p99.99 / p99.9 / p99 / p90 / p50 that still has at least
/// ten samples beyond it in a sample of `n` — a tail percentile resting on
/// fewer is one or two unlucky requests, not a distribution. `None` when
/// even the median lacks ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| samples_beyond(n, p) >= 10)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, speedups).
    Higher,
}

impl Better {
    /// Label used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `change` is than `parent`, in the metric's units
    /// (negative when it is better).
    fn worsening(self, parent: f64, change: f64) -> f64 {
        match self {
            Better::Lower => change - parent,
            Better::Higher => parent - change,
        }
    }
}

/// Whether `change` is worse than `parent` by more than the metric's
/// bound: the larger of `bound` (a share of the parent) and the absolute
/// `floor`. The floor keeps tiny timings, whose relative noise is large,
/// from reading as regressions.
pub fn regressed(parent: f64, change: f64, better: Better, bound: f64, floor: f64) -> bool {
    better.worsening(parent, change) > (bound * parent.abs()).max(floor)
}

/// Verdict of a paired comparison of two commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// beats the parent's by more than the parent's own spread.
    Gain,
    /// A gain by that rule, but the change failed more operations than
    /// the parent: it does not count.
    Withheld,
    /// The change's median is worse than the parent's beyond the bound.
    Regression,
    /// The parent's spread is wider than the bound: no claim either way.
    Unresolved,
    /// Within the bound, and no gain shown.
    NoChange,
}

/// Compare paired runs (`parent[i]` was run next to `change[i]`, in
/// alternating order; the caller checks there are enough pairs) under the
/// benchmark's rule: a gain needs at least 9/10 wins, ties counting for
/// neither, and a median gap larger than the parent's interquartile range.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    assert_eq!(parent.len(), change.len(), "runs come in pairs");
    let pairs = parent.len();
    let wins = parent.iter().zip(change).filter(|(&p, &c)| better.worsening(p, c) < 0.0).count();
    let (q1, pm, q3) = quartiles(parent);
    let cm = median(change);
    let gap = -better.worsening(pm, cm);
    if pairs > 0 && wins * 10 >= pairs * 9 && gap > q3 - q1 {
        Verdict::Gain
    } else if regressed(pm, cm, better, bound, floor) {
        Verdict::Regression
    } else if q3 - q1 > (bound * pm.abs()).max(floor) {
        Verdict::Unresolved
    } else {
        Verdict::NoChange
    }
}

/// Largest `x` in `[lo, hi]` with `ok(x)`, by `iters` halvings of the
/// bracket — for a predicate that holds below some threshold and fails
/// above it. Deterministic: the probed points depend only on the bracket
/// and the outcomes. `None` when even `lo` fails.
pub fn bisect_max(lo: f64, hi: f64, iters: usize, mut ok: impl FnMut(f64) -> bool) -> Option<f64> {
    if !ok(lo) {
        return None;
    }
    if ok(hi) {
        return Some(hi);
    }
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..iters {
        let mid = 0.5 * (good + bad);
        if ok(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `work / secs`, or 0 when no time elapsed.
pub fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 10,000 samples: p99.9 has exactly 10 beyond, p99.99 only 1.
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert_eq!(samples_beyond(10_000, 99.99), 1);
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // One short of that falls back to p99.
        assert_eq!(samples_beyond(9_999, 99.9), 9);
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn bound_uses_the_larger_of_relative_and_absolute() {
        // 10% of 1.0 s is 0.1 s: 1.09 passes, 1.11 regresses.
        assert!(!regressed(1.0, 1.09, Better::Lower, 0.10, 0.05));
        assert!(regressed(1.0, 1.11, Better::Lower, 0.10, 0.05));
        // 10% of 0.1 s is 0.01 s, below the 0.05 s floor: 0.14 passes.
        assert!(!regressed(0.1, 0.14, Better::Lower, 0.10, 0.05));
        assert!(regressed(0.1, 0.16, Better::Lower, 0.10, 0.05));
        // Higher-is-better metrics regress downwards only.
        assert!(regressed(100.0, 89.0, Better::Higher, 0.10, 0.0));
        assert!(!regressed(100.0, 500.0, Better::Higher, 0.10, 0.0));
        assert!(!regressed(100.0, 91.0, Better::Higher, 0.10, 0.0));
    }

    #[test]
    fn paired_rule_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread() {
        let parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1];
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
        assert_eq!(compare(&parent, &faster, Better::Lower, 0.1, 0.0), Verdict::Gain);
        // Eight wins of ten is not enough, whatever the gap.
        let mut mixed = faster.clone();
        mixed[0] = 11.0;
        mixed[1] = 11.0;
        assert_eq!(compare(&parent, &mixed, Better::Lower, 0.1, 0.0), Verdict::NoChange);
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(compare(&parent, &slower, Better::Lower, 0.1, 0.0), Verdict::Regression);
        let noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0];
        assert_eq!(compare(&noisy, &noisy, Better::Lower, 0.1, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn bisection_is_deterministic_and_brackets_the_threshold() {
        let mut probes_a = Vec::new();
        let a = bisect_max(0.0, 100.0, 20, |x| {
            probes_a.push(x);
            x <= 37.0
        });
        let mut probes_b = Vec::new();
        let b = bisect_max(0.0, 100.0, 20, |x| {
            probes_b.push(x);
            x <= 37.0
        });
        assert_eq!(probes_a, probes_b, "same bracket, same probes");
        let a = a.expect("lo passes");
        assert_eq!(a.to_bits(), b.expect("lo passes").to_bits());
        assert!(a <= 37.0 && 37.0 - a < 100.0 / (1 << 20) as f64);
        assert_eq!(bisect_max(1.0, 2.0, 5, |_| true), Some(2.0));
        assert_eq!(bisect_max(1.0, 2.0, 5, |_| false), None);
    }

    #[test]
    fn helpers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(rate(10.0, 2.0), 5.0);
        assert_eq!(rate(10.0, 0.0), 0.0);
    }
}
