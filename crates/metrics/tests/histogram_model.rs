//! The dense [`Histogram`] against a sparse `BTreeMap` model of the same
//! semantics: after any sequence of `record`, `record_n`, `unrecord`
//! (present and absent buckets alike), `record_bucket` and `merge`, the
//! two agree on every bucket, the count, nearest-rank percentiles,
//! equality, and serialized bytes.

use memcnn_metrics::{bucket_index, Histogram};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;

/// The sparse reference: a map of occupied buckets and a total.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    counts: BTreeMap<u32, u64>,
    count: u64,
}

impl Model {
    fn record_bucket(&mut self, idx: u32, n: u64) {
        if n > 0 {
            *self.counts.entry(idx).or_insert(0) += n;
            self.count += n;
        }
    }

    fn unrecord(&mut self, v: f64) {
        let idx = bucket_index(v);
        if let Some(c) = self.counts.get_mut(&idx) {
            *c -= 1;
            self.count -= 1;
            if *c == 0 {
                self.counts.remove(&idx);
            }
        }
    }

    fn merge(&mut self, other: &Model) {
        for (&i, &n) in &other.counts {
            self.record_bucket(i, n);
        }
    }

    fn percentile_index(&self, p: f64) -> Option<u32> {
        if self.count == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        self.counts.iter().find_map(|(&i, &n)| {
            seen += n;
            (seen >= rank).then_some(i)
        })
    }

    fn json(&self) -> String {
        let pairs: Vec<String> = self.counts.iter().map(|(i, n)| format!("[{i},{n}]")).collect();
        format!("{{\"count\":{},\"buckets\":[{}]}}", self.count, pairs.join(","))
    }
}

/// One operation: `(kind, value class, mantissa, exponent, n)`.
type Op = (u8, u8, u32, i32, u64);

/// A sample drawn around `2^exp` (class 0: zero, 1: negative, 2: NaN,
/// otherwise positive), so ops hit bucket 0, absent buckets and the ends
/// of the dense range.
fn value(class: u8, mantissa: u32, exp: i32) -> f64 {
    let x = (1.0 + f64::from(mantissa) / 64.0) * 2f64.powi(exp);
    match class {
        0 => 0.0,
        1 => -x,
        2 => f64::NAN,
        _ => x,
    }
}

fn ops(exps: std::ops::Range<i32>) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..5, 0u8..8, 0u32..64, exps, 0u64..4), 0..40)
}

fn apply(ops: &[Op], h: &mut Histogram, m: &mut Model) {
    for &(kind, class, mantissa, exp, n) in ops {
        let v = value(class, mantissa, exp);
        match kind {
            0 => {
                h.record(v);
                m.record_bucket(bucket_index(v), 1);
            }
            1 => {
                h.record_n(v, n);
                m.record_bucket(bucket_index(v), n);
            }
            2 | 3 => {
                h.unrecord(v);
                m.unrecord(v);
            }
            _ => {
                h.record_bucket(bucket_index(v), n);
                m.record_bucket(bucket_index(v), n);
            }
        }
    }
}

fn json(h: &Histogram) -> String {
    let mut out = String::new();
    h.serialize_json(&mut out);
    out
}

fn assert_agrees(h: &Histogram, m: &Model) {
    let model: Vec<(u32, u64)> = m.counts.iter().map(|(&i, &n)| (i, n)).collect();
    assert_eq!(h.buckets().collect::<Vec<_>>(), model);
    assert_eq!(h.count(), m.count);
    assert_eq!(h.is_empty(), m.count == 0);
    let ps = [0.0, 0.1, 50.0, 95.0, 99.0, 100.0];
    for p in ps {
        assert_eq!(h.percentile_index(p), m.percentile_index(p), "p{p}");
    }
    assert_eq!(h.percentile_indices(ps), ps.map(|p| m.percentile_index(p)));
    assert_eq!(json(h), m.json());
    // Equality is by content: the same buckets rebuilt in reverse order
    // (so the dense range grows downwards) compare equal.
    let mut rebuilt = Histogram::new();
    for &(i, n) in model.iter().rev() {
        rebuilt.record_bucket(i, n);
    }
    assert_eq!(&rebuilt, h);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_histogram_matches_the_sparse_model(ops in ops(-4..4)) {
        let (mut h, mut m) = (Histogram::new(), Model::default());
        apply(&ops, &mut h, &mut m);
        assert_agrees(&h, &m);
    }

    #[test]
    fn merge_matches_the_model_across_disjoint_ranges(
        low in ops(-30..-20),
        high in ops(20..30),
        overlap in ops(-25..25),
    ) {
        let parts: Vec<(Histogram, Model)> = [low, high, overlap]
            .iter()
            .map(|ops| {
                let (mut h, mut m) = (Histogram::new(), Model::default());
                apply(ops, &mut h, &mut m);
                (h, m)
            })
            .collect();
        for (a, ma) in &parts {
            for (b, mb) in &parts {
                let (mut ab, mut mab) = (a.clone(), ma.clone());
                ab.merge(b);
                mab.merge(mb);
                assert_agrees(&ab, &mab);
                assert_eq!(a == b, ma == mb, "equality tracks the model");
            }
        }
    }
}
