//! An incrementally maintained tournament index over per-device
//! tentative-launch keys.
//!
//! The fleet event loop asks "which device owns the earliest launchable
//! batch?" before *every* route and commit. The straightforward answer
//! is a linear scan over all K devices, recomputing each device's best
//! lane from scratch — O(K · lanes) per event even though a single
//! event changes at most a handful of devices. This index caches each
//! device's best `(launch, network, tenant)` key and arranges the
//! winners in a complete binary tournament tree: a device whose state
//! changed is *marked* dirty, a refresh recomputes only dirty leaves
//! (O(log K) tree repair each), and the global winner is read off the
//! root in O(1).
//!
//! # Comparator = the scan's total order
//!
//! The linear scan the index replaces takes a device only on a strictly
//! smaller launch (`launch < best`), so ties go to the *lowest device
//! index*. The tree comparator is exactly that order — `(launch, d)`
//! with `f64` `==` launch ties broken by `d` — NOT `total_cmp`: IEEE
//! `==` treats `-0.0 == 0.0` as a tie (lowest device wins), which is
//! what the scan does, while `total_cmp` would order them and could
//! pick a different device. Equality of the comparator with the scan's
//! order is what makes the index swap report-byte-invisible; the
//! debug-build cross-check in `fleet::global_best` and the randomized
//! equivalence tests below pin it.
//!
//! The index does not know how keys are computed: `refresh` takes a
//! closure so the fleet can evaluate `device_best` against its own
//! state (and so this module is testable in isolation).
//!
//! # Placement rows ride on the same marks
//!
//! Every arrival's placement reads one [`DeviceLoad`] per device. The
//! index also keeps those rows — one per (device, network), network-major
//! so each network's K rows are one contiguous slice — and a row goes
//! stale exactly when its device's tournament key does: `mark(d)` /
//! `mark_all()` flag both, so there is one dirty protocol and one set of
//! mark sites. `refresh_rows` recomputes only the stale devices' rows
//! and keeps the fleet-wide queued-images total in step with them.

use crate::placement::DeviceLoad;
use memcnn_trace::perf;

/// Device rows recomputed by [`RouteIndex::refresh_rows`] (one per
/// device, covering each of its per-network rows).
static ROWS: perf::CachedCounter = perf::CachedCounter::new("fleet.route.rows");

/// Sentinel for "no candidate" slots in the tree (empty leaves past K,
/// and subtrees with no launchable device).
const EMPTY: u32 = u32::MAX;

/// A set of stale devices: each listed once, or all of them at once
/// (cheaper than K marks at phase-boundary delay changes and drain
/// flushes).
struct Stale {
    flags: Vec<bool>,
    /// The flagged devices, each once (drives a refresh).
    queue: Vec<usize>,
    all: bool,
}

impl Stale {
    /// Every device stale.
    fn all(k: usize) -> Stale {
        Stale { flags: vec![false; k], queue: Vec::with_capacity(k), all: true }
    }

    fn mark(&mut self, d: usize) {
        if !self.all && !self.flags[d] {
            self.flags[d] = true;
            self.queue.push(d);
        }
    }

    fn mark_all(&mut self) {
        self.all = true;
        self.flags.fill(false);
        self.queue.clear();
    }

    /// Take one stale device (after `all` has been handled).
    fn pop(&mut self) -> Option<usize> {
        let d = self.queue.pop()?;
        self.flags[d] = false;
        Some(d)
    }

    fn is_clean(&self) -> bool {
        !self.all && self.queue.is_empty()
    }
}

/// The tournament index and the placement rows. See the module docs for
/// the maintenance protocol: `mark` what changed, `refresh` before
/// reading `best`, `refresh_rows` before reading `rows`.
pub(crate) struct RouteIndex {
    /// Cached per-device key: the device's earliest launchable
    /// `(launch, network, tenant)`, `None` when it has nothing
    /// launchable (blocked, idle, or halt-horizoned).
    cached: Vec<Option<(f64, usize, usize)>>,
    /// Devices whose cached key is stale.
    stale_keys: Stale,
    /// Winner device per tree node; `tree[1]` is the root, leaf `d`
    /// lives at `base + d`.
    tree: Vec<u32>,
    base: usize,
    k: usize,
    /// Placement rows, network-major: `rows[n * k + d]` is device `d`'s
    /// load as network `n`'s placement sees it.
    rows: Vec<DeviceLoad>,
    /// Devices whose rows are stale.
    stale_rows: Stale,
    /// `Σ_d rows[d].queued_images`, kept in step with every row refresh.
    queued_images: usize,
}

impl RouteIndex {
    /// An index over `k` devices serving `nn` networks, with every key
    /// and row stale (the first refreshes compute them all).
    pub(crate) fn new(k: usize, nn: usize) -> RouteIndex {
        let base = k.next_power_of_two().max(1);
        let blank = DeviceLoad {
            device: 0,
            gpu_free: 0.0,
            queued_requests: 0,
            queued_images: 0,
            feasible_cap: 0,
        };
        RouteIndex {
            cached: vec![None; k],
            stale_keys: Stale::all(k),
            tree: vec![EMPTY; 2 * base],
            base,
            k,
            rows: vec![blank; k * nn],
            stale_rows: Stale::all(k),
            queued_images: 0,
        }
    }

    /// Mark device `d`'s cached key and placement rows stale (its queue,
    /// clock, health, or degradation state changed since the last
    /// refresh).
    pub(crate) fn mark(&mut self, d: usize) {
        self.stale_keys.mark(d);
        self.stale_rows.mark(d);
    }

    /// Mark every device's key and rows stale (delay changes, drain
    /// flushes — anything that may have moved state fleet-wide).
    pub(crate) fn mark_all(&mut self) {
        self.stale_keys.mark_all();
        self.stale_rows.mark_all();
    }

    /// Recompute every stale key via `key_of` and repair the tree.
    /// O(K) after `mark_all`, O(dirty · log K) otherwise.
    pub(crate) fn refresh<F>(&mut self, mut key_of: F)
    where
        F: FnMut(usize) -> Option<(f64, usize, usize)>,
    {
        if self.stale_keys.all {
            for d in 0..self.k {
                self.cached[d] = key_of(d);
                self.tree[self.base + d] = if self.cached[d].is_some() { d as u32 } else { EMPTY };
            }
            for v in (1..self.base).rev() {
                self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1]);
            }
            self.stale_keys.all = false;
            return;
        }
        while let Some(d) = self.stale_keys.pop() {
            self.cached[d] = key_of(d);
            let mut v = self.base + d;
            self.tree[v] = if self.cached[d].is_some() { d as u32 } else { EMPTY };
            v /= 2;
            // Repair all the way to the root: an unchanged winner can
            // still carry a changed key upward (the winning device
            // itself was the one refreshed), so no early exit.
            while v >= 1 {
                self.tree[v] = self.winner(self.tree[2 * v], self.tree[2 * v + 1]);
                v /= 2;
            }
        }
    }

    /// The fleet-wide earliest launchable batch, `(launch, d, n, t)` —
    /// the exact selection the linear device-major scan makes. Panics
    /// in debug builds if called with stale keys.
    pub(crate) fn best(&self) -> Option<(f64, usize, usize, usize)> {
        debug_assert!(self.stale_keys.is_clean(), "RouteIndex::best called before refresh");
        let d = self.tree[1];
        if d == EMPTY {
            return None;
        }
        let (launch, n, t) = self.cached[d as usize].expect("tree winner has a key");
        Some((launch, d as usize, n, t))
    }

    /// Recompute every stale device's rows via `load_of(d, n)` (once per
    /// network) and keep the queued-images total in step. O(K · networks)
    /// after `mark_all`, O(dirty · networks) otherwise.
    pub(crate) fn refresh_rows<F>(&mut self, mut load_of: F)
    where
        F: FnMut(usize, usize) -> DeviceLoad,
    {
        let k = self.k;
        let mut refresh = |rows: &mut [DeviceLoad], d: usize| {
            for n in 0..rows.len() / k {
                rows[n * k + d] = load_of(d, n);
            }
        };
        if self.stale_rows.all {
            ROWS.add(k as u64);
            for d in 0..k {
                refresh(&mut self.rows, d);
            }
            self.queued_images = self.rows[..k].iter().map(|r| r.queued_images).sum();
            self.stale_rows.all = false;
            return;
        }
        ROWS.add(self.stale_rows.queue.len() as u64);
        while let Some(d) = self.stale_rows.pop() {
            self.queued_images -= self.rows[d].queued_images;
            refresh(&mut self.rows, d);
            self.queued_images += self.rows[d].queued_images;
        }
    }

    /// Network `n`'s placement rows in device order. Panics in debug
    /// builds if called with stale rows.
    pub(crate) fn rows(&self, n: usize) -> &[DeviceLoad] {
        debug_assert!(self.stale_rows.is_clean(), "RouteIndex::rows called before refresh_rows");
        &self.rows[n * self.k..(n + 1) * self.k]
    }

    /// Queued images across the fleet: the sum of the rows'
    /// `queued_images` (rows are the same for every network).
    pub(crate) fn queued_images(&self) -> usize {
        debug_assert!(self.stale_rows.is_clean(), "RouteIndex::queued_images before refresh_rows");
        self.queued_images
    }

    /// Device `d`'s cached key (refreshed by the last `refresh`).
    pub(crate) fn key(&self, d: usize) -> Option<(f64, usize, usize)> {
        debug_assert!(self.stale_keys.is_clean(), "RouteIndex::key called before refresh");
        self.cached[d]
    }

    /// Tournament comparator: lower `(launch, device)` wins, with IEEE
    /// `==` launch ties going to the lower device index — the linear
    /// scan's strict-`<` first-wins order (see module docs).
    fn winner(&self, a: u32, b: u32) -> u32 {
        let key = |x: u32| {
            if x == EMPTY {
                None
            } else {
                self.cached[x as usize].map(|(l, _, _)| l)
            }
        };
        match (key(a), key(b)) {
            (None, _) => b,
            (Some(_), None) => a,
            (Some(la), Some(lb)) => {
                if la < lb || (la == lb && a < b) {
                    a
                } else {
                    b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The retained reference: the linear strict-`<` scan over the same
    /// keys.
    fn linear_best(keys: &[Option<(f64, usize, usize)>]) -> Option<(f64, usize, usize, usize)> {
        let mut best: Option<(f64, usize, usize, usize)> = None;
        for (d, key) in keys.iter().enumerate() {
            if let Some((launch, n, t)) = *key {
                if best.is_none_or(|(bl, _, _, _)| launch < bl) {
                    best = Some((launch, d, n, t));
                }
            }
        }
        best
    }

    /// Deterministic xorshift so the property test needs no rand dep.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn launch(&mut self) -> f64 {
            // A coarse grid so exact launch ties actually happen, plus
            // signed zeros to pin the IEEE `==` tie behaviour.
            match self.next() % 8 {
                0 => 0.0,
                1 => -0.0,
                r => (r % 5) as f64 * 0.25,
            }
        }
    }

    #[test]
    fn randomized_states_match_the_linear_scan() {
        // Property test (issue satellite): across fleet sizes, randomized
        // per-device keys, and randomized incremental updates, the index
        // picks exactly the linear scan's (device, network, tenant).
        for k in [1usize, 2, 3, 5, 8, 13, 64] {
            let mut rng = Rng(0x9E3779B97F4A7C15 ^ (k as u64) << 32 | 1);
            let mut keys: Vec<Option<(f64, usize, usize)>> = vec![None; k];
            let mut idx = RouteIndex::new(k, 1);
            for round in 0..200 {
                // Mutate a random subset (sometimes everything).
                if round % 17 == 0 {
                    for key in keys.iter_mut() {
                        *key = (!rng.next().is_multiple_of(4)).then(|| {
                            (rng.launch(), (rng.next() % 3) as usize, (rng.next() % 2) as usize)
                        });
                    }
                    idx.mark_all();
                } else {
                    for _ in 0..(rng.next() % 4 + 1) {
                        let d = (rng.next() as usize) % k;
                        keys[d] = (!rng.next().is_multiple_of(4)).then(|| {
                            (rng.launch(), (rng.next() % 3) as usize, (rng.next() % 2) as usize)
                        });
                        idx.mark(d);
                    }
                }
                idx.refresh(|d| keys[d]);
                assert_eq!(idx.best(), linear_best(&keys), "k={k} round={round}");
            }
        }
    }

    #[test]
    fn exact_ties_go_to_the_lowest_device_index() {
        let mut idx = RouteIndex::new(4, 1);
        let keys = [Some((1.5, 0, 0)), Some((1.5, 1, 0)), Some((0.5, 2, 0)), Some((0.5, 3, 0))];
        idx.refresh(|d| keys[d]);
        assert_eq!(idx.best(), Some((0.5, 2, 2, 0)), "tie between devices 2 and 3 picks 2");
        // Signed zero is an IEEE tie, not an ordered pair: -0.0 on a
        // higher device must NOT beat +0.0 on a lower one.
        let zeros = [Some((0.0, 7, 0)), Some((-0.0, 9, 0)), None, None];
        let mut idx = RouteIndex::new(4, 1);
        idx.refresh(|d| zeros[d]);
        let best = idx.best();
        assert_eq!(best, linear_best(&zeros));
        assert_eq!(best.map(|(_, d, _, _)| d), Some(0));
    }

    #[test]
    fn marks_refresh_only_what_changed() {
        let mut calls: Vec<usize> = Vec::new();
        let mut idx = RouteIndex::new(8, 1);
        idx.refresh(|d| {
            calls.push(d);
            Some((d as f64, 0, 0))
        });
        assert_eq!(calls.len(), 8, "initial refresh computes every key");
        calls.clear();
        idx.mark(3);
        idx.mark(3); // duplicate marks collapse
        idx.mark(6);
        idx.refresh(|d| {
            calls.push(d);
            Some(if d == 3 { (-1.0, 1, 0) } else { (d as f64, 0, 0) })
        });
        calls.sort_unstable();
        assert_eq!(calls, vec![3, 6], "only dirty leaves recompute");
        assert_eq!(idx.best(), Some((-1.0, 3, 1, 0)));
        // An empty refresh is free and the root stays valid.
        idx.refresh(|_| unreachable!("nothing is dirty"));
        assert_eq!(idx.best(), Some((-1.0, 3, 1, 0)));
    }

    #[test]
    fn randomized_marks_keep_the_rows_and_their_total_fresh() {
        // Property test: across fleet sizes and network counts, random
        // per-device state changes with random point and bulk marks, the
        // refreshed rows equal a fresh snapshot of every device, the total
        // equals their sum, and only marked devices recompute.
        for (k, nn) in [(1usize, 1usize), (2, 2), (5, 1), (8, 3), (13, 2), (64, 1)] {
            let mut rng = Rng(0x2545F4914F6CDD1D ^ ((k * 31 + nn) as u64) << 20 | 1);
            let caps: Vec<usize> = (0..k * nn).map(|_| 1 << (rng.next() % 8)).collect();
            let mut state: Vec<(f64, usize, usize)> = vec![(0.0, 0, 0); k];
            let load = |state: &[(f64, usize, usize)], d: usize, n: usize| {
                let (gpu_free, queued_requests, queued_images) = state[d];
                DeviceLoad {
                    device: d,
                    gpu_free,
                    queued_requests,
                    queued_images,
                    feasible_cap: caps[d * nn + n],
                }
            };
            let mut idx = RouteIndex::new(k, nn);
            for round in 0..200 {
                let mut marked: Vec<usize> = Vec::new();
                let bulk = round % 23 == 0;
                for _ in 0..(rng.next() % 4 + 1) {
                    let d = (rng.next() as usize) % k;
                    let reqs = (rng.next() % 6) as usize;
                    state[d] = (rng.launch(), reqs, reqs * (rng.next() % 4 + 1) as usize);
                    idx.mark(d);
                    marked.push(d);
                }
                if bulk {
                    idx.mark_all();
                }
                let mut calls: Vec<usize> = Vec::new();
                idx.refresh_rows(|d, n| {
                    calls.push(d);
                    load(&state, d, n)
                });
                calls.dedup();
                calls.sort_unstable();
                marked.sort_unstable();
                marked.dedup();
                if bulk {
                    assert_eq!(calls, (0..k).collect::<Vec<_>>(), "k={k} round={round}");
                } else {
                    assert_eq!(calls, marked, "only marked devices recompute: k={k} round={round}");
                }
                for n in 0..nn {
                    let rows = idx.rows(n);
                    assert_eq!(rows.len(), k);
                    for (d, row) in rows.iter().enumerate() {
                        let fresh = load(&state, d, n);
                        assert_eq!(
                            (row.device, row.gpu_free.to_bits(), row.queued_requests),
                            (fresh.device, fresh.gpu_free.to_bits(), fresh.queued_requests),
                        );
                        assert_eq!(
                            (row.queued_images, row.feasible_cap),
                            (fresh.queued_images, fresh.feasible_cap)
                        );
                    }
                }
                let total: usize = state.iter().map(|s| s.2).sum();
                assert_eq!(idx.queued_images(), total, "k={k} round={round}");
            }
        }
    }
}
