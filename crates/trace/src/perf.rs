//! Global, thread-safe named performance counters.
//!
//! The span/kernel collector in this crate is thread-local by design: it
//! attributes simulated kernels to the scope stack of the *orchestrating*
//! thread. Work fanned out to rayon workers has no scope stack, so anything
//! counted only there would silently vanish from `profile.txt`. This module
//! is the complement: a process-wide registry of monotonically increasing
//! `u64` counters that any thread can bump cheaply (one atomic add after a
//! shared-lock name lookup; hot paths can hold on to the returned handle and
//! skip the lookup entirely).
//!
//! Unlike the collector, the registry is always on — counters cost an atomic
//! increment whether or not a trace is being recorded. They carry *counts*,
//! not timings, so there is no per-record allocation and no distortion of the
//! traced timeline.
//!
//! Naming convention: dotted lowercase paths, e.g. `sim.cache.hit`,
//! `engine.probe.parallel`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A live handle to one named counter. Cloning is cheap (`Arc`); keep one
/// around to bump a hot counter without re-resolving its name.
pub type Counter = Arc<AtomicU64>;

fn registry() -> &'static RwLock<BTreeMap<&'static str, Counter>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<&'static str, Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Resolve (registering on first use) the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    if let Some(c) = registry().read().expect("perf registry poisoned").get(name) {
        return Arc::clone(c);
    }
    let mut map = registry().write().expect("perf registry poisoned");
    Arc::clone(map.entry(name).or_default())
}

/// Increment `name` by one.
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// Increment `name` by `n`.
pub fn add(name: &'static str, n: u64) {
    counter(name).fetch_add(n, Ordering::Relaxed);
}

/// Current value of `name` (0 if it was never touched).
pub fn get(name: &'static str) -> u64 {
    registry()
        .read()
        .expect("perf registry poisoned")
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Snapshot every registered counter. Values are read individually and
/// relaxed, so a snapshot taken during concurrent updates is a consistent
/// *per-counter* view, not a global atomic cut — fine for reporting.
pub fn snapshot() -> BTreeMap<String, u64> {
    registry()
        .read()
        .expect("perf registry poisoned")
        .iter()
        .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .collect()
}

/// A lazily resolved, statically cached counter handle for hot paths.
///
/// [`incr`]/[`add`] re-resolve the name through the registry's shared
/// lock on every call; inner-loop call sites (the fleet's per-barrier
/// and per-batch counters) instead declare one of these as a `static`
/// and pay the lock exactly once per process — every later bump is a
/// single relaxed atomic add on the cached [`Counter`] `Arc`.
/// [`reset`] keeps handles valid (it zeroes the shared cells in place),
/// so benches that reset between runs see cached increments too.
///
/// ```
/// use memcnn_trace::perf;
/// static EVENTS: perf::CachedCounter = perf::CachedCounter::new("doc.cached.events");
/// EVENTS.incr();
/// EVENTS.add(2);
/// assert_eq!(perf::get("doc.cached.events"), 3);
/// ```
pub struct CachedCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl CachedCounter {
    /// A handle for `name`, resolved on first use.
    pub const fn new(name: &'static str) -> CachedCounter {
        CachedCounter { name, cell: OnceLock::new() }
    }

    fn cell(&self) -> &Counter {
        self.cell.get_or_init(|| counter(self.name))
    }

    /// Increment by one (atomic add; no registry lookup after the first
    /// call).
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell().fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

/// A point-in-time snapshot of every registered counter, used to report
/// *per-run deltas* instead of process-lifetime totals. The counters are
/// global and monotonically increasing, so within one process several
/// runs bleed into the same totals; a baseline taken before a run turns
/// them back into that run's own counts:
///
/// ```
/// use memcnn_trace::perf;
/// let base = perf::baseline();
/// perf::add("doc.baseline.example", 3);
/// assert_eq!(base.delta_of("doc.baseline.example"), 3);
/// assert!(base.delta().contains_key("doc.baseline.example"));
/// ```
#[derive(Clone, Debug)]
pub struct Baseline {
    at: BTreeMap<String, u64>,
}

/// Snapshot the registry as a [`Baseline`] for later delta queries.
pub fn baseline() -> Baseline {
    Baseline { at: snapshot() }
}

impl Baseline {
    /// Growth of one counter since the baseline (0 if it never moved;
    /// saturating, so a [`reset`] between baseline and query reads as 0
    /// rather than wrapping).
    pub fn delta_of(&self, name: &'static str) -> u64 {
        get(name).saturating_sub(self.at.get(name).copied().unwrap_or(0))
    }

    /// Every counter that grew since the baseline, with its growth.
    /// Counters registered after the baseline count from zero; unchanged
    /// counters are omitted.
    pub fn delta(&self) -> BTreeMap<String, u64> {
        snapshot()
            .into_iter()
            .filter_map(|(name, now)| {
                let before = self.at.get(&name).copied().unwrap_or(0);
                let d = now.saturating_sub(before);
                (d > 0).then_some((name, d))
            })
            .collect()
    }
}

/// Reset every registered counter to zero. Handles held by hot paths stay
/// valid (the `Arc`s are reused, not replaced).
pub fn reset() {
    for c in registry().read().expect("perf registry poisoned").values() {
        c.store(0, Ordering::Relaxed);
    }
}

/// Render the non-zero counters as a text block (used by the profile
/// exporter); empty string when nothing has been counted.
pub fn render() -> String {
    let snap = snapshot();
    let mut out = String::new();
    for (name, value) in snap.iter().filter(|(_, v)| **v > 0) {
        out.push_str(&format!("  {name:<28} {value:>12}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and `reset()` zeroes every counter,
    /// so the registry checks share ONE `#[test]`: as separate tests, a
    /// reset on one harness thread would race sibling assertions (the
    /// same convention `tests/*.rs` follows for process-global state).
    #[test]
    fn registry_counts_resets_baselines_and_concurrent_increments() {
        // Lifecycle: register, accumulate, render, reset.
        let c = counter("test.perf.lifecycle");
        assert_eq!(c.load(Ordering::Relaxed), 0);
        incr("test.perf.lifecycle");
        add("test.perf.lifecycle", 41);
        assert_eq!(get("test.perf.lifecycle"), 42);
        // The handle observes the same cell the free functions use.
        assert_eq!(c.load(Ordering::Relaxed), 42);
        assert_eq!(snapshot().get("test.perf.lifecycle"), Some(&42));
        assert!(render().contains("test.perf.lifecycle"));

        // Cached handles share the registry cell.
        static CACHED: CachedCounter = CachedCounter::new("test.perf.cached");
        CACHED.incr();
        CACHED.add(4);
        assert_eq!(get("test.perf.cached"), 5);
        assert_eq!(CACHED.get(), 5);
        add("test.perf.cached", 1);
        assert_eq!(CACHED.get(), 6);

        reset();
        assert_eq!(get("test.perf.lifecycle"), 0);
        // Held handles survive a reset.
        c.fetch_add(7, Ordering::Relaxed);
        assert_eq!(get("test.perf.lifecycle"), 7);
        CACHED.incr();
        assert_eq!(get("test.perf.cached"), 1, "cached handles survive reset()");

        // Baselines report per-run deltas, not lifetime totals. "Run 1"
        // pollutes the global counter, as real bench binaries do.
        add("test.perf.baseline", 100);
        let base = baseline();
        assert_eq!(base.delta_of("test.perf.baseline"), 0);
        assert!(!base.delta().contains_key("test.perf.baseline"));
        // "Run 2" under the baseline sees only its own counts.
        add("test.perf.baseline", 7);
        incr("test.perf.baseline.fresh"); // registered after the baseline
        assert_eq!(base.delta_of("test.perf.baseline"), 7);
        let d = base.delta();
        assert_eq!(d.get("test.perf.baseline"), Some(&7));
        assert_eq!(d.get("test.perf.baseline.fresh"), Some(&1));

        // Concurrent increments are not lost.
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        incr("test.perf.concurrent");
                    }
                });
            }
        });
        assert_eq!(get("test.perf.concurrent"), threads * per_thread);
    }
}
