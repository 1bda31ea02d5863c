//! Process-wide memoization of [`simulate`](crate::simulate) results.
//!
//! The simulator is a *pure function*: a [`KernelReport`] is fully determined
//! by the device configuration, the kernel's launch-relevant parameters, and
//! the simulation options (the analytic-model property DeLTA exploits for
//! the same reason). The engine above re-simulates identical triples
//! hundreds of times — mechanism scoring, the layout DP's two-state probing,
//! and autotune sweeps all revisit the same kernels — so this module keeps a
//! sharded, read-mostly map from a canonical [`SimKey`] to the finished
//! report.
//!
//! **Key derivation.** A key is the concatenation of (a) the `Debug`
//! rendering of the `DeviceConfig` (every field participates; `f64` Debug is
//! round-trip exact), (b) the kernel's [`cache_key`](crate::KernelSpec::cache_key)
//! — for the workspace's kernels, `type name + Debug of all fields` via
//! [`derived_cache_key`] — and (c) the launch-relevant `SimOptions` fields
//! (`max_sampled_blocks`, `l2_enabled`; `use_cache` itself is excluded since
//! it cannot change the report). Kernels whose key cannot capture their
//! behaviour return `None` and bypass the cache entirely.
//!
//! **Invalidation by construction.** There is none, deliberately: keys embed
//! every input the simulator reads, so a stale entry cannot exist — a
//! changed device, kernel field, or option is a *different key*. Buffer
//! addresses inside kernel specs are assigned by per-construction
//! [`AddressSpace`](crate::AddressSpace) bump allocation starting at a fixed
//! origin, so two constructions of the same logical kernel render identical
//! Debug strings and share an entry.
//!
//! **Concurrency.** The map is sharded 16 ways by key hash; each shard is an
//! `RwLock<HashMap>` taken for read on lookup and briefly for write on
//! insert. Rayon probe workers therefore contend only when they hash to the
//! same shard *and* one is inserting. Statistics go to the global
//! [`memcnn_trace::perf`] registry (`sim.cache.hit` / `.miss` / `.bypass`,
//! `sim.kernels.cold`, `sim.cache.evict`) so parallel workers' counts are
//! never lost.
//!
//! **Bounded capacity.** The cache is capped (default [`DEFAULT_CAPACITY`]
//! entries, overridable via the `MEMCNN_SIMCACHE_CAP` environment variable,
//! read once at first use). Each shard holds at most `capacity / 16`
//! entries and evicts its least-recently-used entry on overflow — recency
//! is a per-entry atomic stamp from a global logical clock, updated on
//! every hit without taking the shard's write lock. Evictions only cost a
//! re-simulation, never correctness, so an approximate per-shard LRU is
//! exactly the right price point.

use crate::device::DeviceConfig;
use crate::launch::{KernelReport, SimOptions};
use memcnn_trace::perf;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// Canonical identity of one `simulate` invocation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SimKey {
    device: String,
    kernel: String,
    max_sampled_blocks: u64,
    l2_enabled: bool,
}

impl SimKey {
    /// Build the key for `(device, kernel_key, opts)`. `kernel_key` is the
    /// spec's [`cache_key`](crate::KernelSpec::cache_key) payload.
    pub fn new(device: &DeviceConfig, kernel_key: String, opts: &SimOptions) -> SimKey {
        SimKey {
            device: format!("{device:?}"),
            kernel: kernel_key,
            max_sampled_blocks: opts.max_sampled_blocks,
            l2_enabled: opts.l2_enabled,
        }
    }
}

/// A memoized simulation: the report plus the two launch-total counters the
/// trace collector publishes but the report does not carry. Storing them
/// makes a cache hit's `record_kernel` replay byte-identical to a cold run.
#[derive(Clone, Debug)]
pub struct CachedSim {
    /// The simulator's report, returned verbatim on every hit.
    pub report: KernelReport,
    /// Shared-memory passes from the launch totals (for trace replay).
    pub smem_passes: f64,
    /// Shared-memory bytes from the launch totals (for trace replay).
    pub smem_bytes: f64,
}

const SHARDS: usize = 16;

/// Default total capacity (entries across all shards). Deliberately
/// generous: the full five-network evaluation sweep populates ~400
/// entries, so evictions only start under workloads two orders of
/// magnitude beyond anything the repo ships today.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Entry {
    value: Arc<CachedSim>,
    /// Logical-clock stamp of the last touch (read under the shard's
    /// *read* lock, so hits never serialize on the write lock).
    last_used: AtomicU64,
}

struct Store {
    shards: Vec<RwLock<HashMap<SimKey, Entry>>>,
    clock: AtomicU64,
    per_shard_cap: usize,
}

impl Store {
    fn with_capacity(capacity: usize) -> Store {
        Store {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
        }
    }
}

/// Total capacity the process-wide cache was configured with:
/// `MEMCNN_SIMCACHE_CAP` if set to a positive integer, else
/// [`DEFAULT_CAPACITY`]. Read once, at the cache's first use; a malformed
/// override warns once on stderr and falls back to the default.
pub fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| capacity_from(std::env::var("MEMCNN_SIMCACHE_CAP").ok().as_deref()))
}

/// Parse a `MEMCNN_SIMCACHE_CAP` value, warning on stderr and returning
/// [`DEFAULT_CAPACITY`] when it is present but not a positive integer.
/// Pure so the fallback path is unit-testable; the `OnceLock` in
/// [`capacity`] guarantees the warning fires at most once per process.
fn capacity_from(raw: Option<&str>) -> usize {
    match raw {
        None => DEFAULT_CAPACITY,
        Some(v) => match v.parse::<usize>() {
            Ok(c) if c > 0 => c,
            _ => {
                eprintln!(
                    "memcnn: ignoring malformed MEMCNN_SIMCACHE_CAP={v:?} \
                     (want a positive integer); using {DEFAULT_CAPACITY}"
                );
                DEFAULT_CAPACITY
            }
        },
    }
}

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store::with_capacity(capacity()))
}

fn shard_index(key: &SimKey) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

struct Counters {
    hit: perf::Counter,
    miss: perf::Counter,
    bypass: perf::Counter,
    cold: perf::Counter,
    evict: perf::Counter,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        hit: perf::counter("sim.cache.hit"),
        miss: perf::counter("sim.cache.miss"),
        bypass: perf::counter("sim.cache.bypass"),
        cold: perf::counter("sim.kernels.cold"),
        evict: perf::counter("sim.cache.evict"),
    })
}

use std::sync::atomic::{AtomicU64, Ordering};

fn lookup_in(store: &Store, key: &SimKey) -> Option<Arc<CachedSim>> {
    let shard = store.shards[shard_index(key)].read().expect("sim cache poisoned");
    shard.get(key).map(|e| {
        e.last_used.store(store.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Arc::clone(&e.value)
    })
}

/// Insert into `store`, evicting the shard's least-recently-used entry when
/// the shard is at capacity. Returns the number of evictions (0 or 1).
fn insert_in(store: &Store, key: SimKey, value: CachedSim) -> u64 {
    let mut shard = store.shards[shard_index(&key)].write().expect("sim cache poisoned");
    let mut evicted = 0;
    if shard.len() >= store.per_shard_cap && !shard.contains_key(&key) {
        // O(shard) scan: shards stay small (cap/16), and eviction is the
        // rare path — a heap or linked order would cost more on every hit.
        if let Some(victim) = shard
            .iter()
            .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
            .map(|(k, _)| k.clone())
        {
            shard.remove(&victim);
            evicted = 1;
        }
    }
    let stamp = store.clock.fetch_add(1, Ordering::Relaxed);
    shard.insert(key, Entry { value: Arc::new(value), last_used: AtomicU64::new(stamp) });
    evicted
}

/// Look `key` up, counting a hit or miss. A hit refreshes the entry's
/// LRU stamp.
pub fn lookup(key: &SimKey) -> Option<Arc<CachedSim>> {
    let found = lookup_in(store(), key);
    let c = counters();
    match &found {
        Some(_) => c.hit.fetch_add(1, Ordering::Relaxed),
        None => c.miss.fetch_add(1, Ordering::Relaxed),
    };
    found
}

/// Insert a finished simulation, evicting the least-recently-used entry of
/// the target shard when it is full. Concurrent inserts of the same key are
/// idempotent (the simulator is deterministic), so last-write-wins is fine.
pub fn insert(key: SimKey, value: CachedSim) {
    let evicted = insert_in(store(), key, value);
    if evicted > 0 {
        counters().evict.fetch_add(evicted, Ordering::Relaxed);
    }
}

/// Count one cache-ineligible simulation (spec opted out, or caching was
/// switched off in the options).
pub fn note_bypass() {
    counters().bypass.fetch_add(1, Ordering::Relaxed);
}

/// Count one cold (fully executed) simulation.
pub fn note_cold() {
    counters().cold.fetch_add(1, Ordering::Relaxed);
}

/// Number of memoized entries across all shards.
pub fn len() -> usize {
    store().shards.iter().map(|s| s.read().expect("sim cache poisoned").len()).sum()
}

/// Drop every entry (the perf counters are left untouched; reset those via
/// [`memcnn_trace::perf::reset`]).
pub fn clear() {
    for s in &store().shards {
        s.write().expect("sim cache poisoned").clear();
    }
}

/// Point-in-time cache statistics, read from the perf registry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups that returned a memoized report.
    pub hits: u64,
    /// Lookups that found nothing (a cold simulation follows).
    pub misses: u64,
    /// Simulations that never consulted the cache.
    pub bypasses: u64,
    /// Simulations executed in full.
    pub cold: u64,
    /// Live entries.
    pub entries: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot the cache statistics.
pub fn stats() -> CacheStats {
    let c = counters();
    CacheStats {
        hits: c.hit.load(Ordering::Relaxed),
        misses: c.miss.load(Ordering::Relaxed),
        bypasses: c.bypass.load(Ordering::Relaxed),
        cold: c.cold.load(Ordering::Relaxed),
        entries: len() as u64,
        evictions: c.evict.load(Ordering::Relaxed),
    }
}

/// Derive a cache key from a spec's type and `Debug` rendering: sound
/// whenever the spec's trace is a pure function of its (Debug-visible)
/// fields. The type name disambiguates structurally identical specs of
/// different types; the Debug body captures every field, including buffer
/// base addresses.
pub fn derived_cache_key<K: std::fmt::Debug + ?Sized>(kernel: &K) -> Option<String> {
    Some(format!("{}::{:?}", std::any::type_name::<K>(), kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bound, KernelTime};
    use crate::occupancy::{Limiter, Occupancy};

    fn dummy_report(name: &str, time: f64) -> KernelReport {
        KernelReport {
            name: name.to_string(),
            timing: KernelTime {
                time,
                t_launch: 0.0,
                t_compute: 0.0,
                t_dram: 0.0,
                t_l2: 0.0,
                t_latency: 0.0,
                t_smem: 0.0,
                t_issue: 0.0,
                bound: Bound::Launch,
                dram_gbs: 0.0,
                flops_rate: 0.0,
                alu_utilization: 0.0,
                alu_eff: 1.0,
            },
            occupancy: Occupancy {
                blocks_per_sm: 1,
                warps_per_sm: 1,
                concurrent_blocks: 1,
                concurrent_warps: 1,
                fraction: 1.0,
                limiter: Limiter::Blocks,
            },
            dram_bytes: 0.0,
            transaction_bytes: 0.0,
            requested_bytes: 0.0,
            l2_hit_rate: 0.0,
            flops: 0.0,
            sampled_blocks: 1,
            grid_blocks: 1,
        }
    }

    #[test]
    fn distinct_options_and_kernels_get_distinct_keys() {
        let d = DeviceConfig::titan_black();
        let base = SimOptions::default();
        let k1 = SimKey::new(&d, "A".to_string(), &base);
        let k2 = SimKey::new(&d, "B".to_string(), &base);
        assert_ne!(k1, k2);
        let no_l2 = SimOptions { l2_enabled: false, ..base };
        assert_ne!(k1, SimKey::new(&d, "A".to_string(), &no_l2));
        let more = SimOptions { max_sampled_blocks: 48, ..base };
        assert_ne!(k1, SimKey::new(&d, "A".to_string(), &more));
        let dx = DeviceConfig::titan_x();
        assert_ne!(k1, SimKey::new(&dx, "A".to_string(), &base));
        // use_cache is *not* part of the key: it cannot change the report.
        let cold = SimOptions { use_cache: false, ..base };
        assert_eq!(k1, SimKey::new(&d, "A".to_string(), &cold));
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let d = DeviceConfig::titan_black();
        let key = SimKey::new(&d, "simcache-test-roundtrip".to_string(), &SimOptions::default());
        assert!(lookup(&key).is_none());
        insert(
            key.clone(),
            CachedSim { report: dummy_report("rt", 1e-6), smem_passes: 3.0, smem_bytes: 96.0 },
        );
        let hit = lookup(&key).expect("inserted entry is retrievable");
        assert_eq!(hit.report.name, "rt");
        assert_eq!(hit.smem_passes, 3.0);
        assert!(len() >= 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_capacity() {
        // A private store with one entry per shard: inserting two keys that
        // hash to the same shard must evict the less recently used one.
        let store = Store::with_capacity(SHARDS); // per-shard cap = 1
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        let key = |i: usize| SimKey::new(&d, format!("lru-{i}"), &opts);
        let sim = |i: usize| CachedSim {
            report: dummy_report(&format!("lru-{i}"), 1e-6),
            smem_passes: 0.0,
            smem_bytes: 0.0,
        };
        // Find two distinct keys in the same shard.
        let k0 = key(0);
        let k1 = (1..64).map(key).find(|k| shard_index(k) == shard_index(&k0)).unwrap();
        assert_eq!(insert_in(&store, k0.clone(), sim(0)), 0);
        // Touch k0, then overflow the shard: k0 was just used, so it stays
        // only if k1 is the newcomer... the newcomer always stays; the
        // victim is the stale resident.
        assert!(lookup_in(&store, &k0).is_some());
        assert_eq!(insert_in(&store, k1.clone(), sim(1)), 1);
        assert!(lookup_in(&store, &k0).is_none(), "resident k0 was the LRU victim");
        assert!(lookup_in(&store, &k1).is_some(), "newcomer survives");
        // Re-inserting an existing key is an update, not an eviction.
        assert_eq!(insert_in(&store, k1.clone(), sim(1)), 0);
    }

    #[test]
    fn lru_victim_is_least_recently_used_not_oldest_inserted() {
        let store = Store::with_capacity(2 * SHARDS); // per-shard cap = 2
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        let key = |i: usize| SimKey::new(&d, format!("lru2-{i}"), &opts);
        let k0 = key(0);
        let mut same_shard = (1..256).map(key).filter(|k| shard_index(k) == shard_index(&k0));
        let k1 = same_shard.next().unwrap();
        let k2 = same_shard.next().unwrap();
        let sim =
            || CachedSim { report: dummy_report("x", 1e-6), smem_passes: 0.0, smem_bytes: 0.0 };
        insert_in(&store, k0.clone(), sim());
        insert_in(&store, k1.clone(), sim());
        // Refresh the *older* entry: the victim must now be k1.
        assert!(lookup_in(&store, &k0).is_some());
        assert_eq!(insert_in(&store, k2.clone(), sim()), 1);
        assert!(lookup_in(&store, &k0).is_some(), "refreshed entry survives");
        assert!(lookup_in(&store, &k1).is_none(), "stale entry evicted");
        assert!(lookup_in(&store, &k2).is_some());
    }

    #[test]
    fn capacity_defaults_are_sane() {
        // The env override is read once per process; this test only checks
        // the default path plus the derived per-shard arithmetic.
        const { assert!(DEFAULT_CAPACITY >= 1024) };
        let s = Store::with_capacity(1); // degenerate cap still works
        assert_eq!(s.per_shard_cap, 1);
        let s = Store::with_capacity(DEFAULT_CAPACITY);
        assert_eq!(s.per_shard_cap, DEFAULT_CAPACITY / SHARDS);
    }

    #[test]
    fn malformed_capacity_override_warns_and_falls_back() {
        assert_eq!(capacity_from(None), DEFAULT_CAPACITY);
        assert_eq!(capacity_from(Some("4096")), 4096);
        assert_eq!(capacity_from(Some("lots")), DEFAULT_CAPACITY);
        assert_eq!(capacity_from(Some("0")), DEFAULT_CAPACITY);
        assert_eq!(capacity_from(Some("-1")), DEFAULT_CAPACITY);
        assert_eq!(capacity_from(Some("")), DEFAULT_CAPACITY);
    }

    #[test]
    fn derived_key_includes_type_and_fields() {
        // The field is only ever read through the derived Debug impl,
        // which dead-code analysis deliberately ignores.
        #[derive(Debug)]
        struct Probe {
            #[allow(dead_code)]
            n: u64,
        }
        let key = derived_cache_key(&Probe { n: 7 }).unwrap();
        assert!(key.contains("Probe"), "type name missing: {key}");
        assert!(key.contains("n: 7"), "field missing: {key}");
        assert_ne!(key, derived_cache_key(&Probe { n: 8 }).unwrap());
    }
}
