//! Process-wide memoization of [`simulate`](crate::simulate) results.
//!
//! The simulator is a *pure function*: a [`KernelReport`] is fully determined
//! by the device configuration, the kernel's launch-relevant parameters, and
//! the simulation options (the analytic-model property DeLTA exploits for
//! the same reason). The engine above re-simulates identical triples
//! hundreds of times — mechanism scoring, the layout DP's two-state probing,
//! autotune sweeps, and every warm serving-plan recompile revisit the same
//! kernels — so this module keeps a sharded, read-mostly map from a typed
//! [`SimKey`] to the finished report. A hit renders no text and allocates
//! nothing: it builds the key from the inputs' bit patterns, hashes it
//! once, and compares it field by field against the resident entry.
//!
//! **Key derivation.** A key has three typed parts:
//!
//! - the device's key: every numeric `DeviceConfig` field as its
//!   bit pattern, taken by an exhaustive destructure, so a field added to
//!   `DeviceConfig` fails to compile until it is keyed. The display `name`
//!   is left out because the simulator never reads it: renamed copies of a
//!   device share entries;
//! - the kernel's [`cache_key`](crate::KernelSpec::cache_key): the spec
//!   value itself as a [`CacheKey`], compared by its derived `Eq` and
//!   hashed by its derived `Hash` (floats by `to_bits`). Every field takes
//!   part, buffer base addresses included, and two spec types never
//!   compare equal even when their fields agree;
//! - the launch-relevant `SimOptions` fields (`max_sampled_blocks`,
//!   `l2_enabled`; `use_cache` itself is excluded since it cannot change
//!   the report).
//!
//! Kernels whose value cannot capture their behaviour return `None` from
//! `cache_key` and bypass the cache entirely.
//!
//! **Hashing.** One [`KeyHasher`] pass per lookup (a multiply-add word
//! hash with a final avalanche) yields the 64-bit hash that picks both the
//! shard and the slot inside it: each shard maps the hash itself, through
//! a pass-through hasher, to the entry holding the full key. A lookup is a
//! hit only when that stored key equals the probe; two keys that share a
//! hash displace each other, which costs a re-simulation, never a wrong
//! report.
//!
//! **Invalidation by construction.** There is none, deliberately: keys embed
//! every input the simulator reads, so a stale entry cannot exist — a
//! changed device, kernel field, or option is a *different key*. Buffer
//! addresses inside kernel specs are assigned by per-construction
//! [`AddressSpace`](crate::AddressSpace) bump allocation starting at a fixed
//! origin, so two constructions of the same logical kernel compare equal
//! and share an entry.
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
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A kernel spec's identity in the simulation cache: the spec value
/// itself, compared by its derived `Eq` and hashed by its derived `Hash`.
///
/// Implemented for every `Clone + Eq + Hash + Send + Sync + 'static` type,
/// so a spec that is a pure function of its fields opts in with those
/// derives and `fn cache_key(&self) -> Option<&dyn CacheKey> { Some(self) }`.
/// Values of two different types never compare equal.
pub trait CacheKey: Any + Send + Sync {
    /// Whether `other` is a value of the same type equal to `self`.
    fn key_eq(&self, other: &dyn CacheKey) -> bool;
    /// Feed the type and the value into `state`.
    fn key_hash(&self, state: &mut KeyHasher);
    /// An owned copy, for storing beside a freshly simulated report.
    fn to_boxed(&self) -> Box<dyn CacheKey>;
    /// The value as `Any`, for the same-type check in [`key_eq`](Self::key_eq).
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + Clone + Eq + Hash + Send + Sync> CacheKey for T {
    fn key_eq(&self, other: &dyn CacheKey) -> bool {
        other.as_any().downcast_ref::<T>() == Some(self)
    }

    fn key_hash(&self, state: &mut KeyHasher) {
        TypeId::of::<T>().hash(state);
        self.hash(state);
    }

    fn to_boxed(&self) -> Box<dyn CacheKey> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The cache's word hasher: a multiply-add step per 64-bit word (bytes are
/// packed eight to a word) and a murmur3 avalanche on `finish`, so every
/// bit of the result depends on every input word. Not DoS-resistant, and
/// it need not be: keys come from the workspace's own specs and devices.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = self.state.wrapping_add(w).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w) ^ (rest.len() as u64) << 59);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The identity of a [`DeviceConfig`] for the cache: every numeric field's
/// bit pattern, in declaration order. `name` is left out — the simulator
/// never reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct DeviceKey([u64; 24]);

impl DeviceKey {
    /// The key of `device`.
    pub(crate) fn new(device: &DeviceConfig) -> DeviceKey {
        // Exhaustive on purpose: a new field is a compile error here until
        // it is keyed (or, like `name`, shown not to reach the simulator).
        let DeviceConfig {
            name: _,
            sms,
            cores_per_sm,
            clock_hz,
            peak_flops,
            dram_bw,
            l2_bw,
            device_mem,
            l2_size,
            l2_assoc,
            mem_latency,
            mem_mlp,
            warp_size,
            max_threads_per_sm,
            max_blocks_per_sm,
            regs_per_sm,
            max_regs_per_thread,
            smem_per_sm,
            smem_per_block_max,
            max_threads_per_block,
            smem_banks,
            supports_8byte_banks,
            launch_overhead,
            warps_to_saturate_alu,
            block_overhead_cycles,
        } = device;
        DeviceKey([
            u64::from(*sms),
            u64::from(*cores_per_sm),
            clock_hz.to_bits(),
            peak_flops.to_bits(),
            dram_bw.to_bits(),
            l2_bw.to_bits(),
            *device_mem,
            *l2_size,
            u64::from(*l2_assoc),
            mem_latency.to_bits(),
            mem_mlp.to_bits(),
            u64::from(*warp_size),
            u64::from(*max_threads_per_sm),
            u64::from(*max_blocks_per_sm),
            u64::from(*regs_per_sm),
            u64::from(*max_regs_per_thread),
            u64::from(*smem_per_sm),
            u64::from(*smem_per_block_max),
            u64::from(*max_threads_per_block),
            u64::from(*smem_banks),
            u64::from(*supports_8byte_banks),
            launch_overhead.to_bits(),
            warps_to_saturate_alu.to_bits(),
            block_overhead_cycles.to_bits(),
        ])
    }
}

/// Canonical identity of one `simulate` invocation, borrowing the kernel
/// spec: building one allocates nothing, and [`insert`] copies the spec
/// only when a miss stores its report.
pub struct SimKey<'a> {
    hash: u64,
    device: DeviceKey,
    kernel: &'a dyn CacheKey,
    max_sampled_blocks: u64,
    l2_enabled: bool,
}

impl<'a> SimKey<'a> {
    /// Build the key for `(device, kernel, opts)`. `kernel` is the spec's
    /// [`cache_key`](crate::KernelSpec::cache_key).
    pub fn new(device: &DeviceConfig, kernel: &'a dyn CacheKey, opts: &SimOptions) -> SimKey<'a> {
        let device = DeviceKey::new(device);
        let mut h = KeyHasher::default();
        device.hash(&mut h);
        kernel.key_hash(&mut h);
        h.write_u64(opts.max_sampled_blocks);
        h.write_u8(u8::from(opts.l2_enabled));
        SimKey {
            hash: h.finish(),
            device,
            kernel,
            max_sampled_blocks: opts.max_sampled_blocks,
            l2_enabled: opts.l2_enabled,
        }
    }

    fn shard(&self) -> usize {
        // Bits the shard maps leave to their own slot choice (low bits)
        // and tags (top bits) alone.
        (self.hash >> 32) as usize % SHARDS
    }
}

impl PartialEq for SimKey<'_> {
    fn eq(&self, other: &SimKey<'_>) -> bool {
        self.hash == other.hash
            && self.device == other.device
            && self.max_sampled_blocks == other.max_sampled_blocks
            && self.l2_enabled == other.l2_enabled
            && self.kernel.key_eq(other.kernel)
    }
}

/// A resident entry's full key (the owned counterpart of a [`SimKey`]).
struct StoredKey {
    device: DeviceKey,
    kernel: Box<dyn CacheKey>,
    max_sampled_blocks: u64,
    l2_enabled: bool,
}

impl StoredKey {
    fn of(key: &SimKey<'_>) -> StoredKey {
        StoredKey {
            device: key.device,
            kernel: key.kernel.to_boxed(),
            max_sampled_blocks: key.max_sampled_blocks,
            l2_enabled: key.l2_enabled,
        }
    }

    fn matches(&self, key: &SimKey<'_>) -> bool {
        self.device == key.device
            && self.max_sampled_blocks == key.max_sampled_blocks
            && self.l2_enabled == key.l2_enabled
            && self.kernel.key_eq(key.kernel)
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
    key: StoredKey,
    value: Arc<CachedSim>,
    /// Logical-clock stamp of the last touch (read under the shard's
    /// *read* lock, so hits never serialize on the write lock).
    last_used: AtomicU64,
}

/// The shard maps' hasher: their keys are already [`KeyHasher`] hashes,
/// so it passes the `u64` through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard maps are keyed by u64 hashes only");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Shard = HashMap<u64, Entry, BuildHasherDefault<PassThrough>>;

struct Store {
    shards: Vec<RwLock<Shard>>,
    clock: AtomicU64,
    per_shard_cap: usize,
}

impl Store {
    fn with_capacity(capacity: usize) -> Store {
        Store {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
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

fn lookup_in(store: &Store, key: &SimKey<'_>) -> Option<Arc<CachedSim>> {
    let shard = store.shards[key.shard()].read().expect("sim cache poisoned");
    shard.get(&key.hash).filter(|e| e.key.matches(key)).map(|e| {
        e.last_used.store(store.clock.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Arc::clone(&e.value)
    })
}

/// Insert into `store`, evicting the shard's least-recently-used entry when
/// the shard is at capacity (or the resident entry of a different key with
/// the same hash). Returns the number of evictions (0 or 1).
fn insert_in(store: &Store, key: &SimKey<'_>, value: CachedSim) -> u64 {
    let mut shard = store.shards[key.shard()].write().expect("sim cache poisoned");
    let evicted = match shard.get(&key.hash) {
        Some(resident) => u64::from(!resident.key.matches(key)),
        None if shard.len() >= store.per_shard_cap => {
            // O(shard) scan: shards stay small (cap/16), and eviction is
            // the rare path — a heap or linked order would cost more on
            // every hit.
            let victim = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(&h, _)| h);
            victim.and_then(|h| shard.remove(&h)).map_or(0, |_| 1)
        }
        None => 0,
    };
    let stamp = store.clock.fetch_add(1, Ordering::Relaxed);
    let entry =
        Entry { key: StoredKey::of(key), value: Arc::new(value), last_used: AtomicU64::new(stamp) };
    shard.insert(key.hash, entry);
    evicted
}

/// Look `key` up, counting a hit or miss. A hit refreshes the entry's
/// LRU stamp.
pub fn lookup(key: &SimKey<'_>) -> Option<Arc<CachedSim>> {
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
pub fn insert(key: &SimKey<'_>, value: CachedSim) {
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
        let (a, b) = ("A".to_string(), "B".to_string());
        let k1 = SimKey::new(&d, &a, &base);
        assert!(k1 != SimKey::new(&d, &b, &base));
        let no_l2 = SimOptions { l2_enabled: false, ..base };
        assert!(k1 != SimKey::new(&d, &a, &no_l2));
        let more = SimOptions { max_sampled_blocks: 48, ..base };
        assert!(k1 != SimKey::new(&d, &a, &more));
        let dx = DeviceConfig::titan_x();
        assert!(k1 != SimKey::new(&dx, &a, &base));
        // use_cache is *not* part of the key: it cannot change the report.
        let cold = SimOptions { use_cache: false, ..base };
        assert!(k1 == SimKey::new(&d, &a, &cold));
    }

    #[test]
    fn derived_key_includes_type_and_fields() {
        // A spec keyed by its derived `Eq`/`Hash`: every field counts,
        // and so does the type.
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct Probe {
            n: u64,
        }
        #[derive(Clone, PartialEq, Eq, Hash)]
        struct Twin {
            n: u64,
        }
        let (seven, eight) = (Probe { n: 7 }, Probe { n: 8 });
        assert!(seven.key_eq(&Probe { n: 7 }));
        assert!(!seven.key_eq(&eight), "the field is part of the key");
        assert!(!seven.key_eq(&Twin { n: 7 }), "the type is part of the key");
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        assert!(SimKey::new(&d, &seven, &opts) != SimKey::new(&d, &Twin { n: 7 }, &opts));
        assert!(SimKey::new(&d, &7u32, &opts) != SimKey::new(&d, &7u64, &opts));
    }

    #[test]
    fn every_numeric_device_field_is_keyed_and_the_name_is_not() {
        let base = DeviceConfig::titan_black();
        let key = DeviceKey::new(&base);
        assert_eq!(key, DeviceKey::new(&base.clone().with_name("renamed")));
        // One edit per numeric field; each must move the key.
        let edits: [fn(&mut DeviceConfig); 24] = [
            |d| d.sms += 1,
            |d| d.cores_per_sm += 1,
            |d| d.clock_hz *= 1.5,
            |d| d.peak_flops *= 1.5,
            |d| d.dram_bw *= 1.5,
            |d| d.l2_bw *= 1.5,
            |d| d.device_mem += 1,
            |d| d.l2_size += 1,
            |d| d.l2_assoc += 1,
            |d| d.mem_latency *= 1.5,
            |d| d.mem_mlp *= 1.5,
            |d| d.warp_size += 1,
            |d| d.max_threads_per_sm += 1,
            |d| d.max_blocks_per_sm += 1,
            |d| d.regs_per_sm += 1,
            |d| d.max_regs_per_thread += 1,
            |d| d.smem_per_sm += 1,
            |d| d.smem_per_block_max += 1,
            |d| d.max_threads_per_block += 1,
            |d| d.smem_banks += 1,
            |d| d.supports_8byte_banks = !d.supports_8byte_banks,
            |d| d.launch_overhead *= 1.5,
            |d| d.warps_to_saturate_alu *= 1.5,
            |d| d.block_overhead_cycles *= 1.5,
        ];
        let mut keys = vec![key];
        for (i, edit) in edits.iter().enumerate() {
            let mut d = base.clone();
            edit(&mut d);
            let k = DeviceKey::new(&d);
            assert!(!keys.contains(&k), "edit {i} left the key unchanged or collided");
            keys.push(k);
        }
        // Floats are keyed by bit pattern: -0.0 and 0.0 differ, as their
        // Debug renderings do.
        let mut neg = base.clone();
        neg.launch_overhead = -0.0;
        let mut pos = base;
        pos.launch_overhead = 0.0;
        assert_ne!(DeviceKey::new(&neg), DeviceKey::new(&pos));
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let d = DeviceConfig::titan_black();
        let spec = "simcache-test-roundtrip".to_string();
        let key = SimKey::new(&d, &spec, &SimOptions::default());
        assert!(lookup(&key).is_none());
        insert(
            &key,
            CachedSim { report: dummy_report("rt", 1e-6), smem_passes: 3.0, smem_bytes: 96.0 },
        );
        let hit = lookup(&key).expect("inserted entry is retrievable");
        assert_eq!(hit.report.name, "rt");
        assert_eq!(hit.smem_passes, 3.0);
        assert!(len() >= 1);
        // A copy of the spec built afresh finds the same entry.
        let again = "simcache-test-roundtrip".to_string();
        assert!(lookup(&SimKey::new(&d, &again, &SimOptions::default())).is_some());
    }

    #[test]
    fn a_hash_collision_is_a_miss_and_displaces_the_resident() {
        let store = Store::with_capacity(DEFAULT_CAPACITY);
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        let (a, b) = ("collide-a".to_string(), "collide-b".to_string());
        let ka = SimKey::new(&d, &a, &opts);
        // A forged key for another spec that carries `ka`'s hash.
        let kb = SimKey { hash: ka.hash, ..SimKey::new(&d, &b, &opts) };
        let sim =
            || CachedSim { report: dummy_report("x", 1e-6), smem_passes: 0.0, smem_bytes: 0.0 };
        assert_eq!(insert_in(&store, &ka, sim()), 0);
        assert!(lookup_in(&store, &kb).is_none(), "same hash, different key: a miss");
        assert_eq!(insert_in(&store, &kb, sim()), 1, "the resident is displaced");
        assert!(lookup_in(&store, &ka).is_none());
        assert!(lookup_in(&store, &kb).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_at_capacity() {
        // A private store with one entry per shard: inserting two keys that
        // hash to the same shard must evict the less recently used one.
        let store = Store::with_capacity(SHARDS); // per-shard cap = 1
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        let specs: Vec<String> = (0..64).map(|i| format!("lru-{i}")).collect();
        let key = |i: usize| SimKey::new(&d, &specs[i], &opts);
        let sim = |i: usize| CachedSim {
            report: dummy_report(&format!("lru-{i}"), 1e-6),
            smem_passes: 0.0,
            smem_bytes: 0.0,
        };
        // Find two distinct keys in the same shard.
        let k0 = key(0);
        let k1 = (1..64).map(key).find(|k| k.shard() == k0.shard()).unwrap();
        assert_eq!(insert_in(&store, &k0, sim(0)), 0);
        // Touch k0, then overflow the shard: the newcomer always stays;
        // the victim is the stale resident.
        assert!(lookup_in(&store, &k0).is_some());
        assert_eq!(insert_in(&store, &k1, sim(1)), 1);
        assert!(lookup_in(&store, &k0).is_none(), "resident k0 was the LRU victim");
        assert!(lookup_in(&store, &k1).is_some(), "newcomer survives");
        // Re-inserting an existing key is an update, not an eviction.
        assert_eq!(insert_in(&store, &k1, sim(1)), 0);
    }

    #[test]
    fn lru_victim_is_least_recently_used_not_oldest_inserted() {
        let store = Store::with_capacity(2 * SHARDS); // per-shard cap = 2
        let d = DeviceConfig::titan_black();
        let opts = SimOptions::default();
        let specs: Vec<String> = (0..256).map(|i| format!("lru2-{i}")).collect();
        let key = |i: usize| SimKey::new(&d, &specs[i], &opts);
        let k0 = key(0);
        let mut same_shard = (1..256).map(key).filter(|k| k.shard() == k0.shard());
        let k1 = same_shard.next().unwrap();
        let k2 = same_shard.next().unwrap();
        let sim =
            || CachedSim { report: dummy_report("x", 1e-6), smem_passes: 0.0, smem_bytes: 0.0 };
        insert_in(&store, &k0, sim());
        insert_in(&store, &k1, sim());
        // Refresh the *older* entry: the victim must now be k1.
        assert!(lookup_in(&store, &k0).is_some());
        assert_eq!(insert_in(&store, &k2, sim()), 1);
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
    fn key_hasher_packs_bytes_and_separates_lengths() {
        let hash = |v: &dyn CacheKey| {
            let mut h = KeyHasher::default();
            v.key_hash(&mut h);
            h.finish()
        };
        let strings = ["", "a", "ab", "abcdefgh", "abcdefghi", "abcdefgh\0"];
        let hashes: Vec<u64> = strings.iter().map(|s| hash(&s.to_string())).collect();
        for (i, a) in hashes.iter().enumerate() {
            assert!(!hashes[i + 1..].contains(a), "{:?} collides", strings[i]);
        }
        assert_eq!(hash(&"ab".to_string()), hash(&"ab".to_string()));
    }
}
