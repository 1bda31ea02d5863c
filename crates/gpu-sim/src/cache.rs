//! Set-associative LRU cache model (used for the L2).
//!
//! The model works at sector (32 B) granularity — Kepler's L2 is sectored,
//! and modelling whole 128 B lines would overstate the cost of the strided
//! accesses this reproduction cares about. Each set keeps its ways in
//! recency order (way 0 most recent, invalid ways last), so LRU needs no
//! ages: a hit moves its way to the front, a miss drops the last way and
//! fills the front. The hit/miss sequence is that of any exact LRU. Sets
//! are found by the sector index modulo the set count, computed by a
//! multiply-shift instead of a division.
//!
//! Sectors are 31-bit (below [`SECTOR_LIMIT`], the range a recorded
//! stream holds), so tags are `u32` and `u32::MAX`
//! can mark an invalid way. The tag array starts on a 64-byte host cache
//! line, so at the devices' 16 ways each set is exactly one line.

use crate::kernel::SECTOR_LIMIT;

/// Ways compared per step of a set search: one 64-byte host line of tags.
const LINE_WAYS: usize = 16;

/// Tag of an invalid way; no sector below the limit takes it.
const INVALID: u32 = u32::MAX;

/// A set-associative, LRU, sector-granular cache.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: FastMod,
    assoc: usize,
    /// Index in `tags` of set 0's way 0, the first 64-byte-aligned entry.
    base: usize,
    /// tags[base + set * assoc + way], most recent way first.
    tags: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `assoc` ways and `sector_bytes`
    /// granularity. Sizes that do not divide evenly are rounded down to a
    /// whole number of sets (minimum one set).
    pub fn new(size_bytes: u64, assoc: u32, sector_bytes: u64) -> Cache {
        let (sets, assoc) = geometry(size_bytes, assoc, sector_bytes);
        // Room to start set 0 on a 64-byte line wherever the allocator
        // puts the vector, which never grows. (A clone keeps `base`: still
        // correct, though perhaps no longer aligned.)
        let tags = vec![INVALID; sets * assoc + LINE_WAYS - 1];
        let base = tags.as_ptr().align_offset(64).min(LINE_WAYS - 1);
        Cache { sets: FastMod::new(sets as u32), assoc, base, tags, hits: 0, misses: 0 }
    }

    /// Access one sector (below `2^31`); returns `true` on hit. Misses
    /// fill the LRU way (an invalid one while the set has any).
    #[inline]
    pub fn access(&mut self, sector: u32) -> bool {
        debug_assert!(u64::from(sector) < SECTOR_LIMIT, "sector {sector} is past the 31-bit range");
        let start = self.base + self.sets.remainder(sector) as usize * self.assoc;
        let ways = &mut self.tags[start..start + self.assoc];
        // Most hits are to the most recent way, which needs no reordering.
        if ways[0] == sector {
            self.hits += 1;
            return true;
        }
        // Rotate the ways right by one from way 0 up to the hit (a hit) or
        // through the whole set (a miss, dropping the LRU way), leaving
        // `sector` in way 0.
        let hit = find(ways, sector);
        let end = hit.unwrap_or(ways.len() - 1);
        ways.copy_within(..end, 1);
        ways[0] = sector;
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit.is_some()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    /// Reset statistics but keep contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Capacity in sectors.
    pub fn capacity_sectors(&self) -> usize {
        self.sets.divisor() as usize * self.assoc
    }
}

/// `(sets, ways)` of a cache of `size_bytes` with `assoc` ways of
/// `sector_bytes`: at least one set of at least one way, and fewer than
/// `2^32` sets.
fn geometry(size_bytes: u64, assoc: u32, sector_bytes: u64) -> (usize, usize) {
    let sectors = (size_bytes / sector_bytes).clamp(1, u64::from(u32::MAX)) as usize;
    let assoc = (assoc as usize).clamp(1, sectors);
    ((sectors / assoc).max(1), assoc)
}

/// The first way of `ways` that holds `sector`. Each line of
/// [`LINE_WAYS`] ways is compared whole into a bitmask, which the
/// compiler turns into a few vector compares instead of a branch per way.
#[inline]
fn find(ways: &[u32], sector: u32) -> Option<usize> {
    ways.chunks(LINE_WAYS).enumerate().find_map(|(line, tags)| {
        let mask = tags.iter().enumerate().fold(0u32, |m, (w, &t)| m | u32::from(t == sector) << w);
        (mask != 0).then(|| line * LINE_WAYS + mask.trailing_zeros() as usize)
    })
}

/// `x % d` for 32-bit `x` and a fixed 32-bit `d > 0`, by Lemire, Kaser
/// and Kurz's direct remainder ("Faster remainder by direct computation",
/// arXiv:1902.01961): with `c = ceil(2^64 / d)`, the low 64 bits of
/// `c * x` are the fraction `x / d - floor(x / d)` scaled by `2^64`, and
/// multiplying that fraction by `d` yields the remainder in the high 64
/// bits. Exact for every 32-bit `x` and `d` (`d = 1` wraps `c` to 0,
/// which yields 0).
#[derive(Clone, Copy, Debug)]
struct FastMod {
    c: u64,
    d: u32,
}

impl FastMod {
    /// Remainders by `d`.
    ///
    /// # Panics
    ///
    /// If `d` is 0.
    fn new(d: u32) -> FastMod {
        assert!(d > 0, "FastMod: divisor must be positive");
        FastMod { c: (u64::MAX / u64::from(d)).wrapping_add(1), d }
    }

    /// `x % d`.
    #[inline]
    fn remainder(self, x: u32) -> u32 {
        let fraction = self.c.wrapping_mul(u64::from(x));
        ((u128::from(fraction) * u128::from(self.d)) >> 64) as u32
    }

    /// The divisor `d`.
    fn divisor(self) -> u32 {
        self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_access_misses_then_hits() {
        let mut c = Cache::new(1024, 4, 32);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = Cache::new(32 * 64, 8, 32); // 64 sectors
        for pass in 0..3 {
            for s in 0..64u32 {
                let hit = c.access(s);
                assert_eq!(hit, pass > 0, "pass {pass} sector {s}");
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_lru() {
        let mut c = Cache::new(32 * 16, 16, 32); // 16 sectors, fully assoc
                                                 // Cyclic sweep of 17 sectors over fully-associative LRU: always miss.
        for _ in 0..4 {
            for s in 0..17u32 {
                c.access(s);
            }
        }
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn set_mapping_isolates_conflicting_sectors() {
        // 2 sets, 1 way: sectors 0 and 2 share set 0 and evict each other;
        // sector 1 in set 1 is untouched.
        let mut c = Cache::new(2 * 32, 1, 32);
        assert!(!c.access(0));
        assert!(!c.access(1));
        assert!(!c.access(2)); // evicts 0
        assert!(c.access(1)); // still resident
        assert!(!c.access(0)); // was evicted
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(1024, 4, 32);
        c.access(3);
        c.reset_stats();
        assert_eq!(c.accesses(), 0);
        assert!(c.access(3), "contents survive a stats reset");
    }

    #[test]
    fn fast_mod_matches_the_remainder_of_every_device_set_count() {
        use crate::device::DeviceConfig;
        // Every set count a launch's L2 takes on either device, at 1..=24
        // sampled blocks of any wave, plus edge divisors.
        let mut divisors = vec![1, 2, 3, 3_072, 6_144, u32::MAX - 1, u32::MAX];
        for k in 1..32 {
            divisors.extend([(1u32 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for d in [DeviceConfig::titan_black(), DeviceConfig::titan_x()] {
            for wave in 1..=u64::from(d.sms * d.max_blocks_per_sm) {
                for sampled in 1..=wave.min(24) {
                    let bytes = crate::launch::sampled_l2_bytes(&d, sampled, wave);
                    let (sets, _) = geometry(bytes, d.l2_assoc, DeviceConfig::SECTOR_BYTES);
                    divisors.push(sets as u32);
                }
            }
        }
        divisors.sort_unstable();
        divisors.dedup();
        let near_limit = (1u32 << 31) - 10_000..(1 << 31) + 10;
        for d in divisors {
            let m = FastMod::new(d);
            for x in (0..100_000).chain(near_limit.clone()).chain([u32::MAX - 1, u32::MAX]) {
                assert_eq!(m.remainder(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    fn sets_start_on_a_host_line() {
        let c = Cache::new(1536 * 1024, 16, 32);
        assert_eq!(c.tags[c.base..].as_ptr() as usize % 64, 0);
        assert_eq!(c.capacity_sectors(), 1536 * 1024 / 32);
    }

    #[test]
    fn degenerate_sizes_still_work() {
        let mut c = Cache::new(0, 16, 32);
        assert_eq!(c.capacity_sectors(), 1);
        assert!(!c.access(1));
        assert!(c.access(1));
    }
}
