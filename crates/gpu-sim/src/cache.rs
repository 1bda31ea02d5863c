//! Set-associative LRU cache model (used for the L2).
//!
//! The model works at sector (32 B) granularity — Kepler's L2 is sectored,
//! and modelling whole 128 B lines would overstate the cost of the strided
//! accesses this reproduction cares about. Each set keeps its ways in
//! recency order (way 0 most recent, invalid ways last), so LRU needs no
//! ages: a hit moves its way to the front, a miss drops the last way and
//! fills the front. The hit/miss sequence is that of any exact LRU. Sets
//! are found by the sector index modulo the set count.

/// A set-associative, LRU, sector-granular cache.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    /// tags[set * assoc + way], most recent way first, u64::MAX = invalid.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `assoc` ways and `sector_bytes`
    /// granularity. Sizes that do not divide evenly are rounded down to a
    /// whole number of sets (minimum one set).
    pub fn new(size_bytes: u64, assoc: u32, sector_bytes: u64) -> Cache {
        let sectors = (size_bytes / sector_bytes).max(1) as usize;
        let assoc = (assoc as usize).clamp(1, sectors);
        let sets = (sectors / assoc).max(1);
        Cache { sets, assoc, tags: vec![u64::MAX; sets * assoc], hits: 0, misses: 0 }
    }

    /// Access one sector; returns `true` on hit. Misses fill the LRU way
    /// (an invalid one while the set has any).
    pub fn access(&mut self, sector: u64) -> bool {
        let set = (sector as usize) % self.sets;
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        // Rotate the ways right by one from way 0 up to the hit (a hit) or
        // through the whole set (a miss, dropping the LRU way), leaving
        // `sector` in way 0.
        let mut carry = sector;
        for way in ways.iter_mut() {
            let tag = std::mem::replace(way, carry);
            if tag == sector {
                self.hits += 1;
                return true;
            }
            carry = tag;
        }
        self.misses += 1;
        false
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
        self.sets * self.assoc
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
            for s in 0..64u64 {
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
            for s in 0..17u64 {
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
    fn degenerate_sizes_still_work() {
        let mut c = Cache::new(0, 16, 32);
        assert_eq!(c.capacity_sectors(), 1);
        assert!(!c.access(1));
        assert!(c.access(1));
    }
}
