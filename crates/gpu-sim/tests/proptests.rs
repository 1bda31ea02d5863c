//! Property-based tests for the simulator's building blocks.

use memcnn_gpusim::cache::Cache;
use memcnn_gpusim::coalesce;
use memcnn_gpusim::device::{BankMode, DeviceConfig};
use memcnn_gpusim::occupancy::occupancy;
use memcnn_gpusim::{banks, BlockTrace, LaunchConfig};
use proptest::prelude::*;

fn lane_addrs() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..100_000, 1..=32)
}

/// Reference implementations: the simulator's recording and cache code
/// before its fast paths (monotone coalescing, run-based warp accesses,
/// the move-to-front L2, fixed-array bank counting). Each fast path must
/// match its reference exactly.
mod reference {
    use memcnn_gpusim::coalesce::sector_of;
    use memcnn_gpusim::device::BankMode;

    /// Coalescing with a linear `contains` dedup over every lane.
    pub fn coalesce(addrs: &[u64], bytes_per_lane: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for &a in addrs {
            for s in sector_of(a)..=sector_of(a + bytes_per_lane - 1) {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Set-associative LRU with an age stamp per way: misses fill the
    /// first invalid way, else the oldest.
    pub struct AgeLru {
        sets: usize,
        assoc: usize,
        tags: Vec<u64>,
        ages: Vec<u64>,
        tick: u64,
    }

    impl AgeLru {
        pub fn new(size_bytes: u64, assoc: u32, sector_bytes: u64) -> AgeLru {
            let sectors = (size_bytes / sector_bytes).max(1) as usize;
            let assoc = (assoc as usize).clamp(1, sectors);
            let sets = (sectors / assoc).max(1);
            AgeLru {
                sets,
                assoc,
                tags: vec![u64::MAX; sets * assoc],
                ages: vec![0; sets * assoc],
                tick: 0,
            }
        }

        pub fn access(&mut self, sector: u64) -> bool {
            self.tick += 1;
            let base = (sector as usize) % self.sets * self.assoc;
            let ways = &self.tags[base..base + self.assoc];
            if let Some(way) = ways.iter().position(|&t| t == sector) {
                self.ages[base + way] = self.tick;
                return true;
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.assoc {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.ages[base + w] < oldest {
                    oldest = self.ages[base + w];
                    victim = w;
                }
            }
            self.tags[base + victim] = sector;
            self.ages[base + victim] = self.tick;
            false
        }
    }

    /// Bank-conflict passes with one word list per bank.
    pub fn passes(byte_addrs: &[u64], bytes_per_lane: u64, mode: BankMode, banks: u32) -> u32 {
        if byte_addrs.is_empty() {
            return 0;
        }
        let bank_bytes = mode.bytes();
        let banks = banks as u64;
        let group_lanes = ((banks * bank_bytes) / bytes_per_lane.max(1)).max(1) as usize;
        let words_per_lane = bytes_per_lane.div_ceil(bank_bytes);
        let mut total = 0u32;
        for group in byte_addrs.chunks(group_lanes) {
            let mut per_bank_words: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
            for &a in group {
                for k in 0..words_per_lane {
                    let word = a / bank_bytes + k;
                    let bank = (word % banks) as usize;
                    if !per_bank_words[bank].contains(&word) {
                        per_bank_words[bank].push(word);
                    }
                }
            }
            let worst = per_bank_words.iter().map(|w| w.len()).max().unwrap_or(0);
            total += worst.max(1) as u32;
        }
        total
    }
}

/// SplitMix64 stream for building structured cases from one sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle(&mut self, v: &mut [u64]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A warp's lane addresses: non-decreasing with small steps that straddle
/// sector boundaries, optionally shuffled or with one lane moved back.
fn warp_lanes(mix: &mut Mix, lanes: usize, width: u64, shape: u64) -> Vec<u64> {
    // Start a few bytes before a sector boundary so lanes straddle it.
    let mut a = 32 * (1 + mix.below(1000)) - mix.below(width + 1);
    let mut addrs = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        addrs.push(a);
        a += match mix.below(4) {
            0 => 0,
            1 => width,
            2 => mix.below(3 * width),
            _ => mix.below(200),
        };
    }
    match shape {
        0 => {}
        1 => mix.shuffle(&mut addrs),
        _ => {
            let i = mix.below(lanes as u64) as usize;
            addrs[i] = addrs[i].saturating_sub(mix.below(256));
        }
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The coalescer's monotone fast path and its fallback equal the
    /// `contains` dedup: same sectors in the same order, for monotone,
    /// shuffled and one-lane-out-of-order warps whose lanes straddle
    /// sectors, at widths 4, 8 and 16.
    #[test]
    fn coalesce_matches_contains_dedup(
        seed in any::<u64>(),
        lanes in 1usize..=32,
        width_pow in 2u32..=4,
        shape in 0u64..3,
    ) {
        let mut mix = Mix(seed);
        let width = 1 << width_pow;
        let addrs = warp_lanes(&mut mix, lanes, width, shape);
        let mut got = Vec::new();
        coalesce::coalesce(&addrs, width, &mut got);
        prop_assert_eq!(got, reference::coalesce(&addrs, width), "lanes {:?} width {}", addrs, width);
    }

    /// `global_runs` records exactly what the expanded per-lane
    /// `global_load` / `global_store` records: the same sector stream and
    /// the same counters, over a block of mixed loads and stores.
    #[test]
    fn global_runs_match_expanded_lanes(
        seed in any::<u64>(),
        accesses in 1usize..8,
        width_pow in 2u32..=4,
    ) {
        let mut mix = Mix(seed);
        let width = 1 << width_pow;
        let mut runs_trace = BlockTrace::new(BankMode::FourByte, 32);
        let mut lanes_trace = BlockTrace::new(BankMode::FourByte, 32);
        for _ in 0..accesses {
            let store = mix.below(2) == 1;
            // Up to four runs, each starting at or after the previous
            // run's last lane (gaps of zero repeat that lane's address).
            let mut runs = Vec::new();
            let (mut next, mut left) = (mix.below(4096), 32);
            for _ in 0..1 + mix.below(4) {
                let n = mix.below(left + 1).min(1 + mix.below(16));
                runs.push((next, n));
                left -= n;
                next += n.saturating_sub(1) * width + mix.below(3 * width + 64);
            }
            let addrs: Vec<u64> = runs
                .iter()
                .flat_map(|&(a, n)| (0..n).map(move |i| a + i * width))
                .collect();
            runs_trace.global_runs(&runs, width, store);
            if store {
                lanes_trace.global_store(&addrs, width);
            } else {
                lanes_trace.global_load(&addrs, width);
            }
            prop_assert_eq!(&runs_trace, &lanes_trace, "runs {:?} width {}", runs, width);
        }
        prop_assert_eq!(runs_trace.total_sectors(), lanes_trace.total_sectors());
    }

    /// The move-to-front cache hits and misses exactly where an
    /// age-stamped LRU does, over random streams and geometries: one set,
    /// one way and odd set counts, and the devices' own shape (16 ways,
    /// thousands of sets, mostly not powers of two) over long streams.
    #[test]
    fn move_to_front_cache_matches_age_stamped_lru(
        seed in any::<u64>(),
        tiny in prop::bool::ANY,
        sets in 1u64..=6144,
        assoc in 1u32..=24,
        len in 1usize..20_000,
    ) {
        let mut mix = Mix(seed);
        // Half the cases keep to at most nine sets, and draws above 17
        // ways (7 of 24) fold to the devices' 16.
        let sets = if tiny { sets % 9 + 1 } else { sets };
        let assoc = if assoc > 17 { 16 } else { assoc };
        let size = sets * u64::from(assoc) * 32;
        let mut fast = Cache::new(size, assoc, 32);
        let mut lru = reference::AgeLru::new(size, assoc, 32);
        // A footprint around the capacity, so streams both hit and evict,
        // and a few hot sets given more tags than they have ways, so a
        // large cache evicts too.
        let span = 1 + sets * u64::from(assoc) * (1 + mix.below(3));
        let hot = 1 + mix.below(sets.min(32));
        let depth = 1 + mix.below(2 * u64::from(assoc) + 2);
        for i in 0..len {
            let sector = match mix.below(4) {
                // Anywhere in the 31-bit sector range a stream holds.
                0 => mix.next() >> 33,
                1 => mix.below(hot) + sets * mix.below(depth),
                _ => mix.below(span),
            };
            prop_assert_eq!(fast.access(sector as u32), lru.access(sector), "access {} sector {}", i, sector);
        }
    }

    /// Fixed-array bank counting equals one word list per bank, in both
    /// bank modes at widths 4 and 8; single-byte lanes over more than 64
    /// words and a 128-bank device take the wide path.
    #[test]
    fn bank_passes_match_per_bank_lists(
        seed in any::<u64>(),
        lanes in 1usize..=32,
        wide in prop::bool::ANY,
        spread in 1u64..4096,
    ) {
        let mut mix = Mix(seed);
        let addrs: Vec<u64> = (0..lanes).map(|_| mix.below(spread)).collect();
        let width = if wide { 8 } else { 4 };
        for mode in [BankMode::FourByte, BankMode::EightByte] {
            for banks in [16, 32, 128] {
                prop_assert_eq!(
                    banks::passes(&addrs, width, mode, banks),
                    reference::passes(&addrs, width, mode, banks),
                    "lanes {:?} width {} {:?} banks {}", addrs, width, mode, banks
                );
            }
        }
        let bytes: Vec<u64> = (0..lanes * 4).map(|_| mix.below(spread)).collect();
        prop_assert_eq!(
            banks::passes(&bytes, 1, BankMode::FourByte, 32),
            reference::passes(&bytes, 1, BankMode::FourByte, 32)
        );
    }

}

proptest! {
    /// A warp access touches at least one sector and no more than
    /// lanes x spanned sectors; transaction count is invariant under
    /// address-order permutation.
    #[test]
    fn coalescer_bounds_and_order_invariance(addrs in lane_addrs(), width in 1u64..=16) {
        let n = coalesce::transaction_count(&addrs, width);
        prop_assert!(n >= 1);
        let max_per_lane = (width as usize).div_ceil(32) + 1;
        prop_assert!(n <= addrs.len() * max_per_lane);
        let mut rev = addrs.clone();
        rev.reverse();
        prop_assert_eq!(coalesce::transaction_count(&rev, width), n);
    }

    /// Coalescing efficiency never exceeds 1 for aligned pow2 widths and
    /// duplicates never increase the transaction count.
    #[test]
    fn coalescer_efficiency_bounds(addrs in lane_addrs()) {
        let eff = coalesce::efficiency(&addrs, 4);
        prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-9);
        let mut dup = addrs.clone();
        dup.extend(addrs.iter().copied().take(32 - addrs.len().min(31)));
        let a = coalesce::transaction_count(&addrs, 4);
        let b = coalesce::transaction_count(&dup[..addrs.len()], 4);
        prop_assert_eq!(a, b);
    }

    /// Bank conflict passes are within [ceil(width/bank), 32 x phases] and
    /// broadcast (all equal) is always minimal.
    #[test]
    fn bank_passes_bounds(addrs in lane_addrs(), wide in prop::bool::ANY) {
        let width = if wide { 8 } else { 4 };
        for mode in [BankMode::FourByte, BankMode::EightByte] {
            let p = banks::passes(&addrs, width, mode, 32);
            prop_assert!(p >= 1, "passes {p} below min");
            prop_assert!(p <= 64, "passes {p} above max");
        }
        let broadcast = vec![addrs[0]; addrs.len()];
        let pb = banks::passes(&broadcast, 4, BankMode::FourByte, 32);
        prop_assert!(pb <= banks::passes(&addrs, 4, BankMode::FourByte, 32).max(1));
    }

    /// Cache sanity: hits + misses == accesses; a repeated single-sector
    /// stream has exactly one miss; hit rate is within [0, 1].
    #[test]
    fn cache_accounting(sectors in proptest::collection::vec(0u32..512, 1..200)) {
        let mut c = Cache::new(16 * 1024, 8, 32);
        for &s in &sectors {
            c.access(s);
        }
        prop_assert_eq!(c.accesses(), sectors.len() as u64);
        prop_assert_eq!(c.hits() + c.misses(), c.accesses());
        let rate = c.hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        // Unique sectors lower-bound the misses for an LRU cache larger
        // than the stream's footprint.
        let unique: std::collections::HashSet<_> = sectors.iter().collect();
        if unique.len() <= c.capacity_sectors() {
            prop_assert_eq!(c.misses(), unique.len() as u64);
        } else {
            prop_assert!(c.misses() >= unique.len() as u64);
        }
    }

    /// Occupancy is monotone: more registers or shared memory per block
    /// never increases resident blocks.
    #[test]
    fn occupancy_monotonicity(
        threads_pow in 5u32..=10,
        regs in 8u32..64,
        smem in 0u32..24_000,
    ) {
        let d = DeviceConfig::titan_black();
        let mk = |regs, smem| LaunchConfig {
            grid_blocks: 10_000,
            threads_per_block: 1 << threads_pow,
            regs_per_thread: regs,
            smem_per_block: smem,
            bank_mode: BankMode::FourByte,
        };
        let blocks = |l| occupancy(&d, &l).map(|o| o.blocks_per_sm).unwrap_or(0);
        let base = match occupancy(&d, &mk(regs, smem)) {
            Ok(o) => o,
            Err(_) => return Ok(()), // base config itself unlaunchable
        };
        prop_assert!(blocks(mk(regs * 2, smem)) <= base.blocks_per_sm);
        prop_assert!(blocks(mk(regs, smem + 8_192)) <= base.blocks_per_sm);
        // Residency never exceeds architectural caps.
        prop_assert!(base.warps_per_sm * d.warp_size <= d.max_threads_per_sm);
        prop_assert!(base.blocks_per_sm <= d.max_blocks_per_sm);
    }
}
