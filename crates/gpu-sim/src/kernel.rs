//! Kernel specifications: how kernels describe themselves to the simulator.
//!
//! A [`KernelSpec`] plays the role of compiled CUDA kernel + launch call: it
//! declares a launch configuration, summary bounds, and — the heart of the
//! substitution — can *replay the memory behaviour of any thread block* into
//! a [`BlockTrace`]. The simulator samples blocks, coalesces their warp
//! accesses, runs the sector stream through the L2 model, and scores the
//! launch (see [`crate::launch::simulate`]).

use crate::banks;
use crate::coalesce;
use crate::device::BankMode;
use crate::simcache::CacheKey;

/// Launch configuration of a kernel (grid and per-block resources).
#[derive(Clone, Copy, Debug)]
pub struct LaunchConfig {
    /// Total thread blocks in the grid (flattened).
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread (occupancy input).
    pub regs_per_thread: u32,
    /// Static shared memory per block, bytes.
    pub smem_per_block: u32,
    /// Shared-memory bank mode requested by the kernel.
    pub bank_mode: BankMode,
}

/// Analytic bounds a kernel knows about itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkSummary {
    /// Compulsory DRAM read traffic: the unique bytes the kernel must load
    /// at least once. Used as a floor under the sampled-L2 estimate.
    pub min_dram_load_bytes: f64,
    /// Compulsory DRAM write traffic.
    pub min_dram_store_bytes: f64,
    /// Device-memory footprint of all buffers (OOM checks).
    pub footprint_bytes: u64,
    /// Instruction-level parallelism hint: independent in-flight operations
    /// per thread (e.g. `imgsPerThread x filtersPerThread` register tiles in
    /// cuda-convnet's direct convolution). Feeds the ALU-efficiency and
    /// latency-hiding terms.
    pub ilp: f64,
    /// Sustained-fraction-of-peak ceiling for the FP pipeline (1.0 = no
    /// cap). Encodes measured per-kernel-family code-generation quality
    /// that the occupancy model cannot see — e.g. cuDNN v4's
    /// matrix-multiply convolution sustained ~28-30% of Kepler's FMA peak
    /// (the paper's Fig 4 plateau), far below what a perfectly scheduled
    /// inner loop would reach.
    pub alu_cap: f64,
}

impl WorkSummary {
    /// A summary with the given floors, ILP 1.0 and no ALU cap.
    pub fn new(min_load: f64, min_store: f64, footprint: u64) -> WorkSummary {
        WorkSummary {
            min_dram_load_bytes: min_load,
            min_dram_store_bytes: min_store,
            footprint_bytes: footprint,
            ilp: 1.0,
            alu_cap: 1.0,
        }
    }

    /// Builder-style ILP override.
    pub fn with_ilp(mut self, ilp: f64) -> WorkSummary {
        self.ilp = ilp;
        self
    }

    /// Builder-style ALU sustained-fraction cap.
    pub fn with_alu_cap(mut self, cap: f64) -> WorkSummary {
        self.alu_cap = cap;
        self
    }
}

/// A GPU kernel, described behaviourally.
pub trait KernelSpec: Sync {
    /// Kernel name for reports.
    fn name(&self) -> String;
    /// Launch configuration.
    fn launch(&self) -> LaunchConfig;
    /// Analytic bounds.
    fn work(&self) -> WorkSummary;
    /// Replay the memory/compute behaviour of `block` (0-based flat id)
    /// into `trace`. Must be deterministic.
    fn trace_block(&self, block: u64, trace: &mut BlockTrace);
    /// Canonical identity of this kernel for simulation memoization: two
    /// specs with equal keys must trace identically on every block.
    ///
    /// `None` (the default) opts the kernel out of the cache — the safe
    /// choice for specs whose trace depends on state their value cannot
    /// show. Specs that are pure functions of their fields (every spec in
    /// `memcnn-kernels` is) derive `Clone, PartialEq, Eq, Hash` and return
    /// `Some(self)`: the spec value itself is the key
    /// ([`CacheKey`](crate::simcache::CacheKey)), compared field by field,
    /// so a cache hit renders no text. A float field needs a hand-written
    /// `Eq`/`Hash` over its `to_bits`.
    fn cache_key(&self) -> Option<&dyn CacheKey> {
        None
    }
}

/// Per-block trace accumulator handed to [`KernelSpec::trace_block`].
///
/// Global accesses are coalesced *as they are recorded* into 32 B sectors;
/// the resulting sector stream is kept (in order) for the L2 model, while
/// shared-memory accesses are folded immediately into pass counts under the
/// launch's bank mode. A warp access is given either lane by lane
/// ([`global_load`](Self::global_load), [`global_store`](Self::global_store))
/// or, when its lanes form unit-stride runs in address order, as those runs
/// ([`global_runs`](Self::global_runs)); both record the same sectors and
/// counters.
#[derive(Debug)]
pub struct BlockTrace {
    bank_mode: BankMode,
    banks: u32,
    /// Ordered sector stream for the cache model, each entry a sector and
    /// its store flag packed into one 32-bit word (see [`pack`] and
    /// [`unpack`]).
    pub(crate) sectors: Vec<u32>,
    /// OR of every sector recorded: it reaches [`SECTOR_LIMIT`] once any
    /// sector does (see [`out_of_range`](Self::out_of_range)).
    high_bits: u64,
    /// Scratch for the coalescer.
    scratch: Vec<u64>,
    /// Warp-level global memory instructions issued.
    pub(crate) mem_instrs: u64,
    /// Global sectors from loads.
    pub(crate) load_sectors: u64,
    /// Global sectors from stores.
    pub(crate) store_sectors: u64,
    /// Bytes the lanes actually requested (loads).
    pub(crate) requested_load_bytes: u64,
    /// Bytes the lanes actually requested (stores).
    pub(crate) requested_store_bytes: u64,
    /// Shared-memory passes (bank-conflict adjusted cycles).
    pub(crate) smem_passes: u64,
    /// Shared-memory bytes requested.
    pub(crate) smem_bytes: u64,
    /// Floating-point operations executed by the block.
    pub(crate) flops: u64,
    /// Non-memory, non-FP warp instructions (index math, control).
    pub(crate) aux_warp_instrs: u64,
    /// `__syncthreads()` count.
    pub(crate) syncs: u64,
}

impl BlockTrace {
    /// New empty trace under a bank mode.
    pub fn new(bank_mode: BankMode, banks: u32) -> BlockTrace {
        BlockTrace::with_buffer(bank_mode, banks, Vec::new())
    }

    /// New empty trace that records its sector stream into `buffer`
    /// (cleared first), so a launch can reuse the capacity of an earlier
    /// one's streams.
    pub(crate) fn with_buffer(bank_mode: BankMode, banks: u32, mut buffer: Vec<u32>) -> BlockTrace {
        buffer.clear();
        BlockTrace {
            bank_mode,
            banks,
            sectors: buffer,
            high_bits: 0,
            scratch: Vec::new(),
            mem_instrs: 0,
            load_sectors: 0,
            store_sectors: 0,
            requested_load_bytes: 0,
            requested_store_bytes: 0,
            smem_passes: 0,
            smem_bytes: 0,
            flops: 0,
            aux_warp_instrs: 0,
            syncs: 0,
        }
    }

    fn global(&mut self, addrs: &[u64], bytes_per_lane: u64, store: bool) {
        if addrs.is_empty() {
            return;
        }
        debug_assert!(addrs.len() <= 32, "a warp access has at most 32 lanes");
        coalesce::coalesce(addrs, bytes_per_lane, &mut self.scratch);
        let flag = u32::from(store);
        self.high_bits |= self.scratch.iter().fold(0, |bits, &s| bits | s);
        self.sectors.extend(self.scratch.iter().map(|&s| pack(s, flag)));
        self.tally(self.scratch.len() as u64, addrs.len() as u64 * bytes_per_lane, store);
    }

    /// Count one warp access of `sectors` sectors and `requested` bytes.
    fn tally(&mut self, sectors: u64, requested: u64, store: bool) {
        self.mem_instrs += 1;
        if store {
            self.store_sectors += sectors;
            self.requested_store_bytes += requested;
        } else {
            self.load_sectors += sectors;
            self.requested_load_bytes += requested;
        }
    }

    /// One warp global load of `bytes_per_lane` bytes per lane.
    pub fn global_load(&mut self, addrs: &[u64], bytes_per_lane: u64) {
        self.global(addrs, bytes_per_lane, false);
    }

    /// One warp global store of `bytes_per_lane` bytes per lane.
    pub fn global_store(&mut self, addrs: &[u64], bytes_per_lane: u64) {
        self.global(addrs, bytes_per_lane, true);
    }

    /// One warp global access whose lanes form unit-stride runs: each
    /// `(addr, lanes)` stands for `lanes` lanes at `addr`,
    /// `addr + bytes_per_lane`, ..., and the runs come in non-decreasing
    /// lane-address order. Records exactly what
    /// [`global_load`](Self::global_load) (or
    /// [`global_store`](Self::global_store), if `store`) records for the
    /// expanded lane addresses, without expanding them: a run covers the
    /// bytes `addr..addr + lanes * bytes_per_lane`, so its sectors are one
    /// range, less any at or below the last sector pushed.
    pub fn global_runs(&mut self, runs: &[(u64, u64)], bytes_per_lane: u64, store: bool) {
        let lanes: u64 = runs.iter().map(|&(_, n)| n).sum();
        if lanes == 0 {
            return;
        }
        debug_assert!(lanes <= 32, "a warp access has at most 32 lanes");
        let flag = u32::from(store);
        let before = self.sectors.len();
        // Lowest sector this access has not pushed yet, and the lowest
        // address the next run may start at.
        let (mut next, mut min_addr) = (0, 0);
        for &(addr, n) in runs.iter().filter(|&&(_, n)| n > 0) {
            debug_assert!(addr >= min_addr, "runs must come in non-decreasing address order");
            let end = addr + n * bytes_per_lane;
            let last = coalesce::sector_of(end - 1);
            // The run's sectors ascend, so its last bounds them all.
            self.high_bits |= last;
            self.sectors
                .extend((coalesce::sector_of(addr).max(next)..=last).map(|s| pack(s, flag)));
            next = last + 1;
            min_addr = end - bytes_per_lane;
        }
        let sectors = (self.sectors.len() - before) as u64;
        self.tally(sectors, lanes * bytes_per_lane, store);
    }

    /// One warp shared-memory access (load or store — the bank model does
    /// not distinguish).
    pub fn shared(&mut self, byte_addrs: &[u64], bytes_per_lane: u64) {
        if byte_addrs.is_empty() {
            return;
        }
        self.smem_passes +=
            banks::passes(byte_addrs, bytes_per_lane, self.bank_mode, self.banks) as u64;
        self.smem_bytes += banks::bytes(byte_addrs, bytes_per_lane);
    }

    /// A warp shared-memory access pattern repeated `times` times (e.g. the
    /// identical register-tile reads of every GEMM k-step). Pass counts are
    /// computed once and multiplied, keeping traces compact.
    pub fn shared_repeat(&mut self, byte_addrs: &[u64], bytes_per_lane: u64, times: u64) {
        if byte_addrs.is_empty() || times == 0 {
            return;
        }
        let passes = banks::passes(byte_addrs, bytes_per_lane, self.bank_mode, self.banks) as u64;
        self.smem_passes += passes * times;
        self.smem_bytes += banks::bytes(byte_addrs, bytes_per_lane) * times;
    }

    /// Record `n` floating-point operations (FMA = 2).
    pub fn flops(&mut self, n: u64) {
        self.flops += n;
    }

    /// Record `n` auxiliary warp instructions (addressing, loop control).
    pub fn aux(&mut self, n: u64) {
        self.aux_warp_instrs += n;
    }

    /// Record a block-wide barrier.
    pub fn sync(&mut self) {
        self.syncs += 1;
    }

    /// Total global sectors recorded.
    pub fn total_sectors(&self) -> u64 {
        self.load_sectors + self.store_sectors
    }

    /// Whether an access touched a sector at or above [`SECTOR_LIMIT`]
    /// (byte address 64 GiB), which the 32-bit stream cannot hold: its
    /// entries are then meaningless, and
    /// [`simulate`](crate::launch::simulate) fails the launch with
    /// [`SimError::AddressOutOfRange`](crate::SimError::AddressOutOfRange).
    pub(crate) fn out_of_range(&self) -> bool {
        self.high_bits >= SECTOR_LIMIT
    }
}

/// Two traces are equal when they recorded the same accesses: the same
/// sector stream and counters (the coalescer's scratch buffer is not part
/// of what a trace recorded).
impl PartialEq for BlockTrace {
    fn eq(&self, other: &BlockTrace) -> bool {
        let counters = |t: &BlockTrace| {
            [
                t.mem_instrs,
                t.load_sectors,
                t.store_sectors,
                t.requested_load_bytes,
                t.requested_store_bytes,
                t.smem_passes,
                t.smem_bytes,
                t.flops,
                t.aux_warp_instrs,
                t.syncs,
            ]
        };
        self.bank_mode == other.bank_mode
            && self.banks == other.banks
            && self.sectors == other.sectors
            && self.out_of_range() == other.out_of_range()
            && counters(self) == counters(other)
    }
}

/// First sector a stream entry cannot hold: entries keep a sector in 31
/// bits (64 GiB of simulated address space, over five times the memory
/// of either modelled device) beside its store flag.
pub const SECTOR_LIMIT: u64 = 1 << 31;

/// Pack a sector below [`SECTOR_LIMIT`] and its store flag (0 or 1) into
/// one stream entry. Higher sectors lose their top bits; the trace's
/// `high_bits` flags them.
#[inline]
fn pack(sector: u64, store: u32) -> u32 {
    (sector as u32) << 1 | store
}

/// A stream entry's sector and whether it is a store.
#[inline]
pub(crate) fn unpack(entry: u32) -> (u32, bool) {
    (entry >> 1, entry & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accumulates_coalesced_sectors() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        t.global_load(&addrs, 4);
        assert_eq!(t.load_sectors, 4);
        assert_eq!(t.mem_instrs, 1);
        assert_eq!(t.requested_load_bytes, 128);
        assert_eq!(t.sectors.len(), 4);
        assert!(t.sectors.iter().all(|&e| !unpack(e).1));
    }

    #[test]
    fn strided_store_overfetches() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 256).collect();
        t.global_store(&addrs, 4);
        assert_eq!(t.store_sectors, 32);
        assert_eq!(t.requested_store_bytes, 128);
    }

    #[test]
    fn shared_access_counts_passes() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let conflict_free: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        let fully_conflicted: Vec<u64> = (0..32u64).map(|i| i * 128).collect();
        t.shared(&conflict_free, 4);
        t.shared(&fully_conflicted, 4);
        assert_eq!(t.smem_passes, 1 + 32);
        assert_eq!(t.smem_bytes, 256);
    }

    #[test]
    fn float2_shared_in_8byte_mode_single_pass() {
        let mut t = BlockTrace::new(BankMode::EightByte, 32);
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 8).collect();
        t.shared(&addrs, 8);
        assert_eq!(t.smem_passes, 1);
    }

    #[test]
    fn counters_start_zero_and_accumulate() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        assert_eq!(t.total_sectors(), 0);
        t.flops(100);
        t.aux(7);
        t.sync();
        assert_eq!(t.flops, 100);
        assert_eq!(t.aux_warp_instrs, 7);
        assert_eq!(t.syncs, 1);
    }

    #[test]
    fn sectors_past_the_limit_are_flagged_not_kept() {
        let limit = SECTOR_LIMIT * 32;
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        t.global_load(&[limit - 4], 4);
        t.global_runs(&[(limit - 128, 32)], 4, true);
        assert!(!t.out_of_range(), "the last sector below the limit fits");
        assert_eq!(unpack(t.sectors[0]), ((SECTOR_LIMIT - 1) as u32, false));
        let mut lanes = BlockTrace::new(BankMode::FourByte, 32);
        lanes.global_store(&[limit], 4);
        assert!(lanes.out_of_range());
        let mut runs = BlockTrace::new(BankMode::FourByte, 32);
        runs.global_runs(&[(limit - 64, 32)], 4, false);
        assert!(runs.out_of_range(), "a run that crosses the limit");
    }

    #[test]
    #[should_panic(expected = "at most 32 lanes")]
    #[cfg(debug_assertions)]
    fn oversized_warp_panics_in_debug() {
        let mut t = BlockTrace::new(BankMode::FourByte, 32);
        let addrs: Vec<u64> = (0..33u64).collect();
        t.global_load(&addrs, 4);
    }
}
