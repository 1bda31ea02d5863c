//! Launch simulation: sample block traces, model the L2, score the kernel.

use crate::cache::Cache;
use crate::device::DeviceConfig;
use crate::kernel::{unpack, BlockTrace, KernelSpec};
use crate::model::{score, KernelTime, LaunchTotals};
use crate::occupancy::{occupancy, Occupancy};
use crate::SimError;
use rayon::prelude::*;
use serde::Serialize;
use std::cell::RefCell;
use std::marker::PhantomData;

/// Simulation options.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Maximum blocks whose traces are replayed; larger grids are
    /// stride-sampled and results scaled. Traces are deterministic, so the
    /// same options always give the same report.
    pub max_sampled_blocks: u64,
    /// Disable the L2 model (all sectors go to DRAM). For ablations.
    pub l2_enabled: bool,
    /// Consult the process-wide memoization cache ([`crate::simcache`]) for
    /// kernels that provide a [`KernelSpec::cache_key`]. Reports are
    /// bit-identical either way; turning this off only trades time for a
    /// guaranteed cold simulation (ablations, benchmarking the model
    /// itself).
    pub use_cache: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { max_sampled_blocks: 24, l2_enabled: true, use_cache: true }
    }
}

/// Result of simulating one kernel launch.
#[derive(Clone, Debug, Serialize)]
pub struct KernelReport {
    /// Kernel name.
    pub name: String,
    /// Scored time and its decomposition.
    pub timing: KernelTime,
    /// Occupancy snapshot.
    pub occupancy: Occupancy,
    /// Total DRAM bytes (post-L2, floored by compulsory traffic).
    pub dram_bytes: f64,
    /// Total L2 sector bytes (pre-cache transactions).
    pub transaction_bytes: f64,
    /// Bytes the lanes requested (load + store): transaction_bytes /
    /// requested_bytes is the over-fetch factor of an uncoalesced kernel.
    pub requested_bytes: f64,
    /// L2 hit rate observed on the sampled stream.
    pub l2_hit_rate: f64,
    /// Total FLOPs.
    pub flops: f64,
    /// Blocks sampled out of the grid.
    pub sampled_blocks: u64,
    /// Grid size.
    pub grid_blocks: u64,
}

impl std::fmt::Display for KernelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = &self.timing;
        writeln!(f, "{}", self.name)?;
        writeln!(
            f,
            "  time {:>10.3} us   bound: {:?}   grid {} blocks ({} sampled)",
            t.time * 1e6,
            t.bound,
            self.grid_blocks,
            self.sampled_blocks
        )?;
        writeln!(
            f,
            "  terms: compute {:.1}us  dram {:.1}us  l2 {:.1}us  latency {:.1}us  smem {:.1}us  issue {:.1}us  launch {:.1}us",
            t.t_compute * 1e6,
            t.t_dram * 1e6,
            t.t_l2 * 1e6,
            t.t_latency * 1e6,
            t.t_smem * 1e6,
            t.t_issue * 1e6,
            t.t_launch * 1e6
        )?;
        writeln!(
            f,
            "  occupancy: {} blocks/SM, {} warps/SM ({:.0}%), limiter {:?}",
            self.occupancy.blocks_per_sm,
            self.occupancy.warps_per_sm,
            self.occupancy.fraction * 100.0,
            self.occupancy.limiter
        )?;
        writeln!(
            f,
            "  memory: requested {:.2} MB, transactions {:.2} MB (over-fetch {:.2}x), DRAM {:.2} MB, L2 hit {:.0}%",
            self.requested_bytes / 1e6,
            self.transaction_bytes / 1e6,
            if self.requested_bytes > 0.0 {
                self.transaction_bytes / self.requested_bytes
            } else {
                1.0
            },
            self.dram_bytes / 1e6,
            self.l2_hit_rate * 100.0
        )?;
        write!(
            f,
            "  rates: {:.1} GB/s DRAM, {:.0} GFLOP/s, ALU utilization {:.1}%",
            self.dram_gbs(),
            self.gflops(),
            t.alu_utilization * 100.0
        )
    }
}

impl KernelReport {
    /// Wall time in seconds.
    pub fn time(&self) -> f64 {
        self.timing.time
    }

    /// Achieved DRAM bandwidth in GB/s (the metric Figs 6, 11, 13 report).
    pub fn dram_gbs(&self) -> f64 {
        self.timing.dram_gbs / 1e9
    }

    /// Achieved GFLOP/s (the metric Fig 4 reports).
    pub fn gflops(&self) -> f64 {
        self.timing.flops_rate / 1e9
    }
}

/// Pick up to `max` block ids spread across `grid` as a few *runs* of
/// consecutive blocks. Runs (rather than isolated strided picks) keep the
/// sample representative when block workloads alternate with grid position
/// (edge tiles, partial warps) and preserve the spatial locality
/// neighbouring blocks share in the L2.
fn sample_blocks(grid: u64, max: u64) -> Vec<u64> {
    if grid <= max {
        return (0..grid).collect();
    }
    const RUNS: u64 = 4;
    let runs = RUNS.min(max);
    let run_len = max / runs;
    let mut out = Vec::with_capacity(max as usize);
    for r in 0..runs {
        // Run starts spread evenly, offset by half a stride.
        let start = ((2 * r + 1) * grid / (2 * runs)).min(grid - run_len);
        for b in start..start + run_len {
            if out.last() != Some(&b) && !out.contains(&b) {
                out.push(b);
            }
        }
    }
    out
}

thread_local! {
    /// Sector-stream buffers of this thread's finished cold simulations,
    /// kept for the next launch while a [`TraceBufferScope`] is open on
    /// the thread; `None` outside every scope.
    static TRACE_BUFFERS: RefCell<Option<Vec<Vec<u32>>>> = const { RefCell::new(None) };
}

/// While alive, cold simulations started on this thread record their
/// block traces into buffers kept from earlier ones instead of fresh
/// allocations (a plan's largest launch records tens of megabytes, and
/// fresh pages for every launch cost more than the recording). Scopes
/// nest; the outermost frees the buffers when dropped, so nothing
/// outlives the planning call that opened it. Reports are identical with
/// or without a scope.
#[must_use = "buffers are reused only while the scope is alive"]
pub struct TraceBufferScope {
    outermost: bool,
    /// Tied to the thread whose buffers it frees.
    _thread: PhantomData<*const ()>,
}

/// Open a [`TraceBufferScope`] on this thread.
pub fn reuse_trace_buffers() -> TraceBufferScope {
    let outermost = TRACE_BUFFERS.with(|pool| {
        let mut pool = pool.borrow_mut();
        let outermost = pool.is_none();
        pool.get_or_insert_with(Vec::new);
        outermost
    });
    TraceBufferScope { outermost, _thread: PhantomData }
}

impl Drop for TraceBufferScope {
    fn drop(&mut self) {
        if self.outermost {
            TRACE_BUFFERS.with(|pool| pool.borrow_mut().take());
        }
    }
}

/// `n` sector-stream buffers: kept ones while a scope is open, then empty.
fn take_trace_buffers(n: usize) -> Vec<Vec<u32>> {
    let mut bufs = TRACE_BUFFERS.with(|pool| match pool.borrow_mut().as_mut() {
        Some(kept) => kept.split_off(kept.len().saturating_sub(n)),
        None => Vec::new(),
    });
    bufs.resize_with(n, Vec::new);
    bufs
}

/// Keep `traces`' sector-stream buffers for the next launch, if a scope
/// is open.
fn keep_trace_buffers(traces: Vec<BlockTrace>) {
    TRACE_BUFFERS.with(|pool| {
        if let Some(kept) = pool.borrow_mut().as_mut() {
            kept.extend(traces.into_iter().map(|t| t.sectors));
        }
    });
}

/// Simulate one kernel launch on a device.
///
/// Fails if the kernel cannot launch (resources) or its declared footprint
/// exceeds device memory — the latter reproduces the paper's FFT
/// "execution failures" on CV5/CV6 (Fig 5).
///
/// When `opts.use_cache` is set and the kernel provides a
/// [`KernelSpec::cache_key`], the result is memoized process-wide in
/// [`crate::simcache`]: a hit returns the stored report (and replays the
/// same trace-collector record a cold run would emit); a miss simulates in
/// full and stores. Only successful simulations are cached — the error
/// paths are cheap pre-trace checks and callers probe them routinely.
pub fn simulate(
    device: &DeviceConfig,
    kernel: &dyn KernelSpec,
    opts: &SimOptions,
) -> Result<KernelReport, SimError> {
    let key = if opts.use_cache { kernel.cache_key() } else { None };
    let Some(key) = key else {
        crate::simcache::note_bypass();
        let (report, smem_passes, smem_bytes) = simulate_cold(device, kernel, opts)?;
        publish_to_trace(&report, smem_passes, smem_bytes);
        return Ok(report);
    };
    let sim_key = crate::simcache::SimKey::new(device, key, opts);
    if let Some(hit) = crate::simcache::lookup(&sim_key) {
        publish_to_trace(&hit.report, hit.smem_passes, hit.smem_bytes);
        return Ok(hit.report.clone());
    }
    let (report, smem_passes, smem_bytes) = simulate_cold(device, kernel, opts)?;
    publish_to_trace(&report, smem_passes, smem_bytes);
    crate::simcache::insert(
        &sim_key,
        crate::simcache::CachedSim { report: report.clone(), smem_passes, smem_bytes },
    );
    Ok(report)
}

/// Execute one launch simulation in full (no cache involvement). Returns
/// the report plus the `smem_passes` / `smem_bytes` launch totals, which
/// the trace collector publishes but the report does not carry.
fn simulate_cold(
    device: &DeviceConfig,
    kernel: &dyn KernelSpec,
    opts: &SimOptions,
) -> Result<(KernelReport, f64, f64), SimError> {
    crate::simcache::note_cold();
    let launch = kernel.launch();
    let work = kernel.work();
    if work.footprint_bytes > device.device_mem {
        return Err(SimError::OutOfMemory {
            needed: work.footprint_bytes,
            available: device.device_mem,
        });
    }
    let occ = occupancy(device, &launch)?;

    let sampled = sample_blocks(launch.grid_blocks, opts.max_sampled_blocks);
    let jobs: Vec<(u64, Vec<u32>)> =
        sampled.iter().copied().zip(take_trace_buffers(sampled.len())).collect();
    let traces: Vec<BlockTrace> = jobs
        .into_par_iter()
        .map(|(b, buf)| {
            let mut t = BlockTrace::with_buffer(launch.bank_mode, device.smem_banks, buf);
            kernel.trace_block(b, &mut t);
            t
        })
        .collect();
    if traces.iter().any(BlockTrace::out_of_range) {
        return Err(SimError::AddressOutOfRange(kernel.name()));
    }

    let scale = launch.grid_blocks as f64 / sampled.len().max(1) as f64;

    // Aggregate raw counters.
    let mut totals = LaunchTotals::default();
    for t in &traces {
        totals.flops += t.flops as f64;
        totals.mem_instrs += t.mem_instrs as f64;
        totals.load_sectors += t.load_sectors as f64;
        totals.store_sectors += t.store_sectors as f64;
        totals.requested_load_bytes += t.requested_load_bytes as f64;
        totals.requested_store_bytes += t.requested_store_bytes as f64;
        totals.smem_passes += t.smem_passes as f64;
        totals.smem_bytes += t.smem_bytes as f64;
        totals.aux_warp_instrs += t.aux_warp_instrs as f64;
    }
    totals.flops *= scale;
    totals.mem_instrs *= scale;
    totals.load_sectors *= scale;
    totals.store_sectors *= scale;
    totals.requested_load_bytes *= scale;
    totals.requested_store_bytes *= scale;
    totals.smem_passes *= scale;
    totals.smem_bytes *= scale;
    totals.aux_warp_instrs *= scale;

    // L2 model over the sampled sector streams. Blocks that would be
    // co-resident share the cache; we interleave their streams round-robin
    // in small chunks to approximate concurrent execution. When fewer
    // blocks are sampled than would be concurrent, the cache is shrunk
    // proportionally (sampled share of the real cache). Store sectors go
    // through the cache too (they displace lines) but only load misses are
    // counted: stores reach DRAM regardless (below).
    let mut miss_load = 0u64;
    let mut l2_hit_rate = 0.0;
    if opts.l2_enabled && !traces.is_empty() {
        let wave = (occ.concurrent_blocks as usize).max(1);
        let cache_size = sampled_l2_bytes(device, traces.len().min(wave) as u64, wave as u64);
        let mut cache = Cache::new(cache_size, device.l2_assoc, DeviceConfig::SECTOR_BYTES);
        const CHUNK: usize = 8;
        for wave_traces in traces.chunks(wave) {
            let mut cursors: Vec<usize> = vec![0; wave_traces.len()];
            let mut live = wave_traces.len();
            while live > 0 {
                live = 0;
                for (t, cur) in wave_traces.iter().zip(cursors.iter_mut()) {
                    if *cur >= t.sectors.len() {
                        continue;
                    }
                    let end = (*cur + CHUNK).min(t.sectors.len());
                    for &entry in &t.sectors[*cur..end] {
                        let (sector, is_store) = unpack(entry);
                        if !cache.access(sector) && !is_store {
                            miss_load += 1;
                        }
                    }
                    *cur = end;
                    if *cur < t.sectors.len() {
                        live += 1;
                    }
                }
            }
        }
        l2_hit_rate = cache.hit_rate();
    } else {
        miss_load = traces.iter().map(|t| t.load_sectors).sum();
    }
    keep_trace_buffers(traces);

    let sector = DeviceConfig::SECTOR_BYTES as f64;
    // Loads: scale misses to the grid; floor by compulsory traffic, cap by
    // raw transactions.
    totals.dram_load_bytes = (miss_load as f64 * sector * scale)
        .max(work.min_dram_load_bytes)
        .min(totals.load_sectors * sector);
    // Stores: every store transaction reaches DRAM. GDDR5 writes partial
    // sectors with byte-enables but still occupy a full burst, so the L2
    // gives scattered stores no write-combining credit — the mechanism
    // that makes the naive transformation kernel's strided writes so
    // expensive (§IV.C). Coalesced stores are unaffected (their sector
    // count already equals their byte count).
    totals.dram_store_bytes = (totals.store_sectors * sector).max(work.min_dram_store_bytes);

    let timing = score(device, &launch, &occ, &work, &totals);
    let report = KernelReport {
        name: kernel.name(),
        timing,
        occupancy: occ,
        dram_bytes: totals.dram_load_bytes + totals.dram_store_bytes,
        transaction_bytes: (totals.load_sectors + totals.store_sectors) * sector,
        requested_bytes: totals.requested_load_bytes + totals.requested_store_bytes,
        l2_hit_rate,
        flops: totals.flops,
        sampled_blocks: sampled.len() as u64,
        grid_blocks: launch.grid_blocks,
    };
    Ok((report, totals.smem_passes, totals.smem_bytes))
}

/// L2 bytes a launch's replay models when `sampled` of a wave of `wave`
/// co-resident blocks are replayed: the sampled share of the real cache,
/// at least one sector per way.
pub(crate) fn sampled_l2_bytes(device: &DeviceConfig, sampled: u64, wave: u64) -> u64 {
    let cache_frac = sampled as f64 / wave as f64;
    ((device.l2_size as f64 * cache_frac) as u64)
        .max(DeviceConfig::SECTOR_BYTES * device.l2_assoc as u64)
}

/// Publish a report's counters to an active trace collector (the closure
/// never runs — and allocates nothing — when tracing is off).
/// `smem_passes`/`smem_bytes` come from the launch totals because the
/// report itself does not carry them; cache hits replay the stored values
/// so a warm trace is byte-identical to a cold one.
fn publish_to_trace(report: &KernelReport, smem_passes: f64, smem_bytes: f64) {
    memcnn_trace::record_kernel(|| memcnn_trace::KernelCounters {
        name: report.name.clone(),
        time_s: report.timing.time,
        dram_bytes: report.dram_bytes,
        transaction_bytes: report.transaction_bytes,
        requested_bytes: report.requested_bytes,
        l2_hit_rate: report.l2_hit_rate,
        flops: report.flops,
        smem_passes,
        smem_bytes,
        occupancy: report.occupancy.fraction,
        occupancy_limiter: format!("{:?}", report.occupancy.limiter),
        bound: format!("{:?}", report.timing.bound),
        smem_time_s: report.timing.t_smem,
        grid_blocks: report.grid_blocks,
        sampled_blocks: report.sampled_blocks,
    });
}

/// Result of simulating a multi-kernel pipeline (e.g. im2col + GEMM, the
/// 5-kernel softmax, FFT's transform/multiply/inverse steps).
#[derive(Clone, Debug, Serialize)]
pub struct SequenceReport {
    /// Per-kernel reports, in order.
    pub kernels: Vec<KernelReport>,
}

impl SequenceReport {
    /// Total time of the pipeline (kernels serialize through global memory,
    /// which is exactly the inter-kernel cost §V.B eliminates by fusion).
    pub fn time(&self) -> f64 {
        self.kernels.iter().map(|k| k.time()).sum()
    }

    /// Total DRAM traffic of the pipeline.
    pub fn dram_bytes(&self) -> f64 {
        self.kernels.iter().map(|k| k.dram_bytes).sum()
    }

    /// Aggregate achieved DRAM bandwidth in GB/s.
    pub fn dram_gbs(&self) -> f64 {
        self.dram_bytes() / self.time() / 1e9
    }

    /// Total FLOPs.
    pub fn flops(&self) -> f64 {
        self.kernels.iter().map(|k| k.flops).sum()
    }

    /// Aggregate GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops() / self.time() / 1e9
    }
}

/// Simulate a sequence of dependent kernels.
pub fn simulate_sequence(
    device: &DeviceConfig,
    kernels: &[&dyn KernelSpec],
    opts: &SimOptions,
) -> Result<SequenceReport, SimError> {
    let reports =
        kernels.iter().map(|k| simulate(device, *k, opts)).collect::<Result<Vec<_>, _>>()?;
    Ok(SequenceReport { kernels: reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::BankMode;
    use crate::kernel::{LaunchConfig, WorkSummary};

    /// A streaming copy kernel: each block copies 256 KB coalesced.
    struct CopyKernel {
        grid: u64,
        src_base: u64,
        dst_base: u64,
        stride: u64,
    }

    impl KernelSpec for CopyKernel {
        fn name(&self) -> String {
            "copy".to_string()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: self.grid,
                threads_per_block: 256,
                regs_per_thread: 24,
                smem_per_block: 0,
                bank_mode: BankMode::FourByte,
            }
        }
        fn work(&self) -> WorkSummary {
            let bytes = self.grid as f64 * 256.0 * 128.0 * 4.0;
            WorkSummary::new(bytes, bytes, 2 * bytes as u64).with_ilp(4.0)
        }
        fn trace_block(&self, block: u64, t: &mut BlockTrace) {
            // 128 iterations x 8 warps x 32 lanes x 4 B = 128 KB in, 128 KB out.
            let block_bytes = 256 * 128 * 4u64;
            for i in 0..128u64 {
                for w in 0..8u64 {
                    let base = block * block_bytes + (i * 8 + w) * 128;
                    let addrs: Vec<u64> =
                        (0..32u64).map(|l| self.src_base + (base + l * 4) * self.stride).collect();
                    t.global_load(&addrs, 4);
                    let waddrs: Vec<u64> =
                        (0..32u64).map(|l| self.dst_base + base + l * 4).collect();
                    t.global_store(&waddrs, 4);
                    t.flops(32);
                    t.aux(2);
                }
            }
        }
    }

    #[test]
    fn coalesced_copy_achieves_near_peak_bandwidth() {
        let d = DeviceConfig::titan_black();
        let k = CopyKernel { grid: 4096, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let r = simulate(&d, &k, &SimOptions::default()).unwrap();
        assert_eq!(r.timing.bound, crate::model::Bound::DramBandwidth);
        // Coalesced: transactions equal requested bytes.
        assert!((r.transaction_bytes / r.requested_bytes - 1.0).abs() < 0.01);
        assert!(r.dram_gbs() > 0.8 * d.dram_bw / 1e9, "got {} GB/s", r.dram_gbs());
    }

    #[test]
    fn strided_copy_overfetches_and_slows_down() {
        let d = DeviceConfig::titan_black();
        let unit = CopyKernel { grid: 1024, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let strided = CopyKernel { grid: 1024, src_base: 0, dst_base: 1 << 33, stride: 16 };
        let r1 = simulate(&d, &unit, &SimOptions::default()).unwrap();
        let r2 = simulate(&d, &strided, &SimOptions::default()).unwrap();
        assert!(r2.transaction_bytes > 4.0 * r1.transaction_bytes);
        assert!(r2.time() > 2.0 * r1.time(), "{} vs {}", r2.time(), r1.time());
    }

    #[test]
    fn sampling_scales_to_full_grid() {
        let d = DeviceConfig::titan_black();
        let small = CopyKernel { grid: 24, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let big = CopyKernel { grid: 2400, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let rs = simulate(&d, &small, &SimOptions::default()).unwrap();
        let rb = simulate(&d, &big, &SimOptions::default()).unwrap();
        assert_eq!(rb.sampled_blocks, 24);
        let ratio = rb.requested_bytes / rs.requested_bytes;
        assert!((ratio - 100.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn oom_kernel_fails() {
        struct Huge;
        impl KernelSpec for Huge {
            fn name(&self) -> String {
                "huge".to_string()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig {
                    grid_blocks: 1,
                    threads_per_block: 32,
                    regs_per_thread: 16,
                    smem_per_block: 0,
                    bank_mode: BankMode::FourByte,
                }
            }
            fn work(&self) -> WorkSummary {
                WorkSummary { footprint_bytes: 8 << 30, ..Default::default() }
            }
            fn trace_block(&self, _: u64, _: &mut BlockTrace) {}
        }
        let d = DeviceConfig::titan_black();
        match simulate(&d, &Huge, &SimOptions::default()) {
            Err(SimError::OutOfMemory { needed, available }) => {
                assert_eq!(needed, 8 << 30);
                assert_eq!(available, d.device_mem);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn addresses_past_64_gib_fail_with_a_typed_error() {
        /// Reads one warp at `addr`, which its footprint does not cover.
        struct FarRead {
            addr: u64,
        }
        impl KernelSpec for FarRead {
            fn name(&self) -> String {
                format!("far-read {:#x}", self.addr)
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig {
                    grid_blocks: 4,
                    threads_per_block: 32,
                    regs_per_thread: 16,
                    smem_per_block: 0,
                    bank_mode: BankMode::FourByte,
                }
            }
            fn work(&self) -> WorkSummary {
                WorkSummary::new(128.0, 0.0, 128)
            }
            fn trace_block(&self, block: u64, t: &mut BlockTrace) {
                let addrs: Vec<u64> = (0..32u64).map(|l| self.addr + l * 4).collect();
                if block == 2 {
                    t.global_load(&addrs, 4);
                }
            }
        }
        let d = DeviceConfig::titan_black();
        let gib = 1u64 << 30;
        // The last warp that fits below 64 GiB simulates; one past does not.
        assert!(simulate(&d, &FarRead { addr: 64 * gib - 128 }, &SimOptions::default()).is_ok());
        for addr in [64 * gib - 64, 64 * gib, 100 * gib, 1 << 62] {
            let _buffers = reuse_trace_buffers();
            let k = FarRead { addr };
            match simulate(&d, &k, &SimOptions { use_cache: false, ..Default::default() }) {
                Err(SimError::AddressOutOfRange(name)) => assert_eq!(name, k.name()),
                other => panic!("{addr:#x}: expected AddressOutOfRange, got {other:?}"),
            }
            assert!(simulate(&d, &k, &SimOptions::default()).is_err(), "errors are never cached");
        }
    }

    #[test]
    fn trace_buffers_are_kept_only_inside_a_scope() {
        let d = DeviceConfig::titan_black();
        let k = CopyKernel { grid: 64, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let opts = SimOptions { use_cache: false, ..Default::default() };
        let kept = || TRACE_BUFFERS.with(|p| p.borrow().as_ref().map(Vec::len));
        let unscoped = simulate(&d, &k, &opts).unwrap();
        assert_eq!(kept(), None);
        {
            let _outer = reuse_trace_buffers();
            let first = simulate(&d, &k, &opts).unwrap();
            assert_eq!(kept(), Some(24));
            {
                let _inner = reuse_trace_buffers();
                let again = simulate(&d, &k, &opts).unwrap();
                assert_eq!(again.dram_bytes, first.dram_bytes);
            }
            assert_eq!(kept(), Some(24), "an inner scope leaves the buffers to the outer one");
            assert_eq!(first.time(), unscoped.time());
            assert_eq!(first.l2_hit_rate, unscoped.l2_hit_rate);
        }
        assert_eq!(kept(), None, "the outermost scope frees the buffers");
    }

    #[test]
    fn l2_reuse_reduces_dram_traffic() {
        // All blocks read the SAME 64 KB: with L2 enabled, DRAM traffic
        // collapses to roughly the footprint.
        struct SharedRead;
        impl KernelSpec for SharedRead {
            fn name(&self) -> String {
                "shared-read".to_string()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig {
                    grid_blocks: 16,
                    threads_per_block: 256,
                    regs_per_thread: 24,
                    smem_per_block: 0,
                    bank_mode: BankMode::FourByte,
                }
            }
            fn work(&self) -> WorkSummary {
                WorkSummary::new(64.0 * 1024.0, 0.0, 64 * 1024)
            }
            fn trace_block(&self, _: u64, t: &mut BlockTrace) {
                for i in 0..512u64 {
                    let addrs: Vec<u64> = (0..32u64).map(|l| i * 128 + l * 4).collect();
                    t.global_load(&addrs, 4);
                }
            }
        }
        let d = DeviceConfig::titan_black();
        let with_l2 = simulate(&d, &SharedRead, &SimOptions::default()).unwrap();
        let without =
            simulate(&d, &SharedRead, &SimOptions { l2_enabled: false, ..Default::default() })
                .unwrap();
        assert!(with_l2.dram_bytes < without.dram_bytes / 4.0);
        assert!(with_l2.l2_hit_rate > 0.8);
    }

    #[test]
    fn sequence_time_is_sum_of_kernels() {
        let d = DeviceConfig::titan_black();
        let k1 = CopyKernel { grid: 512, src_base: 0, dst_base: 1 << 33, stride: 1 };
        let k2 = CopyKernel { grid: 512, src_base: 1 << 33, dst_base: 1 << 34, stride: 1 };
        let seq = simulate_sequence(&d, &[&k1, &k2], &SimOptions::default()).unwrap();
        let solo = simulate(&d, &k1, &SimOptions::default()).unwrap();
        assert_eq!(seq.kernels.len(), 2);
        assert!((seq.time() - 2.0 * solo.time()).abs() / seq.time() < 0.05);
    }

    #[test]
    fn simulation_is_deterministic() {
        let d = DeviceConfig::titan_black();
        let k = CopyKernel { grid: 1000, src_base: 0, dst_base: 1 << 33, stride: 3 };
        let a = simulate(&d, &k, &SimOptions::default()).unwrap();
        let b = simulate(&d, &k, &SimOptions::default()).unwrap();
        assert_eq!(a.time(), b.time());
        assert_eq!(a.dram_bytes, b.dram_bytes);
    }

    #[test]
    fn sample_blocks_covers_grid_in_runs() {
        let s = sample_blocks(1000, 12);
        assert_eq!(s.len(), 12);
        assert!(s.iter().all(|&b| b < 1000));
        // Four runs of three consecutive blocks.
        assert_eq!(s[0] + 1, s[1]);
        assert_eq!(s[1] + 1, s[2]);
        // Runs span the grid: first run in the first half, last in the last.
        assert!(s[0] < 500 && *s.last().unwrap() > 500);
        assert_eq!(sample_blocks(5, 10), vec![0, 1, 2, 3, 4]);
        // Samples are unique even for tight grids.
        let t = sample_blocks(13, 12);
        let unique: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(unique.len(), t.len());
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;
    use crate::device::BankMode;
    use crate::kernel::{LaunchConfig, WorkSummary};

    struct Tiny;
    impl KernelSpec for Tiny {
        fn name(&self) -> String {
            "tiny-kernel".to_string()
        }
        fn launch(&self) -> LaunchConfig {
            LaunchConfig {
                grid_blocks: 8,
                threads_per_block: 64,
                regs_per_thread: 16,
                smem_per_block: 0,
                bank_mode: BankMode::FourByte,
            }
        }
        fn work(&self) -> WorkSummary {
            WorkSummary::default()
        }
        fn trace_block(&self, block: u64, t: &mut BlockTrace) {
            let addrs: Vec<u64> = (0..32u64).map(|l| block * 128 + l * 4).collect();
            t.global_load(&addrs, 4);
            t.flops(64);
        }
    }

    #[test]
    fn report_display_contains_the_profiler_fields() {
        let d = DeviceConfig::titan_black();
        let r = simulate(&d, &Tiny, &SimOptions::default()).unwrap();
        let text = r.to_string();
        for needle in ["tiny-kernel", "bound:", "occupancy:", "GB/s DRAM", "ALU utilization"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn sequence_propagates_launch_errors() {
        struct Bad;
        impl KernelSpec for Bad {
            fn name(&self) -> String {
                "bad".to_string()
            }
            fn launch(&self) -> LaunchConfig {
                LaunchConfig {
                    grid_blocks: 1,
                    threads_per_block: 4096, // exceeds device max
                    regs_per_thread: 16,
                    smem_per_block: 0,
                    bank_mode: BankMode::FourByte,
                }
            }
            fn work(&self) -> WorkSummary {
                WorkSummary::default()
            }
            fn trace_block(&self, _: u64, _: &mut BlockTrace) {}
        }
        let d = DeviceConfig::titan_black();
        let err = simulate_sequence(&d, &[&Tiny as &dyn KernelSpec, &Bad], &SimOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::Unlaunchable(_)));
        assert!(err.to_string().contains("threads/block"));
    }

    #[test]
    fn disabling_sampling_traces_every_block() {
        let d = DeviceConfig::titan_black();
        let opts = SimOptions { max_sampled_blocks: 1 << 20, ..Default::default() };
        let r = simulate(&d, &Tiny, &opts).unwrap();
        assert_eq!(r.sampled_blocks, r.grid_blocks);
        // 8 blocks x 128 B requested each.
        assert_eq!(r.requested_bytes, 8.0 * 128.0);
    }
}
