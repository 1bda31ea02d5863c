//! GPU device descriptions.
//!
//! The paper evaluates on a GTX Titan Black (Kepler GK110B) and a GTX
//! Titan X (Maxwell GM200); [`DeviceConfig::titan_black`] and
//! [`DeviceConfig::titan_x`] encode those machines' published parameters
//! (SM count, clock, effective bandwidth the paper quotes, shared-memory
//! bank modes, occupancy limits). Arbitrary hypothetical devices can be
//! built for sensitivity studies.

use serde::{Deserialize, Serialize};

/// Shared-memory bank width mode (Kepler supports switching to 8-byte
/// banks, `cudaSharedMemBankSizeEightByte`; Maxwell and later are fixed at
/// 4 bytes). The 8-byte mode is what makes the paper's `float2`-vectorized
/// transformation kernel profitable (§IV.C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankMode {
    /// 4-byte banks (all architectures).
    FourByte,
    /// 8-byte banks (Kepler only).
    EightByte,
}

impl BankMode {
    /// Bank width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            BankMode::FourByte => 4,
            BankMode::EightByte => 8,
        }
    }
}

/// A GPU device model: everything the cost model needs to score a kernel.
///
/// All throughputs are in base units (bytes/s, FLOP/s, Hz); all sizes in
/// bytes. Fields are public so experiments can build hypothetical devices.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// FP32 lanes (CUDA cores) per SM.
    pub cores_per_sm: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak FP32 throughput in FLOP/s (2 x cores x clock for FMA machines).
    pub peak_flops: f64,
    /// Effective (achievable) DRAM bandwidth in bytes/s. The paper quotes
    /// 235 GB/s "effective" for the Titan Black, which is what its
    /// bandwidth percentages (e.g. 97.6% for the CV6 transform) are
    /// relative to.
    pub dram_bw: f64,
    /// L2-to-SM aggregate bandwidth in bytes/s.
    pub l2_bw: f64,
    /// Total device memory in bytes (OOM detection for FFT convolution).
    pub device_mem: u64,
    /// L2 cache size in bytes.
    pub l2_size: u64,
    /// L2 associativity (ways) used by the cache model.
    pub l2_assoc: u32,
    /// Global-memory latency in seconds (L2 miss, to first data).
    pub mem_latency: f64,
    /// Maximum memory requests a warp keeps in flight (memory-level
    /// parallelism cap used by the Little's-law latency bound).
    pub mem_mlp: f64,
    /// Warp width (32 on every NVIDIA architecture).
    pub warp_size: u32,
    /// Max resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Max resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Registers per SM (32-bit).
    pub regs_per_sm: u32,
    /// Max registers addressable per thread.
    pub max_regs_per_thread: u32,
    /// Shared memory per SM in bytes.
    pub smem_per_sm: u32,
    /// Max shared memory per block in bytes.
    pub smem_per_block_max: u32,
    /// Max threads per block.
    pub max_threads_per_block: u32,
    /// Number of shared-memory banks.
    pub smem_banks: u32,
    /// Whether the 8-byte shared-memory bank mode exists (Kepler).
    pub supports_8byte_banks: bool,
    /// Kernel launch overhead in seconds (driver + hardware dispatch). This
    /// is what the softmax kernel fusion (§V.B) saves four of.
    pub launch_overhead: f64,
    /// Warps-in-flight (x ILP) needed per SM to saturate the FP32 pipeline.
    pub warps_to_saturate_alu: f64,
    /// Per-block fixed startup cost in cycles (scheduling, prologue). This
    /// is what makes tiny-work blocks inefficient and creates the GFLOPS
    /// saturation curves of Fig 4.
    pub block_overhead_cycles: f64,
}

impl DeviceConfig {
    /// NVIDIA GTX Titan Black (Kepler GK110B) — the paper's primary
    /// platform: 5121 GFLOPS, 235 GB/s effective bandwidth, 6 GB (§III.B).
    pub fn titan_black() -> DeviceConfig {
        DeviceConfig {
            name: "GTX Titan Black (Kepler GK110B)".to_string(),
            sms: 15,
            cores_per_sm: 192,
            clock_hz: 0.889e9,
            peak_flops: 5121e9,
            dram_bw: 235.0e9,
            l2_bw: 470.0e9,
            device_mem: 6144 * 1024 * 1024,
            l2_size: 1536 * 1024,
            l2_assoc: 16,
            mem_latency: 450e-9,
            mem_mlp: 6.0,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            smem_per_sm: 48 * 1024,
            smem_per_block_max: 48 * 1024,
            max_threads_per_block: 1024,
            smem_banks: 32,
            supports_8byte_banks: true,
            launch_overhead: 5e-6,
            warps_to_saturate_alu: 30.0,
            block_overhead_cycles: 700.0,
        }
    }

    /// NVIDIA GTX Titan X (Maxwell GM200) — the paper's secondary platform
    /// (§VI.C): 24 SMs, 3072 cores, 12 GB, higher bandwidth, better latency
    /// tolerance, no 8-byte bank mode.
    pub fn titan_x() -> DeviceConfig {
        DeviceConfig {
            name: "GTX Titan X (Maxwell GM200)".to_string(),
            sms: 24,
            cores_per_sm: 128,
            clock_hz: 1.0e9,
            peak_flops: 6144e9,
            dram_bw: 260.0e9,
            l2_bw: 520.0e9,
            device_mem: 12288 * 1024 * 1024,
            l2_size: 3 * 1024 * 1024,
            l2_assoc: 16,
            mem_latency: 368e-9,
            mem_mlp: 8.0,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            regs_per_sm: 65536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            smem_per_block_max: 48 * 1024,
            max_threads_per_block: 1024,
            smem_banks: 32,
            supports_8byte_banks: false,
            launch_overhead: 5e-6,
            warps_to_saturate_alu: 16.0,
            block_overhead_cycles: 400.0,
        }
    }

    /// The device models the repo ships, for fleet construction and
    /// lookup by short name.
    pub fn catalog() -> Vec<DeviceConfig> {
        vec![DeviceConfig::titan_black(), DeviceConfig::titan_x()]
    }

    /// Look a shipped device up by short name (`"titan-black"` /
    /// `"titan-x"`), case-insensitive.
    pub fn by_name(name: &str) -> Option<DeviceConfig> {
        match name.to_ascii_lowercase().as_str() {
            "titan-black" | "titan_black" => Some(DeviceConfig::titan_black()),
            "titan-x" | "titan_x" => Some(DeviceConfig::titan_x()),
            _ => None,
        }
    }

    /// The same device under a different display name. The simulator
    /// never reads the name, and the simulation cache keys a device by
    /// its numeric fields only, so renamed copies share cache entries and
    /// every simulated number.
    pub fn with_name(mut self, name: &str) -> DeviceConfig {
        self.name = name.to_string();
        self
    }

    /// `k` copies of this device for a homogeneous fleet. The configs are
    /// identical (names included) so every device shares the same plans
    /// and simulation-cache entries; per-device identity in reports comes
    /// from the device *index*, not the name.
    pub fn homogeneous_fleet(&self, k: usize) -> Vec<DeviceConfig> {
        vec![self.clone(); k]
    }

    /// Aggregate shared-memory bandwidth in bytes/s under a bank mode:
    /// `SMs x banks x bank_width x clock`.
    pub fn smem_bw(&self, mode: BankMode) -> f64 {
        let width = if mode == BankMode::EightByte && !self.supports_8byte_banks {
            BankMode::FourByte.bytes()
        } else {
            mode.bytes()
        };
        self.sms as f64 * self.smem_banks as f64 * width as f64 * self.clock_hz
    }

    /// Total FP32 lanes on the device.
    pub fn total_cores(&self) -> u32 {
        self.sms * self.cores_per_sm
    }

    /// Memory sector (transaction) size in bytes. 32 B on Kepler/Maxwell;
    /// constant here because both evaluated devices share it.
    pub const SECTOR_BYTES: u64 = 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_black_matches_paper_quotes() {
        let d = DeviceConfig::titan_black();
        // §III.B: "6144MB device memory, 5121 GFLOPS computing capability
        // and 235GB/s effective memory bandwidth".
        assert_eq!(d.device_mem, 6144 * 1024 * 1024);
        assert_eq!(d.peak_flops, 5121e9);
        assert_eq!(d.dram_bw, 235.0e9);
        assert_eq!(d.total_cores(), 2880);
        assert!(d.supports_8byte_banks);
    }

    #[test]
    fn titan_x_is_maxwell() {
        let d = DeviceConfig::titan_x();
        assert_eq!(d.total_cores(), 3072);
        assert!(!d.supports_8byte_banks);
        assert!(d.l2_size > DeviceConfig::titan_black().l2_size);
    }

    #[test]
    fn smem_bw_depends_on_mode_only_when_supported() {
        let kepler = DeviceConfig::titan_black();
        assert_eq!(kepler.smem_bw(BankMode::EightByte), 2.0 * kepler.smem_bw(BankMode::FourByte));
        let maxwell = DeviceConfig::titan_x();
        assert_eq!(maxwell.smem_bw(BankMode::EightByte), maxwell.smem_bw(BankMode::FourByte));
    }

    #[test]
    fn bank_mode_bytes() {
        assert_eq!(BankMode::FourByte.bytes(), 4);
        assert_eq!(BankMode::EightByte.bytes(), 8);
    }

    #[test]
    fn catalog_lookup_and_fleet_helpers() {
        assert_eq!(DeviceConfig::catalog().len(), 2);
        assert_eq!(
            DeviceConfig::by_name("Titan-Black").map(|d| d.name),
            Some(DeviceConfig::titan_black().name)
        );
        assert_eq!(
            DeviceConfig::by_name("titan_x").map(|d| d.sms),
            Some(DeviceConfig::titan_x().sms)
        );
        assert!(DeviceConfig::by_name("k80").is_none());
        let renamed = DeviceConfig::titan_black().with_name("dev0");
        assert_eq!(renamed.name, "dev0");
        assert_eq!(renamed.sms, 15);
        let fleet = DeviceConfig::titan_black().homogeneous_fleet(4);
        assert_eq!(fleet.len(), 4);
        assert!(fleet.iter().all(|d| d.name == fleet[0].name));
    }
}
