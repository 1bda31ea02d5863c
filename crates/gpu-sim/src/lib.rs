//! # memcnn-gpusim — a warp-level GPU memory-hierarchy simulator
//!
//! This crate is the substitution substrate for the SC'16 paper's hardware
//! (see `DESIGN.md` §2): instead of measuring CUDA kernels on a GTX Titan
//! Black / Titan X, kernels describe their launch configuration and replay
//! per-block warp access patterns ([`KernelSpec`]), and the simulator scores
//! them with the memory-system mechanisms the paper's arguments rest on:
//!
//! - **Coalescing** ([`coalesce`]): warp accesses decompose into 32 B
//!   sectors; strided layouts over-fetch (§IV.B pooling on NCHW).
//! - **L2 cache** ([`cache`]): sampled block streams interleave through a
//!   set-associative LRU model; reuse reduces DRAM traffic (§V.A pooling
//!   windows).
//! - **Shared-memory banks** ([`banks`]): conflict passes under 4 B/8 B bank
//!   modes (§IV.C transformation kernel, `float2` vectorization).
//! - **Occupancy** ([`occupancy()`]): resource-limited residency; feeds
//!   latency hiding (§V.B softmax's 128-thread starvation).
//! - **Cost model** ([`model`]): `launch + max(compute, DRAM, L2, latency,
//!   shared, issue)` with documented terms.
//!
//! Entry point: [`simulate`] (one kernel) / [`simulate_sequence`]
//! (dependent kernels that round-trip through global memory).
//!
//! # Example: score a custom kernel
//!
//! A strided-copy kernel, showing how layouts/strides surface as time:
//!
//! ```
//! use memcnn_gpusim::*;
//!
//! struct StridedCopy { stride: u64 }
//!
//! impl KernelSpec for StridedCopy {
//!     fn name(&self) -> String { format!("copy stride {}", self.stride) }
//!     fn launch(&self) -> LaunchConfig {
//!         LaunchConfig { grid_blocks: 1024, threads_per_block: 256,
//!                        regs_per_thread: 16, smem_per_block: 0,
//!                        bank_mode: BankMode::FourByte }
//!     }
//!     fn work(&self) -> WorkSummary { WorkSummary::default().with_ilp(4.0) }
//!     fn trace_block(&self, block: u64, t: &mut BlockTrace) {
//!         for i in 0..32u64 {
//!             let base = (block * 32 + i) * 128 * self.stride;
//!             let addrs: Vec<u64> =
//!                 (0..32).map(|lane| base + lane * 4 * self.stride).collect();
//!             t.global_load(&addrs, 4);
//!             let out: Vec<u64> =
//!                 (0..32).map(|lane| (1 << 33) + (block * 32 + i) * 128 + lane * 4).collect();
//!             t.global_store(&out, 4);
//!         }
//!     }
//! }
//!
//! let device = DeviceConfig::titan_black();
//! let unit = simulate(&device, &StridedCopy { stride: 1 }, &SimOptions::default()).unwrap();
//! let strided = simulate(&device, &StridedCopy { stride: 16 }, &SimOptions::default()).unwrap();
//! assert!(strided.time() > 2.0 * unit.time()); // un-coalesced reads over-fetch
//! ```

#![warn(missing_docs)]

pub mod address;
pub mod banks;
pub mod cache;
pub mod coalesce;
pub mod device;
pub mod faults;
pub mod kernel;
pub mod launch;
pub mod model;
pub mod occupancy;
pub mod simcache;

pub use address::{AddressSpace, DeviceBuffer};
pub use device::{BankMode, DeviceConfig};
pub use faults::{DeviceFault, DeviceFaultKind, DeviceFaultPlan, Fault, FaultPlan, Roll};
pub use kernel::{BlockTrace, KernelSpec, LaunchConfig, WorkSummary};
pub use launch::{
    reuse_trace_buffers, simulate, simulate_sequence, KernelReport, SequenceReport, SimOptions,
    TraceBufferScope,
};
pub use model::{Bound, KernelTime};
pub use occupancy::{occupancy, Limiter, Occupancy};
pub use simcache::CacheKey;

use std::fmt;

/// Errors from the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The kernel cannot launch on this device (block exceeds resources).
    Unlaunchable(String),
    /// Declared footprint exceeds device memory — the paper's FFT
    /// "execution failures" on CV5/CV6 (Fig 5) take this path.
    OutOfMemory {
        /// Bytes the kernel needs.
        needed: u64,
        /// Bytes the device has.
        available: u64,
    },
    /// A block trace touched a byte address at or above 64 GiB, past the
    /// sectors the simulator's 32-bit sector streams can hold
    /// ([`kernel::SECTOR_LIMIT`]). No modelled device has that much
    /// memory, so this is a spec bug, reported instead of truncated.
    AddressOutOfRange(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unlaunchable(msg) => write!(f, "kernel cannot launch: {msg}"),
            SimError::OutOfMemory { needed, available } => write!(
                f,
                "out of device memory: kernel needs {:.1} MB, device has {:.1} MB",
                *needed as f64 / 1e6,
                *available as f64 / 1e6
            ),
            SimError::AddressOutOfRange(kernel) => write!(
                f,
                "kernel {kernel} touches device memory at or above 64 GiB, past the simulated address space"
            ),
        }
    }
}

impl std::error::Error for SimError {}
