//! memcnn-serve: a deterministic discrete-event inference-serving
//! simulator with dynamic batching and batch-size-aware layout plans.
//!
//! The paper's central observation — the best data layout depends on the
//! batch size `N` — has a serving-side consequence: a server that batches
//! dynamically changes `N` from batch to batch, so the optimal layout
//! plan changes *while serving*. This crate closes that loop on top of
//! `memcnn-core`'s planner and the GPU simulator:
//!
//! 1. [`workload`] generates a seeded synthetic request stream (Poisson
//!    or uniform arrivals in phases, per-request image counts).
//! 2. [`batch`] forms batches under a `max_batch_images` /
//!    `max_queue_delay` policy and rounds them up to power-of-two
//!    buckets.
//! 3. [`plan_cache`] compiles one layout plan per bucket on first use
//!    (`Engine::plan_at`: layout DP + mechanism selection at that `N`)
//!    and reuses it for every later batch in the bucket — so the server
//!    observably flips between CHWN and NCHW plans as load changes.
//! 4. [`serve_fleet`], the crate's only serving entry point, runs the
//!    event loop on a simulated clock and reports p50/p95/p99 latency,
//!    throughput, queue depth, bucket occupancy, and plan-cache
//!    hits/misses (via `trace::perf`). One engine with
//!    `FleetConfig::new(workload, policy, Placement::RoundRobin)` is a
//!    single-device server; its metrics timeline (`dev0.*` series) is
//!    mirrored onto the `Track::Fleet` counter track when tracing is
//!    active.
//!
//! Everything is a pure function of `(engine configs, networks,
//! FleetConfig)`: same inputs give bit-identical reports, independent of
//! `MEMCNN_THREADS`. That purity extends to fault injection: with a
//! seeded [`FaultPlan`](memcnn_gpusim::FaultPlan) in the config, the loop
//! answers injected faults with [`policy`]'s degradation ladder (bounded
//! retry, OOM bucket downshift, deadline shedding, circuit-style degraded
//! mode) and still replays bit-identically.
//!
//! # Multi-device fleets
//!
//! [`fleet`] scales the loop out to K simulated devices
//! (heterogeneous allowed — the same bucket compiles different layout
//! plans on devices with different `(Ct, Nt)` thresholds): one request
//! stream, per-(device, network, bucket) plan caches for cross-network
//! multiplexing, a pluggable [`placement`] policy per arrival
//! (round-robin, least-loaded, memory-aware), and an optional
//! [`adaptive`] estimator that re-derives `max_queue_delay` from the
//! observed inter-arrival EMA at workload phase boundaries. The fleet
//! event loop is bit-deterministic whether devices step sequentially or
//! in parallel.
//!
//! # Multi-tenant SLO scheduling
//!
//! [`tenant`] + [`slo`] add service classes to the same loop:
//! tenants declared in the config ([`TenantSpec`] with
//! `Interactive{p99_budget}` / `Standard` / `BestEffort` classes and
//! arrival weights), deterministic per-request attribution that never
//! perturbs the seeded stream, token-bucket admission control,
//! deadline-aware batch commit (per-class queue-delay budgets), a
//! weighted-fair deficit tiebreak when classes contend for a device
//! slot, and per-tenant accounting with the
//! `admitted == completed + shed + rejected + in_flight` balance
//! invariant. With no tenants configured the reports are byte-identical
//! to the tenant-free builds.
//!
//! # Device failures & failover
//!
//! [`health`] adds whole-device fault tolerance to the fleet: a seeded
//! [`DeviceFaultPlan`](memcnn_gpusim::DeviceFaultPlan) drives each
//! device through `Healthy → Draining → Down → Warming → Healthy`,
//! queued work fails over and re-places onto healthy devices, warm
//! spares come back with cold plan caches (the recompilation cost is
//! charged on the simulated clock), and the balance invariant extends
//! to `admitted == completed + shed + rejected + in_flight +
//! failed_over_in_transit`. A `None` or no-op plan leaves the layer off;
//! everything stays bit-deterministic across thread budgets and vs the
//! [`Oracle::Sequential`] loop.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod adaptive;
pub mod batch;
pub mod capacity;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod placement;
pub mod plan_cache;
pub mod policy;
mod route_index;
pub mod server;
pub mod slo;
pub mod tenant;
pub mod workload;

pub use adaptive::AdaptivePolicy;
pub use batch::{bucket_for, buckets, BatchPolicy};
pub use capacity::{capacity_images_per_sec, feasible_max_batch};
pub use fleet::{
    serve_fleet, serve_fleet_oracle, DeviceReport, FleetBatch, FleetConfig, FleetReport,
    NetworkBuckets, Oracle,
};
pub use health::{HealthReport, HealthState};
pub use metrics::{
    latency_stats, latency_stats_served, latency_stats_sorted, percentile, LatencyStats,
};
pub use placement::{
    DeviceLoad, LeastLoaded, MemoryAware, Placement, PlacementCtx, PlacementPolicy, QueueWeighted,
    RoundRobin,
};
pub use plan_cache::PlanCache;
pub use policy::{FaultPolicy, FaultStats};
pub use server::{BatchRecord, BucketStats};
pub use tenant::{tenant_tags, SloFairness, SloReport, TenantClass, TenantReport, TenantSpec};
pub use workload::{generate, Arrival, Phase, Request, WorkloadConfig};
