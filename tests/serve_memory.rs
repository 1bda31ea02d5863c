//! A fleet run's memory follows the requests in flight, not the stream.
//!
//! The run's in-flight overhead is its peak live heap during
//! `serve_fleet` minus the live heap after it returns (which still holds
//! the report). What the run keeps beyond its report — the block of
//! future arrivals, the lane queues, the transit buffer — is bounded by
//! the requests in flight, so the overhead must stay at a few MiB and not
//! grow when the stream doubles. A run that materialized the stream and
//! whose lanes kept every request ever routed paid about 84 bytes per
//! request here (12.5 MB over 150k requests).
//!
//! The counting allocator below sees every allocation of the process, so
//! this binary holds exactly ONE `#[test]`, and the fleet runs under a
//! one-thread budget.

use memcnn::core::{Engine, LayoutThresholds, Mechanism, Network, NetworkBuilder};
use memcnn::gpusim::DeviceConfig;
use memcnn::serve::{
    capacity_images_per_sec, feasible_max_batch, serve_fleet, BatchPolicy, FleetConfig, Placement,
    WorkloadConfig,
};
use memcnn::tensor::Shape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, and the most seen since the last [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// The system allocator, counting live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// it meets `GlobalAlloc`'s contract exactly as `System` does; the
// counters are atomics that never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DEVICES: usize = 8;
const MIB: usize = 1 << 20;

fn stream_net() -> Network {
    NetworkBuilder::new("memory-tiny", Shape::new(1, 4, 16, 16))
        .conv("CV", 8, 3, 1, 1)
        .max_pool("PL", 2, 2)
        .build()
        .unwrap()
}

/// Peak live bytes during one `serve_fleet` call above the live bytes
/// after it returned.
fn in_flight_overhead(engines: &[&Engine], net: &Network, cfg: &FleetConfig) -> (usize, usize) {
    let before = LIVE.load(Relaxed);
    reset_peak();
    let report = serve_fleet(engines, std::slice::from_ref(net), cfg).unwrap();
    let (peak, after) = (PEAK.load(Relaxed), LIVE.load(Relaxed));
    assert!(after >= before, "the report is live after the run");
    let requests = report.requests;
    drop(report);
    (peak - after, requests)
}

#[test]
fn in_flight_overhead_stays_flat_as_the_stream_doubles() {
    rayon::with_max_threads(1, || {
        let engine =
            Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
        let net = stream_net();
        let (max, top) = feasible_max_batch(&engine, &net, Mechanism::Opt, &[64, 32, 16]).unwrap();
        let policy = BatchPolicy::new(max, (0.25 * top.total_time()).max(1e-4));
        // Single-image requests at 90% of the fleet's capacity: queues
        // stay short however long the stream runs.
        let rate = 0.9 * capacity_images_per_sec(max, &top) * DEVICES as f64;
        let engines = vec![&engine; DEVICES];
        let cfg = |requests: f64, seed: u64| {
            let workload = WorkloadConfig::poisson(rate, requests / rate, seed);
            FleetConfig::new(workload, policy, Placement::QueueWeighted)
        };
        // Warm the engine's simulation cache, so neither measured run
        // pays for first-time simulation.
        in_flight_overhead(&engines, &net, &cfg(5_000.0, 1));
        let (small, n_small) = in_flight_overhead(&engines, &net, &cfg(150_000.0, 2));
        let (large, n_large) = in_flight_overhead(&engines, &net, &cfg(300_000.0, 3));
        assert!(n_large > 2 * n_small - n_small / 10, "{n_small} then {n_large} requests");
        assert!(small <= 4 * MIB, "{small} B in flight over {n_small} requests");
        assert!(large <= 4 * MIB, "{large} B in flight over {n_large} requests");
        assert!(
            large <= small + MIB / 2,
            "in-flight bytes grew with the stream: {small} B at {n_small} requests, \
             {large} B at {n_large}"
        );
    });
}
