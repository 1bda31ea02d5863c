//! Device-lifecycle health: whole-device fault tolerance for the fleet.
//!
//! PR 4's fault model injects *kernel-level* faults inside a healthy
//! device; this module models the device itself dying. A seeded
//! [`DeviceFaultPlan`](memcnn_gpusim::DeviceFaultPlan) expands — purely,
//! on the simulated stream clock — into crash / hang / planned-drain
//! events, and each fleet device runs the lifecycle state machine
//!
//! ```text
//! Healthy → Draining → Down → Warming → Healthy
//!     \________________↗
//!      (crash / hang)
//! ```
//!
//! - **Crash**: the device halts instantly. Its queued (uncommitted)
//!   requests fail over to the transit buffer and re-place onto healthy
//!   devices, re-admitted through the existing deadline/shed ladder.
//! - **Hang**: like a crash, but the repair clock starts only once the
//!   device's in-flight work would have drained (`max(t, gpu_free)`).
//! - **Drain**: a planned decommission — the device serves out its
//!   queue (placement stops routing to it), then goes `Down`.
//! - **Down → Warming**: after `repair` simulated seconds a warm spare
//!   comes up. Its per-(device, network, bucket)
//!   [`PlanCache`](crate::plan_cache::PlanCache) is reset cold, and
//!   because plan compiles charge *zero* simulated time, the healer
//!   charges the spin-up explicitly: `gpu_free` advances past the
//!   warmup window, which is what makes recovery visible as a latency
//!   bump in the timeline.
//! - **Warming → Healthy**: after `warmup` seconds the device takes new
//!   placements again.
//!
//! **Determinism.** Health transitions are evaluated only at routing
//! points (every arrival, in arrival order) plus one flush when routing
//! exhausts. The route-first rule guarantees the fleet loop has applied
//! exactly the commits launching before each arrival when it gets
//! there. Between routing points, commits are bounded by the device's
//! next crash/hang time (`DeviceState::halt`), so no batch is ever
//! committed past a pending failure. The result: fleet reports replay
//! byte-identically across thread budgets and under the
//! [`Oracle::Linear`](crate::fleet::Oracle) reference with device
//! faults on (pinned by `tests/failover.rs` and `tests/fleet.rs`).
//!
//! The extended balance invariant this layer maintains, per tenant and
//! in aggregate:
//!
//! ```text
//! admitted == completed + shed + rejected + in_flight + failed_over_in_transit
//! ```
//!
//! `failed_over_in_transit` is the transit-buffer residual — always 0
//! for drained runs (the flush re-places or sheds every transiting
//! request), but nonzero mid-run while no healthy target exists. The
//! finished run must also conserve failovers, `failed_over == requeued +
//! transit_shed` with nothing left in transit; the fleet returns
//! `EngineError::Fatal` when it does not.

use memcnn_core::EngineError;
use memcnn_gpusim::{DeviceFault, DeviceFaultKind};
use serde::Serialize;
use std::collections::VecDeque;

/// Lifecycle state of one fleet device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum HealthState {
    /// Serving and taking new placements.
    Healthy,
    /// Serving out its queue; placement routes around it.
    Draining,
    /// Dead: committing nothing until the repair clock expires.
    Down,
    /// Repaired spare charging its cold-cache warmup; parked work
    /// serves once the warmup window closes, new placements wait for
    /// `Healthy`.
    Warming,
}

impl HealthState {
    /// Numeric encoding for the `devK.health` gauge: 0 = Healthy,
    /// 1 = Draining, 2 = Down, 3 = Warming.
    pub fn gauge(self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Draining => 1.0,
            HealthState::Down => 2.0,
            HealthState::Warming => 3.0,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Draining => write!(f, "draining"),
            HealthState::Down => write!(f, "down"),
            HealthState::Warming => write!(f, "warming"),
        }
    }
}

/// One device's lifecycle bookkeeping: its state, its time-ordered
/// slice of the expanded fault plan, and the clocks of the current
/// drain / repair / warmup window.
pub(crate) struct DeviceHealth {
    /// Current lifecycle state.
    pub state: HealthState,
    /// Remaining fault events for this device, ascending by time.
    pub events: VecDeque<DeviceFault>,
    /// When the drain that put the device in `Draining` fired.
    pub fault_t: f64,
    /// Simulated time the current `Down` window ends.
    pub down_until: f64,
    /// Simulated time the current `Warming` window ends.
    pub warm_until: f64,
}

impl DeviceHealth {
    pub fn new(events: VecDeque<DeviceFault>) -> DeviceHealth {
        DeviceHealth {
            state: HealthState::Healthy,
            events,
            fault_t: 0.0,
            down_until: 0.0,
            warm_until: 0.0,
        }
    }

    /// The device's commit horizon: the next pending crash or hang.
    /// Batches launching at or past it must not commit before the event
    /// is processed (drains do not halt — a draining device keeps
    /// serving).
    pub fn halt(&self) -> f64 {
        self.events
            .iter()
            .find(|e| matches!(e.kind, DeviceFaultKind::Crash | DeviceFaultKind::Hang))
            .map_or(f64::INFINITY, |e| e.t)
    }
}

/// Fleet-wide health state for one run: per-device machines, the
/// failover transit buffer, and the recovery tallies that become the
/// report's [`HealthReport`] and the `fleet.*` perf counters.
pub(crate) struct HealthRun {
    /// Per-device lifecycle machines, engine order.
    pub devs: Vec<DeviceHealth>,
    /// `Down` duration, simulated seconds (from the plan).
    pub repair: f64,
    /// `Warming` duration, simulated seconds (from the plan).
    pub warmup: f64,
    /// Failed-over requests awaiting a healthy placement target.
    pub transit: Vec<crate::workload::Request>,
    /// Requests that ever failed over, per tenant (cumulative — a
    /// request crossing two crashes counts twice; *not* part of the
    /// balance identity).
    pub failed_over: Vec<u64>,
    /// Requests failed over *from* each device (cumulative).
    pub dev_failed_over: Vec<u64>,
    /// Transit requests shed at the flush because no non-`Down` device
    /// remained, per tenant (these *are* part of the shed totals).
    pub transit_shed: Vec<u64>,
    /// Transit requests re-placed onto a healthy device.
    pub requeued: u64,
    /// `* → Down` transitions.
    pub downs: u64,
    /// `Warming → Healthy` transitions.
    pub ups: u64,
    /// Cached plans invalidated by heals (each must recompile cold on
    /// the warmed device).
    pub warm_compiles: u64,
    /// Whether the routing-exhausted flush has run.
    pub flushed: bool,
    /// Last emitted `fleet.devices.healthy` sample (gauges emit on
    /// change only).
    pub last_healthy: Option<usize>,
    /// Last emitted `fleet.failover.backlog` sample.
    pub last_backlog: Option<usize>,
}

impl HealthRun {
    /// Devices currently `Healthy`.
    pub fn healthy(&self) -> usize {
        self.devs.iter().filter(|d| d.state == HealthState::Healthy).count()
    }
}

/// The health section of a [`FleetReport`](crate::fleet::FleetReport):
/// recovery tallies for a run with a live `DeviceFaultPlan`. Omitted
/// (`None`) when no plan is configured or the plan is a no-op — keeping
/// those reports byte-identical to the pre-health wire format.
#[derive(Clone, Debug, Serialize)]
pub struct HealthReport {
    /// `* → Down` transitions across the fleet.
    pub downs: u64,
    /// `Warming → Healthy` recoveries.
    pub ups: u64,
    /// Failed-over requests re-placed onto a healthy device.
    pub requeued: u64,
    /// Cached plans invalidated by heals (recompiled cold on demand).
    pub warm_compiles: u64,
    /// Requests that ever failed over (cumulative; not in the balance
    /// identity — a request can fail over more than once).
    pub failed_over: u64,
    /// Requests still in the transit buffer at the end of the run
    /// (0 for drained runs; the balance identity's new term).
    pub failed_over_in_transit: u64,
    /// Transit requests shed because no non-`Down` device remained.
    pub transit_shed: u64,
    /// Requests failed over from each device, engine order.
    pub device_failed_over: Vec<u64>,
    /// Final lifecycle state per device, engine order.
    pub states: Vec<HealthState>,
}

impl HealthReport {
    /// Failover conservation, checked in release builds too: every
    /// failover left the transit buffer exactly once, re-placed or shed,
    /// and nothing is left in it. `EngineError::Fatal` names the tallies.
    pub(crate) fn check_conserved(&self) -> Result<(), EngineError> {
        if self.failed_over == self.requeued + self.transit_shed && self.failed_over_in_transit == 0
        {
            return Ok(());
        }
        Err(EngineError::Fatal(format!(
            "failover accounting out of balance: failed over {} != requeued {} + transit shed {} \
             (in transit {})",
            self.failed_over, self.requeued, self.transit_shed, self.failed_over_in_transit
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halt_is_the_next_crash_or_hang_never_a_drain() {
        let mk = |kind, t| DeviceFault { t, device: 0, kind };
        let dh = DeviceHealth::new(VecDeque::from(vec![
            mk(DeviceFaultKind::Drain, 0.1),
            mk(DeviceFaultKind::Hang, 0.3),
            mk(DeviceFaultKind::Crash, 0.5),
        ]));
        assert_eq!(dh.halt(), 0.3, "drains never halt commits");
        let quiet = DeviceHealth::new(VecDeque::new());
        assert_eq!(quiet.halt(), f64::INFINITY);
        assert_eq!(quiet.state, HealthState::Healthy);
    }

    #[test]
    fn conservation_checks_the_exact_identity() {
        let mut r = HealthReport {
            downs: 2,
            ups: 1,
            requeued: 5,
            warm_compiles: 1,
            failed_over: 7,
            failed_over_in_transit: 0,
            transit_shed: 2,
            device_failed_over: vec![7, 0],
            states: vec![HealthState::Healthy, HealthState::Down],
        };
        assert_eq!(r.check_conserved(), Ok(()));
        r.requeued -= 1;
        assert_eq!(
            r.check_conserved(),
            Err(EngineError::Fatal(
                "failover accounting out of balance: failed over 7 != requeued 4 + transit shed \
                 2 (in transit 0)"
                    .to_string()
            ))
        );
        // A request still in transit breaks it even when the sum holds.
        r.requeued += 1;
        r.failed_over_in_transit = 1;
        assert!(r.check_conserved().is_err());
    }

    #[test]
    fn gauge_encoding_is_stable() {
        assert_eq!(HealthState::Healthy.gauge(), 0.0);
        assert_eq!(HealthState::Draining.gauge(), 1.0);
        assert_eq!(HealthState::Down.gauge(), 2.0);
        assert_eq!(HealthState::Warming.gauge(), 3.0);
        assert_eq!(HealthState::Warming.to_string(), "warming");
    }
}
