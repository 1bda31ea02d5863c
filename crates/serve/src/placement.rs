//! Placement policies: which device a routed request joins.
//!
//! The fleet's event loop routes every arrival through a
//! [`PlacementPolicy`] with a snapshot of per-device load
//! ([`DeviceLoad`]). Policies are deterministic — same snapshot, same
//! answer — so the whole fleet run stays a pure function of its config.
//!
//! Three implementations ship:
//!
//! - [`RoundRobin`]: rotate through devices, ignoring load. The baseline
//!   the bench compares against.
//! - [`LeastLoaded`]: the device that frees up earliest (ties broken by
//!   queued images, then index). Under bursty phases this shields a hot
//!   device by spilling to idle ones — but see [`QueueWeighted`] for its
//!   convoy defect.
//! - [`QueueWeighted`]: rank by queued images first, free time second.
//!   `gpu_free` only moves when a batch *commits*, so between commits
//!   `LeastLoaded` sends every burst arrival to the same
//!   momentarily-earliest device (a convoy); queued images update on
//!   every routed arrival, so ranking them first spreads a burst across
//!   the fleet immediately.
//! - [`MemoryAware`]: like `LeastLoaded`, but first drop devices whose
//!   [`feasible_max_batch`](crate::capacity::feasible_max_batch) cap is
//!   below the request's natural bucket — on a heterogeneous fleet the
//!   small-memory device would downshift (or plan-OOM) batches the big
//!   one runs natively.

use crate::batch::bucket_for;
use serde::Serialize;

/// Load snapshot of one device at routing time.
#[derive(Clone, Copy, Debug)]
pub struct DeviceLoad {
    /// Device index in the fleet.
    pub device: usize,
    /// When the device's GPU frees up (simulated seconds).
    pub gpu_free: f64,
    /// Requests routed to the device and not yet launched.
    pub queued_requests: usize,
    /// Images those requests carry.
    pub queued_images: usize,
    /// Largest bucket the device can compile for the request's network
    /// (`0`: none — plan-time OOM at every candidate bucket).
    pub feasible_cap: usize,
}

/// Everything a placement decision may read.
#[derive(Clone, Copy, Debug)]
pub struct PlacementCtx<'a> {
    /// The request's arrival time.
    pub now: f64,
    /// Images the request carries.
    pub images: usize,
    /// Index of the network the request targets.
    pub network: usize,
    /// The batching policy's image cap.
    pub max_batch: usize,
    /// Candidate load snapshots. Usually the whole fleet in device
    /// order, but the health layer passes only the eligible (e.g.
    /// `Healthy`) devices — so entries carry their own
    /// [`DeviceLoad::device`] id and `devices[i].device == i` must not
    /// be assumed.
    pub devices: &'a [DeviceLoad],
}

/// A deterministic routing decision. `place` returns the chosen
/// [`DeviceLoad::device`] id from the candidate slice; implementations
/// may keep internal state (e.g. a round-robin cursor) but must not
/// consult any source of nondeterminism.
pub trait PlacementPolicy {
    /// Choose a device for one request.
    fn place(&mut self, ctx: &PlacementCtx) -> usize;
    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Rotate through devices in index order, ignoring load.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin {
    counter: usize,
}

impl PlacementPolicy for RoundRobin {
    fn place(&mut self, ctx: &PlacementCtx) -> usize {
        // Return the candidate's device id, not the slice index: the
        // fleet's health layer passes a filtered candidate slice when
        // some devices are not Healthy (identical on the full fleet,
        // where `devices[i].device == i`).
        let d = self.counter % ctx.devices.len().max(1);
        self.counter = self.counter.wrapping_add(1);
        ctx.devices.get(d).map_or(d, |l| l.device)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Pick the least-loaded candidate from `devices`: earliest effective
/// free time (`max(gpu_free, now)` — an idle device is "free now", not
/// "free in the past"), then fewest queued images, then the first in
/// candidate order. `None` when there are no candidates.
fn least_loaded_of<'a>(
    devices: impl IntoIterator<Item = &'a DeviceLoad>,
    now: f64,
) -> Option<usize> {
    let mut best: Option<&DeviceLoad> = None;
    for d in devices {
        let better = best.is_none_or(|b| {
            let (free, best_free) = (d.gpu_free.max(now), b.gpu_free.max(now));
            free.total_cmp(&best_free).is_lt()
                || (free.total_cmp(&best_free).is_eq() && d.queued_images < b.queued_images)
        });
        if better {
            best = Some(d);
        }
    }
    best.map(|b| b.device)
}

/// Route to the device that frees up earliest.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn place(&mut self, ctx: &PlacementCtx) -> usize {
        least_loaded_of(ctx.devices, ctx.now).expect("placement has candidates")
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// Route by queue pressure first: fewest queued images, then earliest
/// effective free time, then lowest index.
///
/// This is the burst-convoy fix for [`LeastLoaded`]: that policy's
/// primary key (`max(gpu_free, now)`) is frozen between batch commits,
/// so a burst arriving while the fleet is quiet convoys onto one device
/// (its queued-images tiebreaker only matters on *exact* free-time ties,
/// which vanish once clocks diverge). Queued images grow on every routed
/// arrival, so using them as the primary key spreads a burst round-robin
/// across equally-pressured devices and the per-device queue timelines
/// stay flat instead of spiking on one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueWeighted;

impl PlacementPolicy for QueueWeighted {
    fn place(&mut self, ctx: &PlacementCtx) -> usize {
        let mut best = 0usize;
        for (i, d) in ctx.devices.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let b = &ctx.devices[best];
            let free = d.gpu_free.max(ctx.now);
            let best_free = b.gpu_free.max(ctx.now);
            if d.queued_images < b.queued_images
                || (d.queued_images == b.queued_images && free.total_cmp(&best_free).is_lt())
            {
                best = i;
            }
        }
        ctx.devices[best].device
    }

    fn name(&self) -> &'static str {
        "queue-weighted"
    }
}

/// Route like [`LeastLoaded`], but skip devices whose feasible batch cap
/// is below the request's natural bucket. When every device is capped
/// (or none can compile anything), fall back to the full candidate set —
/// the serving loop's own downshift ladder then absorbs the mismatch.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoryAware;

impl PlacementPolicy for MemoryAware {
    fn place(&mut self, ctx: &PlacementCtx) -> usize {
        let natural = bucket_for(ctx.images, ctx.max_batch.max(1));
        least_loaded_of(ctx.devices.iter().filter(|d| d.feasible_cap >= natural), ctx.now)
            .or_else(|| least_loaded_of(ctx.devices, ctx.now))
            .expect("placement has candidates")
    }

    fn name(&self) -> &'static str {
        "memory-aware"
    }
}

/// Serializable selector for the shipped policies (configs carry this;
/// [`Placement::build`] instantiates the live state).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`QueueWeighted`].
    QueueWeighted,
    /// [`MemoryAware`].
    MemoryAware,
}

impl Placement {
    /// Instantiate the policy's live state.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            Placement::RoundRobin => Box::new(RoundRobin::default()),
            Placement::LeastLoaded => Box::new(LeastLoaded),
            Placement::QueueWeighted => Box::new(QueueWeighted),
            Placement::MemoryAware => Box::new(MemoryAware),
        }
    }

    /// Short policy name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::LeastLoaded => "least-loaded",
            Placement::QueueWeighted => "queue-weighted",
            Placement::MemoryAware => "memory-aware",
        }
    }

    /// Parse a policy from its [`Placement::name`] string (scenario TOML
    /// files reference policies by name).
    pub fn from_name(name: &str) -> Option<Placement> {
        match name {
            "round-robin" => Some(Placement::RoundRobin),
            "least-loaded" => Some(Placement::LeastLoaded),
            "queue-weighted" => Some(Placement::QueueWeighted),
            "memory-aware" => Some(Placement::MemoryAware),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(device: usize, gpu_free: f64, queued_images: usize, cap: usize) -> DeviceLoad {
        DeviceLoad {
            device,
            gpu_free,
            queued_requests: queued_images,
            queued_images,
            feasible_cap: cap,
        }
    }

    fn ctx<'a>(devices: &'a [DeviceLoad], now: f64, images: usize) -> PlacementCtx<'a> {
        PlacementCtx { now, images, network: 0, max_batch: 64, devices }
    }

    #[test]
    fn round_robin_cycles_in_index_order() {
        let devs = [load(0, 0.0, 0, 64), load(1, 0.0, 0, 64), load(2, 0.0, 0, 64)];
        let mut p = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|_| p.place(&ctx(&devs, 0.0, 1))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_prefers_earliest_free_then_fewest_images_then_index() {
        let devs = [load(0, 5.0, 0, 64), load(1, 2.0, 9, 64), load(2, 2.0, 3, 64)];
        assert_eq!(LeastLoaded.place(&ctx(&devs, 1.0, 1)), 2);
        // Idle devices are "free now": past free times do not rank one
        // idle device above another.
        let idle = [load(0, 0.5, 2, 64), load(1, 0.1, 2, 64)];
        assert_eq!(LeastLoaded.place(&ctx(&idle, 1.0, 1)), 0);
    }

    #[test]
    fn memory_aware_skips_capped_devices_unless_all_are_capped() {
        // Request of 40 images -> natural bucket 64.
        let devs = [load(0, 0.0, 0, 32), load(1, 3.0, 5, 64)];
        assert_eq!(MemoryAware.place(&ctx(&devs, 0.0, 40)), 1);
        // Small request: both fit, earliest-free wins.
        assert_eq!(MemoryAware.place(&ctx(&devs, 0.0, 2)), 0);
        // All capped: fall back to the full set.
        let capped = [load(0, 4.0, 0, 16), load(1, 1.0, 0, 16)];
        assert_eq!(MemoryAware.place(&ctx(&capped, 0.0, 40)), 1);
    }

    #[test]
    fn queue_weighted_spreads_a_burst_that_convoys_under_least_loaded() {
        // A burst lands while device 1 is momentarily the earliest free.
        // Between commits gpu_free is frozen; only queued_images moves.
        let mut devs = [load(0, 0.20, 0, 64), load(1, 0.10, 0, 64)];
        let mut ll_picks = Vec::new();
        let mut qw_picks = Vec::new();
        for _ in 0..6 {
            ll_picks.push(LeastLoaded.place(&ctx(&devs, 0.05, 2)));
            let d = QueueWeighted.place(&ctx(&devs, 0.05, 2));
            qw_picks.push(d);
            devs[d].queued_images += 2; // the fleet updates this per arrival
            devs[d].queued_requests += 1;
        }
        // LeastLoaded convoys the whole burst onto device 1 (frozen key,
        // and its queued-images tiebreaker never fires once free times
        // differ); QueueWeighted alternates.
        assert_eq!(ll_picks, vec![1; 6]);
        assert_eq!(qw_picks, vec![1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn selector_builds_matching_policies() {
        for (sel, name) in [
            (Placement::RoundRobin, "round-robin"),
            (Placement::LeastLoaded, "least-loaded"),
            (Placement::QueueWeighted, "queue-weighted"),
            (Placement::MemoryAware, "memory-aware"),
        ] {
            assert_eq!(sel.name(), name);
            assert_eq!(sel.build().name(), name);
            assert_eq!(Placement::from_name(name), Some(sel));
        }
        assert_eq!(Placement::from_name("nope"), None);
    }
}
