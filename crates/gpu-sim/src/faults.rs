//! Deterministic, seeded fault injection.
//!
//! Production GPUs fail in ways the clean simulator never does: kernel
//! launches error out, allocations fail under memory pressure, and thermal
//! or power throttling stretches execution times. This module models those
//! failure classes the same way the rest of the simulator models timing —
//! as a *pure function of its inputs* — so chaos experiments replay
//! bit-identically.
//!
//! A [`FaultPlan`] is a seed plus per-launch probabilities for the three
//! fault classes. Whether a given launch faults is decided by
//! [`FaultPlan::roll`], a stateless hash of `(seed, kernel key, launch
//! index)`: no RNG object, no interior mutability, no dependence on thread
//! interleaving. Two processes — or two thread counts — rolling the same
//! triple always see the same fault. The *launch index* is supplied by the
//! caller (the serving event loop counts launch attempts on its simulated
//! device), which is what makes a retry a fresh roll rather than a
//! guaranteed repeat of the last failure.
//!
//! The hash is FNV-1a, a byte-sequential fold, so a key may be fed in
//! pieces: [`FaultPlan::at`] absorbs `(seed, launch index)` into a
//! [`Roll`], [`Roll::absorb`] takes key bytes, and [`Roll::decide`] maps
//! the hash to a fault. A caller rolling many keys that share a prefix
//! hashes the prefix once and extends a copy of the state per key.
//!
//! The plan is consulted in one place: the engine's fault-aware plan
//! execution (`core::Engine::execute_attempt`), one roll per planned
//! layer of each launch attempt. It never reaches the simulator, so the
//! simulation cache only ever stores clean results.

use serde::Serialize;

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The kernel launch errored (a transient: retrying may succeed).
    LaunchFailed,
    /// The device rejected the allocation (retrying the same size will
    /// keep failing; callers must shrink the work instead).
    DeviceOom,
    /// The device is throttled: execution completes, `factor` times
    /// slower.
    Throttled {
        /// Slowdown multiplier (> 1).
        factor: f64,
    },
}

/// A seeded fault-injection plan: per-kernel-launch probabilities for each
/// fault class. `Copy` and stateless — the same plan value can be shared
/// freely across threads and the rolls stay bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed of the fault stream. Different seeds give independent streams
    /// over the same workload.
    pub seed: u64,
    /// Probability a launch fails transiently, in `[0, 1]`.
    pub launch_failed: f64,
    /// Probability a launch hits an allocation failure, in `[0, 1]`.
    pub device_oom: f64,
    /// Probability a launch is throttled, in `[0, 1]`.
    pub throttled: f64,
    /// Slowdown multiplier applied when a throttle fires (> 1).
    pub throttle_factor: f64,
}

impl FaultPlan {
    /// A plan that never fires (all probabilities zero).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            launch_failed: 0.0,
            device_oom: 0.0,
            throttled: 0.0,
            throttle_factor: 2.0,
        }
    }

    /// A plan with the given transient / OOM / throttle rates.
    pub fn new(seed: u64, launch_failed: f64, device_oom: f64, throttled: f64) -> FaultPlan {
        FaultPlan { seed, launch_failed, device_oom, throttled, throttle_factor: 2.0 }
    }

    /// Override the throttle slowdown factor.
    pub fn with_throttle_factor(mut self, factor: f64) -> FaultPlan {
        self.throttle_factor = factor;
        self
    }

    /// Whether the plan can never fire. A no-op plan is required to be
    /// indistinguishable from no plan at all (the chaos tests check this
    /// byte for byte), so callers short-circuit on it before rolling.
    pub fn is_noop(&self) -> bool {
        self.launch_failed <= 0.0 && self.device_oom <= 0.0 && self.throttled <= 0.0
    }

    /// Decide the fault (if any) for one launch of the kernel identified
    /// by `key` at launch attempt `launch_index`.
    ///
    /// Pure and deterministic: the decision is a hash of `(seed, key,
    /// launch_index)` mapped to a uniform draw in `[0, 1)`, compared
    /// against the cumulative probabilities in the fixed order
    /// launch-failed, device-OOM, throttled. No state is consumed, so the
    /// same triple always rolls the same fault on any thread, process, or
    /// replay. Equal to `self.at(launch_index).absorb(key).decide()`.
    pub fn roll(&self, key: &str, launch_index: u64) -> Option<Fault> {
        if self.is_noop() {
            return None;
        }
        self.at(launch_index).absorb(key).decide()
    }

    /// Start the roll of launch attempt `launch_index`: `(seed,
    /// launch_index)` absorbed, no key bytes yet.
    pub fn at(&self, launch_index: u64) -> Roll<'_> {
        Roll { plan: self, hash: Fnv::start(self.seed, launch_index) }
    }
}

/// A fault roll in progress: a [`FaultPlan`] and the hash of `(seed,
/// launch index)` plus the key bytes absorbed so far. `Copy`, so a state
/// that has absorbed a shared key prefix is extended once per key.
/// Absorbing pieces in turn equals absorbing their concatenation, and
/// `fmt::Write` absorbs formatted text without building it.
#[derive(Clone, Copy, Debug)]
pub struct Roll<'a> {
    plan: &'a FaultPlan,
    hash: Fnv,
}

impl Roll<'_> {
    /// Absorb the next piece of the key.
    pub fn absorb(self, piece: &str) -> Self {
        Roll { hash: self.hash.bytes(piece.as_bytes()), ..self }
    }

    /// The fault (if any) for the key absorbed so far: the hash's uniform
    /// draw against the cumulative probabilities in the fixed order
    /// launch-failed, device-OOM, throttled.
    pub fn decide(self) -> Option<Fault> {
        let plan = self.plan;
        let u = self.hash.unit();
        let mut edge = plan.launch_failed;
        if u < edge {
            return Some(Fault::LaunchFailed);
        }
        edge += plan.device_oom;
        if u < edge {
            return Some(Fault::DeviceOom);
        }
        edge += plan.throttled;
        if u < edge {
            return Some(Fault::Throttled { factor: plan.throttle_factor.max(1.0) });
        }
        None
    }
}

impl std::fmt::Write for Roll<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self = self.absorb(s);
        Ok(())
    }
}

/// Class of a whole-device lifecycle event.
///
/// Unlike [`Fault`] (per-kernel-launch faults inside a healthy
/// device), these take the *entire device* through the
/// `Healthy → Draining → Down → Warming → Healthy` state machine that
/// the fleet's health layer runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DeviceFaultKind {
    /// The device dies instantly: queued work fails over to surviving
    /// devices and the device is `Down` until repaired.
    Crash,
    /// The device stops accepting new work but is held until its
    /// in-flight batches drain, then goes `Down`. Queued (not yet
    /// committed) work still fails over at the hang point.
    Hang,
    /// A planned drain: the device serves out everything already queued
    /// to it, takes no new placements, then goes `Down` for repair.
    Drain,
}

impl std::fmt::Display for DeviceFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceFaultKind::Crash => write!(f, "crash"),
            DeviceFaultKind::Hang => write!(f, "hang"),
            DeviceFaultKind::Drain => write!(f, "drain"),
        }
    }
}

/// One device-lifecycle event: `device` suffers `kind` at simulated
/// stream time `t` (seconds).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct DeviceFault {
    /// Simulated time (seconds on the stream clock) the event fires.
    pub t: f64,
    /// Target device index in the fleet.
    pub device: u32,
    /// What happens to it.
    pub kind: DeviceFaultKind,
}

/// A seeded whole-device fault plan: per-device-second rates for crash /
/// hang / drain events, plus explicitly scheduled events.
///
/// Like [`FaultPlan`], the plan is a *pure function of its inputs*. Rate-
/// derived events are quantized onto fixed epochs of the simulated clock:
/// for device `d` and epoch `i`, one stateless draw
/// `unit_draw(seed, "dev{d}", i)` decides whether (and which) event fires
/// in that epoch — at most one per device per epoch — and a second draw
/// places it uniformly inside the epoch. Nothing depends on wall-clock
/// time, thread count, or evaluation order, so the same plan over the
/// same workload horizon expands to the same event list on every replay.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DeviceFaultPlan {
    /// Seed of the device-fault stream (independent of [`FaultPlan::seed`]).
    pub seed: u64,
    /// Expected crashes per device-second (quantized per epoch).
    pub crash_rate: f64,
    /// Expected hangs per device-second (quantized per epoch).
    pub hang_rate: f64,
    /// Expected planned drains per device-second (quantized per epoch).
    pub drain_rate: f64,
    /// Epoch length in simulated seconds for rate quantization (> 0).
    pub epoch: f64,
    /// Simulated seconds a device stays `Down` before warming.
    pub repair: f64,
    /// Simulated seconds of `Warming` (cold `PlanCache` spin-up) charged
    /// on the device clock before it serves again.
    pub warmup: f64,
    /// Explicitly scheduled events, merged with the rate-derived stream.
    pub scheduled: Vec<DeviceFault>,
}

impl DeviceFaultPlan {
    /// A plan that never fires (all rates zero, nothing scheduled).
    pub fn quiet(seed: u64) -> DeviceFaultPlan {
        DeviceFaultPlan {
            seed,
            crash_rate: 0.0,
            hang_rate: 0.0,
            drain_rate: 0.0,
            epoch: 0.05,
            repair: 0.05,
            warmup: 0.02,
            scheduled: Vec::new(),
        }
    }

    /// A plan with the given crash / hang / drain rates (events per
    /// device-second) and default epoch, repair, and warmup times.
    pub fn new(seed: u64, crash_rate: f64, hang_rate: f64, drain_rate: f64) -> DeviceFaultPlan {
        DeviceFaultPlan { crash_rate, hang_rate, drain_rate, ..DeviceFaultPlan::quiet(seed) }
    }

    /// Override the rate-quantization epoch (simulated seconds, > 0).
    pub fn with_epoch(mut self, epoch: f64) -> DeviceFaultPlan {
        self.epoch = epoch;
        self
    }

    /// Override the `Down` duration (simulated seconds).
    pub fn with_repair(mut self, repair: f64) -> DeviceFaultPlan {
        self.repair = repair;
        self
    }

    /// Override the `Warming` duration (simulated seconds).
    pub fn with_warmup(mut self, warmup: f64) -> DeviceFaultPlan {
        self.warmup = warmup;
        self
    }

    /// Schedule a crash of `device` at simulated time `t`.
    pub fn crash_at(self, t: f64, device: u32) -> DeviceFaultPlan {
        self.at(t, device, DeviceFaultKind::Crash)
    }

    /// Schedule a hang of `device` at simulated time `t`.
    pub fn hang_at(self, t: f64, device: u32) -> DeviceFaultPlan {
        self.at(t, device, DeviceFaultKind::Hang)
    }

    /// Schedule a planned drain of `device` at simulated time `t`.
    pub fn drain_at(self, t: f64, device: u32) -> DeviceFaultPlan {
        self.at(t, device, DeviceFaultKind::Drain)
    }

    fn at(mut self, t: f64, device: u32, kind: DeviceFaultKind) -> DeviceFaultPlan {
        self.scheduled.push(DeviceFault { t, device, kind });
        self
    }

    /// Whether the plan can never fire. Like [`FaultPlan::is_noop`], a
    /// no-op plan must be indistinguishable from no plan at all (the
    /// failover tests check this field for field), so callers
    /// short-circuit on it before expanding events.
    pub fn is_noop(&self) -> bool {
        self.crash_rate <= 0.0
            && self.hang_rate <= 0.0
            && self.drain_rate <= 0.0
            && self.scheduled.is_empty()
    }

    /// Expand the plan into the concrete, time-ordered event list for a
    /// `k`-device fleet over `[0, horizon]` simulated seconds.
    ///
    /// Pure and deterministic: rate-derived events come from stateless
    /// draws keyed on `(seed, device, epoch index)`; scheduled events are
    /// filtered to valid devices and the horizon, then everything is
    /// sorted by `(t, device)`. The horizon is the caller's last arrival
    /// time, so every emitted event has a routing point to fire at.
    pub fn events_for(&self, k: usize, horizon: f64) -> Vec<DeviceFault> {
        let mut out: Vec<DeviceFault> = self
            .scheduled
            .iter()
            .copied()
            .filter(|e| (e.device as usize) < k && e.t >= 0.0 && e.t <= horizon)
            .collect();
        let any_rate = self.crash_rate > 0.0 || self.hang_rate > 0.0 || self.drain_rate > 0.0;
        if any_rate && self.epoch > 0.0 && horizon >= 0.0 {
            let epochs = (horizon / self.epoch).floor() as u64 + 1;
            let p_crash = (self.crash_rate.max(0.0) * self.epoch).min(1.0);
            let p_hang = (self.hang_rate.max(0.0) * self.epoch).min(1.0);
            let p_drain = (self.drain_rate.max(0.0) * self.epoch).min(1.0);
            for d in 0..k as u32 {
                let key = format!("dev{d}");
                let tkey = format!("dev{d}/t");
                for i in 0..epochs {
                    let u = unit_draw(self.seed, &key, i);
                    let kind = if u < p_crash {
                        DeviceFaultKind::Crash
                    } else if u < p_crash + p_hang {
                        DeviceFaultKind::Hang
                    } else if u < p_crash + p_hang + p_drain {
                        DeviceFaultKind::Drain
                    } else {
                        continue;
                    };
                    let t = (i as f64 + unit_draw(self.seed, &tkey, i)) * self.epoch;
                    if t <= horizon {
                        out.push(DeviceFault { t, device: d, kind });
                    }
                }
            }
        }
        out.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.device.cmp(&b.device)));
        out
    }
}

/// Uniform draw in `[0, 1)` from `(seed, key, index)`.
fn unit_draw(seed: u64, key: &str, index: u64) -> f64 {
    Fnv::start(seed, index).bytes(key.as_bytes()).unit()
}

/// FNV-1a state over the little-endian bytes of a seed and an index,
/// then any key bytes, finalized with the SplitMix64 mixer so nearby
/// indices decorrelate.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;

    fn start(seed: u64, index: u64) -> Fnv {
        Fnv(Fnv::OFFSET).bytes(&seed.to_le_bytes()).bytes(&index.to_le_bytes())
    }

    fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(bytes.iter().fold(self.0, |h, &b| (h ^ b as u64).wrapping_mul(Fnv::PRIME)))
    }

    /// SplitMix64-finalize the hash; its top 53 bits give a draw in `[0, 1)`.
    fn unit(self) -> f64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_is_a_pure_function_of_its_inputs() {
        let plan = FaultPlan::new(42, 0.05, 0.01, 0.02);
        for i in 0..256u64 {
            assert_eq!(plan.roll("k", i), plan.roll("k", i));
        }
        // Distinct seeds give distinct streams (somewhere in 256 rolls).
        let other = FaultPlan::new(43, 0.05, 0.01, 0.02);
        assert!((0..256).any(|i| plan.roll("k", i) != other.roll("k", i)));
        // Distinct keys give distinct streams too.
        assert!((0..256).any(|i| plan.roll("k", i) != plan.roll("j", i)));
    }

    /// Exact rolls, recorded before the hash became incremental: the draw
    /// bits and the fault under quarter rates for each class. A change
    /// that moves one changed every fault timeline.
    #[test]
    fn rolls_match_the_pinned_values() {
        let quarter = FaultPlan::new(0, 0.25, 0.25, 0.25).with_throttle_factor(3.0);
        let alexnet = "AlexNet/N128/CV1/direct-chwn";
        let throttled = Some(Fault::Throttled { factor: 3.0 });
        let rows: &[(u64, &str, u64, u64, Option<Fault>)] = &[
            (42, alexnet, 0, 0x3fe5_6465_cee9_e87c, throttled),
            (42, alexnet, 1, 0x3fef_9f05_b5f4_122a, None),
            (42, alexnet, 2, 0x3fc7_f5d7_87ba_1170, Some(Fault::LaunchFailed)),
            (42, alexnet, 3, 0x3fda_02b2_9257_58ea, Some(Fault::DeviceOom)),
            (7, "CIFAR/N64/PL1/chwn", 1000, 0x3fc0_f9a2_6ea4_4510, Some(Fault::LaunchFailed)),
            (u64::MAX, "", u64::MAX, 0x3fba_0562_df96_c4b8, Some(Fault::LaunchFailed)),
            (1, "réseau/N4096/卷积/mm", 17, 0x3fee_b09f_5be7_2fca, None),
        ];
        for &(seed, key, index, bits, fault) in rows {
            assert_eq!(unit_draw(seed, key, index).to_bits(), bits, "{seed} {key:?} {index}");
            let plan = FaultPlan { seed, ..quarter };
            assert_eq!(plan.roll(key, index), fault, "{seed} {key:?} {index}");
        }
    }

    #[test]
    fn absorbing_pieces_equals_absorbing_the_whole_key() {
        use std::fmt::Write;
        let plan = FaultPlan::new(9, 0.3, 0.2, 0.3);
        let (network, batch) = ("réseau", 4096);
        for i in [0, 1, 77, u64::MAX] {
            let mut prefix = plan.at(i);
            write!(prefix, "{network}/N{batch}/").unwrap();
            let piecewise = prefix.absorb("卷积").absorb("/").absorb("mm").decide();
            assert_eq!(piecewise, plan.roll("réseau/N4096/卷积/mm", i));
            assert_eq!(plan.at(i).absorb("").decide(), plan.roll("", i));
        }
    }

    #[test]
    fn noop_plan_never_fires_and_certain_plan_always_fires() {
        let quiet = FaultPlan::quiet(7);
        assert!(quiet.is_noop());
        assert!((0..1000).all(|i| quiet.roll("any", i).is_none()));

        let certain = FaultPlan::new(7, 1.0, 0.0, 0.0);
        assert!((0..1000).all(|i| certain.roll("any", i) == Some(Fault::LaunchFailed)));
        let oom = FaultPlan::new(7, 0.0, 1.0, 0.0);
        assert!((0..1000).all(|i| oom.roll("any", i) == Some(Fault::DeviceOom)));
        let throttle = FaultPlan::new(7, 0.0, 0.0, 1.0).with_throttle_factor(3.0);
        assert!(
            (0..1000).all(|i| throttle.roll("any", i) == Some(Fault::Throttled { factor: 3.0 }))
        );
    }

    #[test]
    fn observed_rates_track_configured_rates() {
        let plan = FaultPlan::new(1, 0.05, 0.01, 0.02);
        let n = 20_000u64;
        let mut counts = [0u64; 3];
        for i in 0..n {
            match plan.roll("conv/CV1/mm", i) {
                Some(Fault::LaunchFailed) => counts[0] += 1,
                Some(Fault::DeviceOom) => counts[1] += 1,
                Some(Fault::Throttled { .. }) => counts[2] += 1,
                None => {}
            }
        }
        let rate = |c: u64| c as f64 / n as f64;
        assert!((rate(counts[0]) - 0.05).abs() < 0.01, "transient rate {}", rate(counts[0]));
        assert!((rate(counts[1]) - 0.01).abs() < 0.005, "oom rate {}", rate(counts[1]));
        assert!((rate(counts[2]) - 0.02).abs() < 0.007, "throttle rate {}", rate(counts[2]));
    }

    #[test]
    fn throttle_factor_is_clamped_to_at_least_one() {
        let plan = FaultPlan::new(7, 0.0, 0.0, 1.0).with_throttle_factor(0.5);
        assert_eq!(plan.roll("k", 0), Some(Fault::Throttled { factor: 1.0 }));
    }

    #[test]
    fn device_plan_expansion_is_pure_sorted_and_bounded() {
        let plan = DeviceFaultPlan::new(9, 2.0, 1.0, 1.0).with_epoch(0.01);
        let a = plan.events_for(4, 0.5);
        let b = plan.events_for(4, 0.5);
        assert_eq!(a, b, "expansion must be a pure function of (plan, k, horizon)");
        assert!(!a.is_empty(), "rates this hot must fire within half a second");
        for w in a.windows(2) {
            assert!(
                w[0].t < w[1].t || (w[0].t == w[1].t && w[0].device <= w[1].device),
                "events must be (t, device)-ordered"
            );
        }
        for e in &a {
            assert!(e.device < 4 && e.t >= 0.0 && e.t <= 0.5);
        }
        // A longer horizon only appends: the shared prefix is identical.
        let longer = plan.events_for(4, 1.0);
        assert!(longer.len() >= a.len());
        // Different seeds give different event streams.
        let other = DeviceFaultPlan::new(10, 2.0, 1.0, 1.0).with_epoch(0.01).events_for(4, 0.5);
        assert_ne!(a, other);
    }

    #[test]
    fn device_plan_noop_and_scheduled_filtering() {
        let quiet = DeviceFaultPlan::quiet(3);
        assert!(quiet.is_noop());
        assert!(quiet.events_for(8, 10.0).is_empty());
        assert!(DeviceFaultPlan::new(3, 0.0, 0.0, 0.0).is_noop());

        // Scheduled events make the plan non-noop; out-of-range devices
        // and events past the horizon are dropped at expansion.
        let plan = DeviceFaultPlan::quiet(3)
            .crash_at(0.1, 1)
            .hang_at(0.2, 9)
            .drain_at(5.0, 0)
            .drain_at(0.05, 0);
        assert!(!plan.is_noop());
        let ev = plan.events_for(2, 1.0);
        assert_eq!(
            ev,
            vec![
                DeviceFault { t: 0.05, device: 0, kind: DeviceFaultKind::Drain },
                DeviceFault { t: 0.1, device: 1, kind: DeviceFaultKind::Crash },
            ]
        );
    }
}
