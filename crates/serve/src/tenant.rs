//! Multi-tenant SLO classes, deterministic tenant attribution, and
//! per-tenant accounting.
//!
//! A tenant is a named traffic source with a service class, an arrival
//! weight, and an optional admission rate limit. Tenants never perturb
//! the request stream itself: each generated request's tenant is a
//! splitmix64 hash of `(seed, request id)` and a cumulative-weight pick
//! ([`tenant_tags`] over ids `0..n`) — a pure function that touches no
//! RNG state, computed per request rather than tabled over the stream —
//! so the *arrivals* of a tenant-enabled run are bit-identical to the
//! tenant-free stream, and a class-blind run of the same config (tenants
//! cleared) serves exactly the same requests.
//!
//! Accounting follows the `FaultStats` discipline: every attributed
//! request ends in exactly one of `completed`, `shed`, `rejected`, or
//! `in_flight`, and [`TenantReport::balanced`] /
//! [`SloReport::balanced`] check the identity per tenant and in
//! aggregate. The components are tallied independently (completions from
//! the latency vector, sheds at the shed sites, rejections at admission,
//! in-flight from residual queues), so the balance is a real invariant,
//! not an arithmetic tautology.

use crate::metrics::LatencyStats;
use memcnn_core::EngineError;
use serde::Serialize;

/// Service class of a tenant: what the scheduler owes its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenantClass {
    /// Latency-sensitive traffic with a p99 budget in seconds. The
    /// batcher commits this tenant's batches early — at half the budget
    /// if that is tighter than the policy delay — and served latencies
    /// above the budget count as SLO violations.
    Interactive {
        /// The p99 latency budget, seconds.
        p99_budget: f64,
    },
    /// Ordinary traffic: batched under the configured policy delay.
    Standard,
    /// Throughput traffic with no latency promise: the batcher may hold
    /// its batches up to 4x the policy delay to fill larger buckets;
    /// the fairness deficit counter still guarantees eventual service.
    BestEffort,
}

impl TenantClass {
    /// Scheduling rank: lower is more latency-sensitive (the last
    /// tiebreak when launches and fairness credits tie exactly).
    pub fn rank(&self) -> u8 {
        match self {
            TenantClass::Interactive { .. } => 0,
            TenantClass::Standard => 1,
            TenantClass::BestEffort => 2,
        }
    }

    /// The class's batch-commit budget given the policy's
    /// `max_queue_delay`: how long the oldest queued request of this
    /// class may wait before its batch launches part-full.
    pub fn commit_budget(&self, policy_delay: f64) -> f64 {
        match *self {
            TenantClass::Interactive { p99_budget } => policy_delay.min(0.5 * p99_budget),
            TenantClass::Standard => policy_delay,
            TenantClass::BestEffort => 4.0 * policy_delay,
        }
    }

    /// The p99 budget, for classes that promise one.
    pub fn p99_budget(&self) -> Option<f64> {
        match *self {
            TenantClass::Interactive { p99_budget } => Some(p99_budget),
            _ => None,
        }
    }

    /// Stable lowercase name (`interactive` / `standard` /
    /// `best-effort`) — the spelling scenario TOML files use.
    pub fn name(&self) -> &'static str {
        match self {
            TenantClass::Interactive { .. } => "interactive",
            TenantClass::Standard => "standard",
            TenantClass::BestEffort => "best-effort",
        }
    }
}

// Manual impl: the vendored serde derive handles unit enums only.
impl Serialize for TenantClass {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        self.name().serialize_json(out);
        if let TenantClass::Interactive { p99_budget } = *self {
            out.push_str(",\"p99_budget\":");
            p99_budget.serialize_json(out);
        }
        out.push('}');
    }
}

/// One tenant's declaration in a `FleetConfig`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantSpec {
    /// Tenant name (stable key for metrics series and reports).
    pub name: String,
    /// Service class.
    pub class: TenantClass,
    /// Arrival weight: the fraction of the stream attributed to this
    /// tenant is `weight / sum(weights)`. Also the tenant's fair share
    /// in the deficit counter.
    pub weight: f64,
    /// Admission rate limit, requests per second (`None`: unlimited).
    /// Enforced by a deterministic token bucket on the arrival clock
    /// with a one-second burst allowance.
    pub rate_limit: Option<f64>,
}

impl TenantSpec {
    /// An interactive tenant with a p99 budget (seconds).
    pub fn interactive(name: &str, p99_budget: f64, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class: TenantClass::Interactive { p99_budget },
            weight,
            rate_limit: None,
        }
    }

    /// A standard-class tenant.
    pub fn standard(name: &str, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class: TenantClass::Standard,
            weight,
            rate_limit: None,
        }
    }

    /// A best-effort tenant.
    pub fn best_effort(name: &str, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            class: TenantClass::BestEffort,
            weight,
            rate_limit: None,
        }
    }

    /// The same tenant with an admission rate limit (requests/second).
    pub fn with_rate_limit(mut self, rate: f64) -> TenantSpec {
        self.rate_limit = Some(rate);
        self
    }
}

/// splitmix64 finalizer over `(seed, id)` — the attribution hash.
fn mix(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tenant of request `id`, by weight: a pure function of `(seed, id,
/// weights)` that consumes no RNG state — the workload's own stream is
/// untouched, so arrivals are bit-identical with or without tenants
/// configured. The fleet loop calls it per request instead of keeping a
/// table over the stream.
pub(crate) fn tenant_of(seed: u64, id: u64, tenants: &[TenantSpec]) -> u32 {
    let total: f64 = tenants.iter().map(|t| t.weight.max(0.0)).sum();
    if total <= 0.0 {
        return 0; // no tenants, or no positive weight
    }
    // 53 uniform bits, exactly representable in f64.
    let u = (mix(seed, id) >> 11) as f64 / (1u64 << 53) as f64;
    let x = u * total;
    let mut acc = 0.0f64;
    for (t, spec) in tenants.iter().enumerate() {
        acc += spec.weight.max(0.0);
        if x < acc {
            return t as u32;
        }
    }
    (tenants.len() - 1) as u32
}

/// Attribute `n` requests to tenants by weight: `tags[id]` is
/// [`tenant_of`] request `id`.
pub fn tenant_tags(seed: u64, n: usize, tenants: &[TenantSpec]) -> Vec<u32> {
    (0..n as u64).map(|id| tenant_of(seed, id, tenants)).collect()
}

/// One tenant's share of a finished run. Every count is in requests
/// except `images`.
#[derive(Clone, Debug, Serialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Service class.
    pub class: TenantClass,
    /// Arrival weight.
    pub weight: f64,
    /// Requests the stream attributed to this tenant.
    pub admitted: u64,
    /// Requests refused by admission control (never queued).
    pub rejected: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped after admission (deadline or fault shedding).
    pub shed: u64,
    /// Requests still queued when the run ended (0 for drained runs).
    pub in_flight: u64,
    /// Images the completed requests carried.
    pub images: u64,
    /// Served requests whose latency exceeded the class's p99 budget
    /// (always 0 for classes without one).
    pub violations: u64,
    /// Requests that ever failed over from a dead device (cumulative —
    /// a request can fail over more than once, so this is *not* part of
    /// the balance identity; 0 without a `DeviceFaultPlan`).
    pub failed_over: u64,
    /// Requests still in the failover transit buffer when the run
    /// ended (0 for drained runs — the flush re-places or sheds them).
    pub failed_over_in_transit: u64,
    /// Latency summary over this tenant's completed requests.
    pub latency: LatencyStats,
    /// Weighted share: completed images per unit weight. The fairness
    /// observable — equal weighted shares mean the deficit counter hit
    /// its target.
    pub weighted_share: f64,
}

impl TenantReport {
    /// The scheduling analogue of `FaultStats::balanced`: every
    /// attributed request is accounted exactly once. With device
    /// faults, requests mid-failover count through
    /// `failed_over_in_transit`.
    pub fn balanced(&self) -> bool {
        self.admitted
            == self.completed
                + self.shed
                + self.rejected
                + self.in_flight
                + self.failed_over_in_transit
    }
}

/// Fleet-level fairness over weighted shares.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct SloFairness {
    /// Largest weighted share across tenants.
    pub share_max: f64,
    /// Smallest weighted share across tenants.
    pub share_min: f64,
    /// `share_max / share_min`; `-1.0` when some tenant completed
    /// nothing (the starved sentinel — a finite ratio means no tenant
    /// starved).
    pub ratio: f64,
}

/// The multi-tenant section of a finished report.
#[derive(Clone, Debug, Serialize)]
pub struct SloReport {
    /// Per-tenant accounting, in config order.
    pub tenants: Vec<TenantReport>,
    /// Max/min weighted share across tenants.
    pub fairness: SloFairness,
    /// SLO violations across tenants.
    pub violations: u64,
    /// Admission rejections across tenants.
    pub rejected: u64,
    /// Batches committed early to protect a class budget.
    pub early_commits: u64,
    /// Commits that won a device slot from a lane with a larger formed
    /// batch (the deadline-aware preemption counter).
    pub preemptions: u64,
    /// Simulated device-seconds of occupancy consumed across the fleet
    /// (attempts, backoffs, and completed service) — the denominator of
    /// the `slo.cost` metric.
    pub device_seconds: f64,
    /// Requests that ever failed over, summed over tenants (cumulative;
    /// not in the balance identity).
    pub failed_over: u64,
    /// Requests still in the failover transit buffer at the end of the
    /// run, summed over tenants (0 for drained runs).
    pub failed_over_in_transit: u64,
}

impl SloReport {
    /// Balance per tenant AND in aggregate (the extended identity:
    /// `admitted == completed + shed + rejected + in_flight +
    /// failed_over_in_transit`).
    pub fn balanced(&self) -> bool {
        let agg_ok = {
            let (mut adm, mut done, mut shed, mut rej, mut fly, mut transit) =
                (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
            for t in &self.tenants {
                adm += t.admitted;
                done += t.completed;
                shed += t.shed;
                rej += t.rejected;
                fly += t.in_flight;
                transit += t.failed_over_in_transit;
            }
            adm == done + shed + rej + fly + transit
        };
        agg_ok && self.tenants.iter().all(TenantReport::balanced)
    }

    /// [`SloReport::balanced`] as a typed error, checked in release
    /// builds too: `EngineError::Fatal` listing every tenant's tallies.
    pub(crate) fn check_balanced(&self) -> Result<(), EngineError> {
        if self.balanced() {
            return Ok(());
        }
        let rows: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{}: admitted {} vs completed {} + shed {} + rejected {} + in_flight {} \
                     + in_transit {}",
                    t.name,
                    t.admitted,
                    t.completed,
                    t.shed,
                    t.rejected,
                    t.in_flight,
                    t.failed_over_in_transit
                )
            })
            .collect();
        Err(EngineError::Fatal(format!(
            "per-tenant accounting out of balance: {}",
            rows.join("; ")
        )))
    }

    /// The SLO-violation cost metric: device-seconds consumed per
    /// violation. A violation-free run reports the full device-seconds
    /// (cost of perfection); higher is better only when violations are
    /// also lower — benches report both.
    pub fn cost(&self) -> f64 {
        self.device_seconds / (self.violations.max(1)) as f64
    }
}

/// Compute the fairness summary from per-tenant weighted shares.
pub(crate) fn fairness_of(tenants: &[TenantReport]) -> SloFairness {
    let mut share_max = 0.0f64;
    let mut share_min = f64::INFINITY;
    for t in tenants {
        share_max = share_max.max(t.weighted_share);
        share_min = share_min.min(t.weighted_share);
    }
    if !share_min.is_finite() {
        share_min = 0.0;
    }
    let ratio = if share_min > 0.0 { share_max / share_min } else { -1.0 };
    SloFairness { share_max, share_min, ratio }
}

/// Settle the fairness deficit counters after a committed batch: every
/// tenant with pending work on the device earns `images` split by
/// weight, and the served tenant pays the full `images` — so a tenant
/// that keeps losing slots accumulates credit and eventually wins the
/// exactly-tied launch tiebreak (the starvation bound). `pending(u)`
/// reads the post-commit queue state; deterministic because it is pure
/// device-local arithmetic in commit order.
pub(crate) fn settle_credits<F: Fn(usize) -> bool>(
    credits: &mut [f64],
    tenants: &[TenantSpec],
    pending: F,
    served: usize,
    images: usize,
) {
    let w: f64 = tenants
        .iter()
        .enumerate()
        .filter(|&(u, _)| pending(u))
        .map(|(_, s)| s.weight.max(0.0))
        .sum();
    if w > 0.0 {
        for (u, spec) in tenants.iter().enumerate() {
            if pending(u) {
                credits[u] += images as f64 * spec.weight.max(0.0) / w;
            }
        }
    }
    credits[served] -= images as f64;
}

/// Whether a candidate lane `(launch, credit, class rank)` beats the
/// current best under the SLO tiebreak: earliest launch first, then —
/// on an exactly-equal launch — largest fairness credit, then the more
/// latency-sensitive class. Equal on all three keeps the incumbent
/// (deterministic first-wins iteration order).
pub(crate) fn lane_beats(cand: (f64, f64, u8), best: (f64, f64, u8)) -> bool {
    if cand.0 != best.0 {
        return cand.0 < best.0;
    }
    if cand.1 != best.1 {
        return cand.1 > best.1;
    }
    cand.2 < best.2
}

/// Deterministic per-tenant admission control: a token bucket on the
/// arrival clock with a one-second burst allowance. Tenants without a
/// rate limit always admit.
pub(crate) struct Admission {
    /// `(tokens, last refill time, rate)` per tenant; `rate <= 0` means
    /// unlimited.
    state: Vec<(f64, f64, f64)>,
}

impl Admission {
    pub(crate) fn new(tenants: &[TenantSpec]) -> Admission {
        Admission {
            state: tenants
                .iter()
                .map(|t| {
                    let rate = t.rate_limit.unwrap_or(0.0);
                    (rate.max(1.0), 0.0, rate)
                })
                .collect(),
        }
    }

    /// Admit or reject one arrival of tenant `t` at time `now`.
    pub(crate) fn admit(&mut self, t: usize, now: f64) -> bool {
        let (tokens, last, rate) = &mut self.state[t];
        if *rate <= 0.0 {
            return true;
        }
        let burst = rate.max(1.0);
        *tokens = (*tokens + (now - *last) * *rate).min(burst);
        *last = now;
        if *tokens >= 1.0 {
            *tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Vec<TenantSpec> {
        vec![
            TenantSpec::interactive("chat", 0.05, 1.0),
            TenantSpec::standard("web", 2.0),
            TenantSpec::best_effort("batch", 1.0),
        ]
    }

    #[test]
    fn tags_are_pure_and_weight_proportional() {
        let tenants = three();
        let a = tenant_tags(42, 10_000, &tenants);
        let b = tenant_tags(42, 10_000, &tenants);
        assert_eq!(a, b, "attribution must be a pure function of (seed, id)");
        let c = tenant_tags(43, 10_000, &tenants);
        assert_ne!(a, c, "a different seed must shuffle the attribution");
        // Shares land near the 1:2:1 weights.
        let count = |tags: &[u32], t: u32| tags.iter().filter(|&&x| x == t).count() as f64;
        let n = a.len() as f64;
        assert!((count(&a, 0) / n - 0.25).abs() < 0.03);
        assert!((count(&a, 1) / n - 0.50).abs() < 0.03);
        assert!((count(&a, 2) / n - 0.25).abs() < 0.03);
        // A prefix of a longer run matches the shorter run exactly
        // (per-id hashing, no sequential RNG state).
        let long = tenant_tags(42, 20_000, &tenants);
        assert_eq!(&long[..10_000], &a[..]);
    }

    #[test]
    fn degenerate_tenant_lists_tag_zero() {
        assert_eq!(tenant_tags(1, 4, &[]), vec![0; 4]);
        let zero = vec![TenantSpec::standard("z", 0.0)];
        assert_eq!(tenant_tags(1, 4, &zero), vec![0; 4]);
    }

    #[test]
    fn commit_budgets_order_by_class() {
        let delay = 0.004;
        let int = TenantClass::Interactive { p99_budget: 0.002 };
        assert!((int.commit_budget(delay) - 0.001).abs() < 1e-12);
        // A roomy budget never loosens past the policy delay.
        let loose = TenantClass::Interactive { p99_budget: 1.0 };
        assert_eq!(loose.commit_budget(delay), delay);
        assert_eq!(TenantClass::Standard.commit_budget(delay), delay);
        assert!((TenantClass::BestEffort.commit_budget(delay) - 0.016).abs() < 1e-12);
        assert!(int.rank() < TenantClass::Standard.rank());
        assert!(TenantClass::Standard.rank() < TenantClass::BestEffort.rank());
    }

    #[test]
    fn admission_bucket_rejects_past_the_rate() {
        let tenants = vec![
            TenantSpec::standard("open", 1.0),
            TenantSpec::standard("capped", 1.0).with_rate_limit(10.0),
        ];
        let mut adm = Admission::new(&tenants);
        // Unlimited tenant admits everything.
        for i in 0..100 {
            assert!(adm.admit(0, i as f64 * 1e-4));
        }
        // The capped tenant admits its 10-token burst, then rejects a
        // tight volley, then recovers with the clock.
        let mut admitted = 0;
        for i in 0..100 {
            if adm.admit(1, i as f64 * 1e-4) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10, "burst allowance is one second of rate");
        assert!(adm.admit(1, 10.0), "tokens must refill on the arrival clock");
    }

    #[test]
    fn balance_and_fairness_summaries() {
        let t = TenantReport {
            name: "chat".to_string(),
            class: TenantClass::Standard,
            weight: 1.0,
            admitted: 10,
            rejected: 2,
            completed: 7,
            shed: 1,
            in_flight: 0,
            images: 20,
            violations: 0,
            latency: LatencyStats::default(),
            weighted_share: 20.0,
            failed_over: 0,
            failed_over_in_transit: 0,
        };
        assert!(t.balanced());
        let mut bad = t.clone();
        bad.shed = 2;
        assert!(!bad.balanced());
        let starved = TenantReport { weighted_share: 0.0, completed: 0, admitted: 3, ..t.clone() };
        // Unbalanced starved row: 3 != 0 + 1 + 2 + 0 is false -> fix.
        let starved = TenantReport { shed: 1, rejected: 2, ..starved };
        assert!(starved.balanced());
        let f = fairness_of(&[t.clone(), starved]);
        assert_eq!(f.ratio, -1.0, "a tenant with nothing completed is the starved sentinel");
        let f2 = fairness_of(&[t.clone(), TenantReport { weighted_share: 10.0, ..t }]);
        assert!((f2.ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unbalanced_slo_report_is_a_typed_error() {
        let row = TenantReport {
            name: "chat".to_string(),
            class: TenantClass::Standard,
            weight: 1.0,
            admitted: 10,
            rejected: 2,
            completed: 7,
            shed: 1,
            in_flight: 0,
            images: 20,
            violations: 0,
            latency: LatencyStats::default(),
            weighted_share: 20.0,
            failed_over: 0,
            failed_over_in_transit: 0,
        };
        let mut slo = SloReport {
            tenants: vec![row],
            fairness: SloFairness { share_max: 20.0, share_min: 20.0, ratio: 1.0 },
            violations: 0,
            rejected: 2,
            early_commits: 0,
            preemptions: 0,
            device_seconds: 1.0,
            failed_over: 0,
            failed_over_in_transit: 0,
        };
        assert_eq!(slo.check_balanced(), Ok(()));
        slo.tenants[0].completed = 6;
        assert_eq!(
            slo.check_balanced(),
            Err(EngineError::Fatal(
                "per-tenant accounting out of balance: chat: admitted 10 vs completed 6 + shed 1 \
                 + rejected 2 + in_flight 0 + in_transit 0"
                    .to_string()
            ))
        );
    }

    #[test]
    fn class_serializes_with_budget_only_when_present() {
        let mut out = String::new();
        TenantClass::Interactive { p99_budget: 0.05 }.serialize_json(&mut out);
        assert_eq!(out, "{\"kind\":\"interactive\",\"p99_budget\":0.05}");
        let mut out = String::new();
        TenantClass::BestEffort.serialize_json(&mut out);
        assert_eq!(out, "{\"kind\":\"best-effort\"}");
    }
}
