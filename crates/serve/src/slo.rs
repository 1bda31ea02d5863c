//! SLO-aware scheduling pieces of the fleet loop: per-tenant lanes,
//! deadline-driven batch commit, and weighted-fair slot arbitration.
//!
//! Tenants are a mode of the one serving loop
//! ([`serve_fleet`](crate::fleet::serve_fleet)), not a separate
//! scheduler. With tenants configured, every (device, network)
//! pair splits its queue into one [`Lane`] per tenant and keeps the
//! class-blind event arithmetic — the same
//! `max(gpu_free, min(T_full, T_deadline))` window rule
//! ([`window_launch`]), the same greedy FIFO [`form`], the same
//! launch-attempt [`launch_ladder`](crate::server::launch_ladder):
//!
//! - **Deadline-aware commit**: each lane's window grows under its
//!   class's commit budget ([`crate::tenant::TenantClass::commit_budget`]) instead of
//!   the uniform policy delay, so interactive batches commit early
//!   (possibly part-full) while best-effort lanes hold up to 4x the
//!   delay to fill larger buckets — which, through the per-bucket plan
//!   cache, is also a layout decision (the paper's `Nt` thresholds).
//! - **Weighted-fair tiebreak**: when two lanes' launches tie exactly
//!   for the device slot, the larger fairness credit wins
//!   ([`lane_beats`](crate::tenant::lane_beats)); credits settle after
//!   every commit ([`settle_credits`](crate::tenant::settle_credits)), so
//!   a saturating interactive tenant cannot starve best-effort lanes
//!   indefinitely (the starvation bound pinned in `tests/slo.rs`).
//! - **Admission control**: a deterministic per-tenant token bucket on
//!   the arrival clock ([`Admission`](crate::tenant::Admission)) rejects
//!   arrivals past the tenant's rate limit before they queue; rejections
//!   keep the 0.0 latency sentinel and their own accounting column.
//!
//! Everything stays a pure function of `(engine configs, networks,
//! config)`: tenant attribution hashes `(seed, id)` without touching the
//! workload RNG, lane selection and credits are plain arithmetic in
//! commit order, and the report is bit-identical across
//! `MEMCNN_THREADS`.

use crate::fleet::window_launch;
use crate::metrics::latency_stats;
use crate::server::form;
use crate::tenant::{fairness_of, SloReport, TenantReport};
use crate::workload::Request;
use memcnn_core::EngineError;
use memcnn_trace::perf;

/// One tenant's FIFO lane on one (device, network) pair: the routed
/// requests not yet retired, and the `next` cursor past the served (or
/// shed) ones.
///
/// A lane keeps only what it may still need. Once its served prefix is
/// at least half the queue, [`Lane::advance`] drops that prefix and
/// counts it in `retired`, so the queue is at most twice the pending
/// requests and each request is moved O(1) times amortized. Every
/// reader indexes from `next` (`form`, `window_launch`, the overdue and
/// batch sheds, failover's [`Lane::take_pending`]) and so sees the same
/// requests either way. The one reader of the served prefix is
/// [`lane_preempts`], which searches the lane's whole routed history;
/// it reads the retired part as the `retired` requests it was (see
/// [`history_partition_point`]).
pub(crate) struct Lane {
    pub(crate) queue: Vec<Request>,
    pub(crate) next: usize,
    /// Served or shed requests dropped from the front of `queue`.
    retired: usize,
    /// The latest arrival among the retired requests (debug check of
    /// the invariant [`lane_preempts`] relies on).
    retired_max: f64,
}

impl Lane {
    pub(crate) fn new() -> Lane {
        Lane { queue: Vec::new(), next: 0, retired: 0, retired_max: f64::NEG_INFINITY }
    }

    /// Requests routed but not yet served or shed.
    pub(crate) fn pending(&self) -> &[Request] {
        &self.queue[self.next..]
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.next < self.queue.len()
    }

    /// Requests routed to the lane and still held by it: retired, served
    /// or pending (failover's [`Lane::take_pending`] hands some away).
    pub(crate) fn routed(&self) -> usize {
        self.retired + self.queue.len()
    }

    /// Mark `queue[next..end]` served or shed, and retire the served
    /// prefix once it is at least half the queue.
    pub(crate) fn advance(&mut self, end: usize) {
        debug_assert!(self.next <= end && end <= self.queue.len());
        self.next = end;
        if end > 0 && 2 * end >= self.queue.len() {
            let max = self.queue.drain(..end).fold(self.retired_max, |m, r| m.max(r.arrival));
            self.retired_max = max;
            self.retired += end;
            self.next = 0;
        }
    }

    /// Remove and return the pending requests (a failover): the lane
    /// keeps only its served history.
    pub(crate) fn take_pending(&mut self) -> std::vec::Drain<'_, Request> {
        self.queue.drain(self.next..)
    }
}

/// `partition_point(pred)` over the lane's whole routed history — the
/// `retired` requests followed by `queue` — when `pred` holds for every
/// retired request: the std binary search's probes, replayed over the
/// virtual slice. A failover requeue appends requests that arrived
/// before the ones already queued, so a lane need not be sorted by
/// arrival; on such a lane the result depends on which positions the
/// search probes, and replaying them over the full history keeps it
/// equal to a search of a lane that never retired anything.
fn history_partition_point(
    retired: usize,
    queue: &[Request],
    pred: impl Fn(&Request) -> bool,
) -> usize {
    let holds = |i: usize| i < retired || pred(&queue[i - retired]);
    let mut size = retired + queue.len();
    if size == 0 {
        return 0;
    }
    let mut base = 0usize;
    while size > 1 {
        let half = size / 2;
        if holds(base + half) {
            base += half;
        }
        size -= half;
    }
    base + holds(base) as usize
}

/// Whether committing `(launch, images)` displaced a tentative larger
/// batch on `lane`: the lane's own batch — formed from requests that
/// had arrived by `launch` — would have launched later with more
/// images. Only arrived work counts: the loop routes exactly the
/// `arrival <= launch` prefix before any commit (the route-first rule),
/// so the cutoff keeps the count independent of how far routing ran
/// ahead.
///
/// The cutoff searches the lane's whole history, retired requests
/// included. Those all satisfy `arrival <= launch`: each was served in a
/// batch launched at or after its arrival, or shed once its device's
/// clock passed its arrival plus a non-negative shed deadline, and
/// `launch` is at or after that device clock.
pub(crate) fn lane_preempts(
    lane: &Lane,
    budget: f64,
    gpu_free: f64,
    emax: usize,
    launch: f64,
    images: usize,
) -> bool {
    debug_assert!(lane.retired_max <= launch, "a retired request arrived after {launch}");
    let end = history_partition_point(lane.retired, &lane.queue, |r| r.arrival <= launch);
    if end <= lane.retired + lane.next {
        return false;
    }
    let view = &lane.queue[..end - lane.retired];
    let l2 = window_launch(view, lane.next, gpu_free, emax, budget);
    let (_, imgs2, _) = form(view, lane.next, l2, emax);
    l2 > launch && imgs2 > images
}

/// Assemble the per-tenant accounting section from independently
/// tallied components (`tenant_of` maps a request id to its tenant).
/// `in_flight` comes from residual lane depths — 0 for drained runs. An unbalanced result is a typed
/// `EngineError::Fatal`, in release builds too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn slo_report(
    tenants: &[crate::tenant::TenantSpec],
    latencies: &[f64],
    tenant_of: impl Fn(u64) -> usize,
    admitted: &[u64],
    rejected: &[u64],
    completed: &[u64],
    shed: &[u64],
    in_flight: &[u64],
    images: &[u64],
    violations: &[u64],
    early_commits: u64,
    preemptions: u64,
    failed_over: &[u64],
    in_transit: &[u64],
    device_seconds: f64,
) -> Result<SloReport, EngineError> {
    let nt = tenants.len();
    let mut lat_by: Vec<Vec<f64>> = vec![Vec::new(); nt];
    for (id, &l) in latencies.iter().enumerate() {
        if l > 0.0 {
            lat_by[tenant_of(id as u64)].push(l);
        }
    }
    let reports: Vec<TenantReport> = (0..nt)
        .map(|t| TenantReport {
            name: tenants[t].name.clone(),
            class: tenants[t].class,
            weight: tenants[t].weight,
            admitted: admitted[t],
            rejected: rejected[t],
            completed: completed[t],
            shed: shed[t],
            in_flight: in_flight[t],
            images: images[t],
            violations: violations[t],
            failed_over: failed_over[t],
            failed_over_in_transit: in_transit[t],
            latency: latency_stats(&lat_by[t]),
            weighted_share: if tenants[t].weight > 0.0 {
                images[t] as f64 / tenants[t].weight
            } else {
                0.0
            },
        })
        .collect();
    let slo = SloReport {
        fairness: fairness_of(&reports),
        violations: violations.iter().sum(),
        rejected: rejected.iter().sum(),
        early_commits,
        preemptions,
        device_seconds,
        failed_over: failed_over.iter().sum(),
        failed_over_in_transit: in_transit.iter().sum(),
        tenants: reports,
    };
    perf::add("slo.commit.early", slo.early_commits);
    perf::add("slo.preempt", slo.preemptions);
    perf::add("slo.reject", slo.rejected);
    perf::add("slo.violation", slo.violations);
    slo.check_balanced()?;
    Ok(slo)
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use proptest::prelude::*;

    /// A lane that never retires: an append-only queue and a cursor.
    struct Model {
        queue: Vec<Request>,
        next: usize,
    }

    /// [`lane_preempts`] over the model: the std search of the whole
    /// queue.
    fn model_preempts(
        m: &Model,
        budget: f64,
        gpu_free: f64,
        emax: usize,
        launch: f64,
        images: usize,
    ) -> bool {
        let end = m.queue.partition_point(|r| r.arrival <= launch);
        if end <= m.next {
            return false;
        }
        let view = &m.queue[..end];
        let l2 = window_launch(view, m.next, gpu_free, emax, budget);
        let (_, imgs2, _) = form(view, m.next, l2, emax);
        l2 > launch && imgs2 > images
    }

    fn bits(reqs: &[Request]) -> Vec<(u64, u64, usize)> {
        reqs.iter().map(|r| (r.id, r.arrival.to_bits(), r.images)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A retiring lane against one that never retires, under routes,
        /// served prefixes, failovers and requeues of older arrivals
        /// (which leave the lane unsorted): the pending requests, the
        /// routed count and every preemption answer agree. Queries
        /// launch no earlier than any served arrival, as the fleet's do.
        #[test]
        fn a_retiring_lane_answers_like_one_that_never_retires(
            ops in prop::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..120),
        ) {
            let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
            let mut lane = Lane::new();
            let mut model = Model { queue: Vec::new(), next: 0 };
            let (mut clock, mut served_max, mut id) = (0.0f64, 0.0f64, 0u64);
            let mut transit: Vec<Request> = Vec::new();
            for (op, x, y) in ops {
                match op {
                    0 | 1 => {
                        clock += 0.004 * unit(x);
                        let r = Request { id, arrival: clock, images: 1 + (y % 4) as usize };
                        id += 1;
                        lane.queue.push(r);
                        model.queue.push(r);
                    }
                    2 => {
                        let k = (x as usize) % (model.queue.len() - model.next + 1);
                        for r in &model.queue[model.next..model.next + k] {
                            served_max = served_max.max(r.arrival);
                        }
                        model.next += k;
                        lane.advance(lane.next + k);
                    }
                    3 => {
                        let moved: Vec<Request> = lane.take_pending().collect();
                        prop_assert_eq!(bits(&moved), bits(&model.queue.split_off(model.next)));
                        transit.extend(moved);
                    }
                    _ => {
                        let r = transit.pop().unwrap_or_else(|| {
                            id += 1;
                            Request { id: id - 1, arrival: clock * unit(x), images: 1 }
                        });
                        lane.queue.push(r);
                        model.queue.push(r);
                    }
                }
                prop_assert_eq!(bits(lane.pending()), bits(&model.queue[model.next..]));
                prop_assert_eq!(lane.routed(), model.queue.len());
                let launch = served_max.max(clock * unit(y));
                let gpu_free = launch * unit(x ^ y);
                let (emax, images) = (1 + (x % 12) as usize, (y % 9) as usize);
                let budget = 0.01 * unit(y.rotate_left(17));
                prop_assert_eq!(
                    lane_preempts(&lane, budget, gpu_free, emax, launch, images),
                    model_preempts(&model, budget, gpu_free, emax, launch, images),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::batch::BatchPolicy;
    use crate::fleet::{serve_fleet, FleetConfig, FleetReport};
    use crate::placement::Placement;
    use crate::tenant::TenantSpec;
    use crate::workload::{Arrival, Phase, WorkloadConfig};
    use memcnn_core::{Engine, LayoutThresholds, Network, NetworkBuilder};
    use memcnn_gpusim::DeviceConfig;
    use memcnn_tensor::Shape;

    fn tiny_engine() -> Engine {
        Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper())
    }

    fn tiny_net() -> Network {
        NetworkBuilder::new("tiny-slo", Shape::new(1, 4, 16, 16))
            .conv("CV", 8, 3, 1, 1)
            .max_pool("PL", 2, 2)
            .build()
            .unwrap()
    }

    /// A one-device, round-robin run: the single-device server.
    fn serve_one(engine: &Engine, net: &Network, cfg: &FleetConfig) -> FleetReport {
        serve_fleet(&[engine], std::slice::from_ref(net), cfg).unwrap()
    }

    fn config(workload: WorkloadConfig, policy: BatchPolicy) -> FleetConfig {
        FleetConfig::new(workload, policy, Placement::RoundRobin)
    }

    fn mix() -> Vec<TenantSpec> {
        vec![
            TenantSpec::interactive("chat", 0.02, 1.0),
            TenantSpec::standard("web", 1.0),
            TenantSpec::best_effort("batch", 1.0),
        ]
    }

    #[test]
    fn tenant_run_serves_everything_with_balanced_accounting() {
        let engine = tiny_engine();
        let net = tiny_net();
        let cfg = config(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 400.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 5,
            },
            BatchPolicy::new(32, 0.005),
        )
        .with_tenants(mix());
        let report = serve_one(&engine, &net, &cfg);
        assert!(report.requests > 0);
        assert!(report.latencies.iter().all(|&l| l > 0.0));
        let slo = report.slo.as_ref().unwrap();
        assert!(slo.balanced());
        assert_eq!(slo.tenants.len(), 3);
        assert_eq!(slo.rejected, 0);
        assert_eq!(slo.tenants.iter().map(|t| t.admitted).sum::<u64>(), report.requests as u64);
        assert_eq!(slo.tenants.iter().map(|t| t.completed).sum::<u64>(), report.requests as u64);
        // Keyed histograms landed per tenant, and every tenant served.
        for t in &slo.tenants {
            assert!(t.completed > 0, "tenant {} starved", t.name);
            assert_eq!(report.timeline.keyed_hist(&t.name).map(|h| h.count()), Some(t.completed));
        }
        // Fairness is finite when nobody starved.
        assert!(slo.fairness.ratio >= 1.0);
        // Replays bit-identically.
        let again = serve_one(&engine, &net, &cfg);
        let bits =
            |r: &FleetReport| -> Vec<u64> { r.latencies.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&report), bits(&again));
    }

    #[test]
    fn rate_limited_tenant_rejects_and_stays_balanced() {
        let engine = tiny_engine();
        let net = tiny_net();
        let tenants = vec![
            TenantSpec::interactive("chat", 0.02, 1.0),
            TenantSpec::best_effort("batch", 1.0).with_rate_limit(20.0),
        ];
        let cfg = config(
            WorkloadConfig {
                phases: vec![Phase { arrival: Arrival::Poisson { rate: 800.0 }, duration: 0.2 }],
                images_min: 1,
                images_max: 4,
                seed: 7,
            },
            BatchPolicy::new(32, 0.005),
        )
        .with_tenants(tenants);
        let report = serve_one(&engine, &net, &cfg);
        let slo = report.slo.as_ref().unwrap();
        assert!(slo.balanced());
        assert!(slo.rejected > 0, "the 20 req/s cap must reject under ~400 req/s of traffic");
        let capped = &slo.tenants[1];
        assert!(capped.rejected > 0 && capped.completed > 0);
        // Rejected requests keep the 0.0 sentinel and are excluded from
        // the latency summary.
        assert_eq!(
            report.latency().count as u64,
            slo.tenants.iter().map(|t| t.completed).sum::<u64>()
        );
        assert_eq!(
            report.latencies.iter().filter(|&&l| l == 0.0).count() as u64,
            slo.rejected,
            "only rejected requests may hold the sentinel in a shed-free run"
        );
    }

    #[test]
    fn interactive_budget_commits_earlier_than_class_blind() {
        // A tight interactive budget must cut that tenant's p99 below
        // the class-blind run's, and the early-commit counter must see
        // the deadline rule fire.
        let engine = tiny_engine();
        let net = tiny_net();
        let wl = WorkloadConfig {
            phases: vec![Phase { arrival: Arrival::Poisson { rate: 300.0 }, duration: 0.3 }],
            images_min: 1,
            images_max: 4,
            seed: 11,
        };
        let policy = BatchPolicy::new(64, 0.02);
        let tenants = vec![
            TenantSpec::interactive("chat", 0.008, 1.0),
            TenantSpec::best_effort("batch", 1.0),
        ];
        let aware = serve_one(&engine, &net, &config(wl.clone(), policy).with_tenants(tenants));
        let blind = serve_one(&engine, &net, &config(wl, policy));
        let slo = aware.slo.as_ref().unwrap();
        assert!(slo.early_commits > 0, "the 4 ms interactive budget must fire early commits");
        let chat_p99 = slo.tenants[0].latency.p99;
        assert!(
            chat_p99 < blind.latency().p99,
            "interactive p99 {chat_p99} must beat class-blind {}",
            blind.latency().p99
        );
    }
}
