//! The per-bucket plan cache: first use of a batch-size bucket compiles
//! the network at that `N` through [`Engine::plan`] (layout DP + mechanism
//! selection, accelerated by the simulation cache's prewarms); every later
//! batch in the bucket reuses the compiled plan. The cache counts its own
//! hits and misses ([`PlanCache::hits`] / [`PlanCache::misses`]), which
//! prove repeat buckets never re-run the layout DP; the global perf
//! registry mirrors them (`serve.plan.hit` / `serve.plan.miss`) for
//! profiling, beside the engine's own `engine.plan.compile`.
//!
//! For the fleet's batched cold-start compilation there is a *staged*
//! side-slot: [`PlanCache::compile_detached`] compiles a bucket without
//! touching the hit/miss discipline, [`PlanCache::stage`] parks the
//! result, and the next [`PlanCache::get`] for that bucket consumes it —
//! still counted as the miss it would have been. Staged results that are
//! never asked for are dropped with the cache, so speculative prewarms
//! cannot perturb counters or report contents.

use memcnn_core::{Engine, EngineError, Mechanism, Network, Plan};
use memcnn_trace::perf;
use std::collections::BTreeMap;

/// Process-wide mirrors of every cache's hit and miss counts, resolved
/// once per process (a bump is one atomic add, no name lookup).
static PLAN_HITS: perf::CachedCounter = perf::CachedCounter::new("serve.plan.hit");
static PLAN_MISSES: perf::CachedCounter = perf::CachedCounter::new("serve.plan.miss");

/// Compiled plans keyed by batch-size bucket, for one network under one
/// mechanism on one engine.
pub struct PlanCache<'e> {
    engine: &'e Engine,
    mech: Mechanism,
    template: Network,
    plans: BTreeMap<usize, Plan>,
    /// Detached-compile results awaiting their first [`PlanCache::get`];
    /// never read by [`PlanCache::plans`] or the report rollups.
    staged: BTreeMap<usize, Result<Plan, EngineError>>,
    /// [`PlanCache::get`] calls that found their bucket compiled.
    hits: u64,
    /// [`PlanCache::get`] calls that compiled (or consumed a staged plan).
    misses: u64,
}

impl<'e> PlanCache<'e> {
    /// Empty cache for `net` (any batch size; it is re-batched per bucket)
    /// under `mech`.
    pub fn new(engine: &'e Engine, net: &Network, mech: Mechanism) -> PlanCache<'e> {
        PlanCache {
            engine,
            mech,
            template: net.clone(),
            plans: BTreeMap::new(),
            staged: BTreeMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The plan for `bucket`, compiling it on first use. Plan failures are
    /// classified through [`EngineError::plan`] so callers can tell
    /// degradable plan-time OOM from structural infeasibility.
    pub fn get(&mut self, bucket: usize) -> Result<&Plan, EngineError> {
        if self.plans.contains_key(&bucket) {
            self.hits += 1;
            PLAN_HITS.incr();
        } else {
            self.misses += 1;
            PLAN_MISSES.incr();
            // A staged detached compile stands in for the inline compile
            // this miss would have run — same result, same error, same
            // counter sequence.
            let plan = match self.staged.remove(&bucket) {
                Some(staged) => staged?,
                None => self
                    .engine
                    .plan_at(&self.template, self.mech, bucket)
                    .map_err(|e| EngineError::plan(bucket, e))?,
            };
            self.plans.insert(bucket, plan);
        }
        self.plans
            .get(&bucket)
            .ok_or_else(|| EngineError::Fatal(format!("plan cache lost bucket {bucket}")))
    }

    /// Compile `bucket` without consulting or updating the cache and
    /// without touching the hit/miss counters (the engine still counts
    /// the compile itself). Safe to call from worker threads; pair with
    /// [`PlanCache::stage`] on the orchestrator.
    pub fn compile_detached(&self, bucket: usize) -> Result<Plan, EngineError> {
        self.engine
            .plan_at(&self.template, self.mech, bucket)
            .map_err(|e| EngineError::plan(bucket, e))
    }

    /// Park a detached compile's result for `bucket`; the next
    /// [`PlanCache::get`] for the bucket consumes it instead of compiling
    /// inline. A no-op once the bucket is properly cached.
    pub fn stage(&mut self, bucket: usize, result: Result<Plan, EngineError>) {
        if !self.plans.contains_key(&bucket) {
            self.staged.insert(bucket, result);
        }
    }

    /// Whether `bucket` has a compiled plan (staged results don't count).
    pub fn contains(&self, bucket: usize) -> bool {
        self.plans.contains_key(&bucket)
    }

    /// Whether a staged result is parked for `bucket`.
    pub fn has_staged(&self, bucket: usize) -> bool {
        self.staged.contains_key(&bucket)
    }

    /// Drop every compiled and staged plan, leaving the plans as freshly
    /// constructed (the hit and miss counts carry on). The fleet's healer
    /// calls this when a replacement device warms up: its per-(device,
    /// network, bucket) cache starts cold and every discarded plan (the
    /// return value) must be recompiled on demand.
    pub fn reset(&mut self) -> usize {
        let dropped = self.plans.len();
        self.plans.clear();
        self.staged.clear();
        dropped
    }

    /// All compiled plans, ascending by bucket.
    pub fn plans(&self) -> &BTreeMap<usize, Plan> {
        &self.plans
    }

    /// Number of compiled buckets.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// [`PlanCache::get`] calls so far that reused a compiled plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// [`PlanCache::get`] calls so far that compiled their bucket.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcnn_core::{LayoutThresholds, NetworkBuilder};
    use memcnn_gpusim::DeviceConfig;
    use memcnn_tensor::Shape;

    #[test]
    fn first_use_compiles_and_repeats_reuse() {
        let engine =
            Engine::new(DeviceConfig::titan_black(), LayoutThresholds::titan_black_paper());
        let net = NetworkBuilder::new("pc", Shape::new(8, 4, 12, 12))
            .conv("CV", 8, 3, 1, 1)
            .build()
            .unwrap();
        let mut cache = PlanCache::new(&engine, &net, Mechanism::Opt);
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The cache's own counts, not the process-wide perf registry that
        // other tests in this binary bump from their own threads.
        let t1 = cache.get(16).unwrap().total_time();
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "first use must compile");
        let t2 = cache.get(16).unwrap().total_time();
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "repeat must not compile");
        assert_eq!(t1.to_bits(), t2.to_bits());
        assert_eq!(cache.len(), 1);
        // A different bucket compiles a different plan at its own N.
        assert_eq!(cache.get(64).unwrap().batch, 64);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }
}
