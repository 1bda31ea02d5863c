//! The per-bucket plan cache: first use of a batch-size bucket compiles
//! the network at that `N` through [`Engine::plan`] (layout DP + mechanism
//! selection, accelerated by the simulation cache's prewarms); every later
//! batch in the bucket reuses the compiled plan. Hits and misses go to the
//! global perf registry (`serve.plan.hit` / `serve.plan.miss`), and each
//! compile bumps `engine.plan.compile` inside the engine — together they
//! prove repeat buckets never re-run the layout DP.
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
        }
    }

    /// The plan for `bucket`, compiling it on first use. Plan failures are
    /// classified through [`EngineError::plan`] so callers can tell
    /// degradable plan-time OOM from structural infeasibility.
    pub fn get(&mut self, bucket: usize) -> Result<&Plan, EngineError> {
        if self.plans.contains_key(&bucket) {
            perf::incr("serve.plan.hit");
        } else {
            perf::incr("serve.plan.miss");
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

    /// Drop every compiled and staged plan, leaving the cache as freshly
    /// constructed. The fleet's healer calls this when a replacement
    /// device warms up: its per-(device, network, bucket) cache starts
    /// cold and every discarded plan (the return value) must be
    /// recompiled on demand.
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
        let compiles0 = perf::get("engine.plan.compile");
        let t1 = cache.get(16).unwrap().total_time();
        let after_first = perf::get("engine.plan.compile");
        assert!(after_first > compiles0, "first use must compile");
        let t2 = cache.get(16).unwrap().total_time();
        assert_eq!(perf::get("engine.plan.compile"), after_first, "repeat must not compile");
        assert_eq!(t1.to_bits(), t2.to_bits());
        assert_eq!(cache.len(), 1);
        // A different bucket compiles a different plan at its own N.
        assert_eq!(cache.get(64).unwrap().batch, 64);
        assert_eq!(cache.len(), 2);
    }
}
