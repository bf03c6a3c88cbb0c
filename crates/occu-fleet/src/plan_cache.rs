//! Cache of compiled inference plans, keyed by graph shape, model
//! version, and numeric precision.
//!
//! A [`CompiledPlan`] snapshots weight values (pre-packed for the
//! blocked GEMM), so it is only valid for the model version it was
//! compiled from. The version lives in the cache key — a reloaded
//! model can never execute a stale plan — and [`PlanCache::clear`] is
//! additionally called on `/reload` so dead plans release their
//! packed-panel memory immediately instead of aging out of the LRU.
//!
//! Shapes alone determine a plan's register layout: the featurized
//! node/edge/global matrices and index arrays are execution-time
//! inputs, never baked in, so every request with the same
//! `(n_nodes, n_edges)` reuses one plan. [`Precision`] is in the key
//! because the lowering bakes differently-encoded weight snapshots
//! into the program — two tenants sharing a model file at different
//! precisions must never share a plan.

use crate::cache::{CacheStats, LruCache};
use occu_core::gnn::DnnOccu;
use occu_core::{CompiledPlan, FeaturizedGraph, Precision};
use std::sync::{Arc, Mutex, MutexGuard};

/// How many distinct graph shapes keep their compiled plan resident.
/// Serving workloads revisit a small set of model architectures, so
/// this comfortably covers the working set while bounding the packed
/// weight copies held alive.
pub const PLAN_CACHE_CAPACITY: usize = 64;

type Key = (usize, usize, u64, Precision);

/// Shared, thread-safe LRU of compiled plans.
pub struct PlanCache {
    inner: Mutex<LruCache<Key, Arc<CompiledPlan>>>,
}

impl PlanCache {
    /// Creates a cache holding up to `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(LruCache::new(capacity)) }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<Key, Arc<CompiledPlan>>> {
        // A poisoned lock only means a panicking thread held it; the
        // LRU is structurally sound after any complete operation.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Returns the plan for `fg`'s shape under `version`, compiling
    /// and inserting it on miss. Compilation happens outside the
    /// lock, so a slow compile never stalls concurrent lookups; two
    /// racing compiles of one key both succeed and the second insert
    /// is simply dropped.
    pub fn get_or_compile(
        &self,
        model: &DnnOccu,
        version: u64,
        fg: &FeaturizedGraph,
        precision: Precision,
    ) -> Arc<CompiledPlan> {
        let key = (fg.num_nodes(), fg.edge_src.len(), version, precision);
        if let Some(plan) = self.lock().get(&key) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(model.compile_plan_for_with(fg, precision));
        let mut guard = self.lock();
        // Counter-neutral re-check: the first `get` already recorded
        // this lookup as a miss, and misses map to the `compiles`
        // gauge — one compile must count once.
        if let Some(existing) = guard.peek(&key) {
            return Arc::clone(existing);
        }
        guard.insert(key, Arc::clone(&plan));
        plan
    }

    /// Drops every cached plan (model reload).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occu_core::dataset::make_sample;
    use occu_core::gnn::DnnOccuConfig;
    use occu_gpusim::DeviceSpec;
    use occu_models::ModelId;

    fn graph(id: ModelId) -> FeaturizedGraph {
        make_sample(id, id.default_config(), &DeviceSpec::a100()).features
    }

    #[test]
    fn same_shape_reuses_plan_and_new_version_recompiles() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 5);
        let fg = graph(ModelId::LeNet);
        let cache = PlanCache::new(8);

        let p1 = cache.get_or_compile(&model, 1, &fg, Precision::F32);
        let p2 = cache.get_or_compile(&model, 1, &fg, Precision::F32);
        assert!(Arc::ptr_eq(&p1, &p2), "same shape+version must share one plan");

        let p3 = cache.get_or_compile(&model, 2, &fg, Precision::F32);
        assert!(!Arc::ptr_eq(&p1, &p3), "a new model version must not reuse old plans");

        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2, "one counted miss per actual compile");
        assert_eq!(s.len, 2);
    }

    #[test]
    fn distinct_precisions_get_distinct_plan_entries() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 5);
        let fg = graph(ModelId::LeNet);
        let cache = PlanCache::new(8);

        let f32_plan = cache.get_or_compile(&model, 1, &fg, Precision::F32);
        let i8_plan = cache.get_or_compile(&model, 1, &fg, Precision::Int8);
        assert!(!Arc::ptr_eq(&f32_plan, &i8_plan), "precision must be part of the cache key");
        assert_eq!(f32_plan.precision(), Precision::F32);
        assert_eq!(i8_plan.precision(), Precision::Int8);
        assert_eq!(cache.stats().len, 2);

        let again = cache.get_or_compile(&model, 1, &fg, Precision::Int8);
        assert!(Arc::ptr_eq(&i8_plan, &again), "same precision must hit its own entry");
    }

    #[test]
    fn cached_plan_predictions_match_interpreter_bitwise() {
        use occu_core::OccuPredictor;
        let model = DnnOccu::new(DnnOccuConfig::fast(), 7);
        let cache = PlanCache::new(8);
        for id in [ModelId::LeNet, ModelId::AlexNet] {
            let fg = graph(id);
            let plan = cache.get_or_compile(&model, 1, &fg, Precision::F32);
            assert_eq!(plan.predict(&fg).to_bits(), model.predict(&fg).to_bits());
        }
    }

    #[test]
    fn clear_empties_the_cache() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 8, ..DnnOccuConfig::fast() }, 9);
        let cache = PlanCache::new(8);
        cache.get_or_compile(&model, 1, &graph(ModelId::LeNet), Precision::F32);
        assert_eq!(cache.stats().len, 1);
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }
}
