//! Model registries: the single hot-reloadable slot and the
//! multi-tenant fleet of named slots.
//!
//! The live model sits behind `RwLock<Arc<LoadedModel>>`. Request
//! handlers and the threads running queued jobs clone the `Arc` out
//! (cheap, no contention beyond the read lock), so a `POST /reload`
//! swapping the slot never disturbs work already in flight: those
//! jobs finish on the model version they snapshotted. Each successful (re)load
//! bumps a monotonically increasing version, which is part of the
//! prediction cache key — stale cached predictions from an older
//! model can never be served after a reload.
//!
//! A [`FleetRegistry`] holds N named [`TenantSlot`]s, each pairing a
//! `ModelRegistry` with its own compiled-plan cache, fair-dequeue
//! weight, optional token-bucket rate limit, and request counters.
//! The tenant set is fixed at construction (a `BTreeMap` that is
//! never mutated afterwards), so lookups need no locking.

use crate::bucket::TokenBucket;
use crate::plan_cache::{PlanCache, PLAN_CACHE_CAPACITY};
use occu_core::gnn::DnnOccu;
use occu_core::Precision;
use occu_error::{IoContext, OccuError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// One loaded model plus its provenance.
pub struct LoadedModel {
    /// The predictor itself (plain data, `Send + Sync`).
    pub model: DnnOccu,
    /// Where the weights came from (reload defaults back to this).
    pub path: PathBuf,
    /// Monotonic version, starting at 1 for the initial load.
    pub version: u64,
    /// Unix timestamp (seconds) of when this version was loaded.
    pub loaded_at_unix_s: u64,
}

fn now_unix_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Registry holding the current model and serving atomic swaps.
pub struct ModelRegistry {
    slot: RwLock<Arc<LoadedModel>>,
    next_version: AtomicU64,
}

impl ModelRegistry {
    /// Loads the initial model from a weights JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let model = read_model(path)?;
        Ok(Self::from_model(model, path))
    }

    /// Wraps an already-constructed model (tests, in-process servers).
    pub fn from_model(model: DnnOccu, path: impl Into<PathBuf>) -> Self {
        Self {
            slot: RwLock::new(Arc::new(LoadedModel {
                model,
                path: path.into(),
                version: 1,
                loaded_at_unix_s: now_unix_s(),
            })),
            next_version: AtomicU64::new(2),
        }
    }

    /// The current model snapshot. Hold the returned `Arc` for the
    /// duration of one unit of work; re-fetch for the next.
    pub fn current(&self) -> Arc<LoadedModel> {
        match self.slot.read() {
            Ok(guard) => Arc::clone(&guard),
            // A poisoned lock only means a writer panicked mid-swap;
            // the previous Arc is still intact and safe to serve.
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Atomically replaces the model from `path` (or the current
    /// model's own path when `None`). On any failure the old model
    /// stays live and the version does not advance.
    pub fn reload(&self, path: Option<&Path>) -> Result<Arc<LoadedModel>> {
        let target: PathBuf = match path {
            Some(p) => p.to_path_buf(),
            None => self.current().path.clone(),
        };
        let model = read_model(&target)?;
        let version = self.next_version.fetch_add(1, Ordering::SeqCst);
        let loaded = Arc::new(LoadedModel {
            model,
            path: target,
            version,
            loaded_at_unix_s: now_unix_s(),
        });
        match self.slot.write() {
            Ok(mut guard) => *guard = Arc::clone(&loaded),
            Err(poisoned) => *poisoned.into_inner() = Arc::clone(&loaded),
        }
        Ok(loaded)
    }
}

fn read_model(path: &Path) -> Result<DnnOccu> {
    let text = std::fs::read_to_string(path).io_context(path.display().to_string())?;
    DnnOccu::from_json(&text)
}

/// One named tenant: a hot-reloadable model, its compiled-plan cache,
/// admission knobs, and lifetime counters. Plan caches are per-tenant
/// because a `CompiledPlan` bakes in one model's weights.
pub struct TenantSlot {
    /// Tenant name as given to `--model name=path` (or `"default"`).
    pub name: Arc<str>,
    /// The tenant's hot-reloadable model slot.
    pub registry: Arc<ModelRegistry>,
    /// Compiled plans for this tenant's model, keyed by shape+version.
    pub plan_cache: Arc<PlanCache>,
    /// Deficit-round-robin dequeue weight (≥ 1).
    pub weight: u32,
    /// Requests-per-second admission limit; `None` = unlimited and
    /// costs nothing on the hot path.
    pub bucket: Option<TokenBucket>,
    /// Dense index of this tenant within the fleet's fixed ordering —
    /// the fair queue and per-tenant metric arrays index by this.
    pub index: usize,
    /// Prediction requests admitted for this tenant.
    pub requests: AtomicU64,
    /// Requests rejected with 429 (rate limit or queue overflow).
    pub throttled: AtomicU64,
    /// Individual predictions computed (a batch spec counts each).
    pub predictions: AtomicU64,
    /// Successful `/reload`s targeting this tenant.
    pub reloads: AtomicU64,
    /// Numeric precision this tenant's plans lower weight matmuls to,
    /// stored as [`Precision`]'s discriminant so `/reload` can switch
    /// it without locking. Plans at the old precision stay cached but
    /// unreachable (precision is part of the plan-cache key).
    precision: AtomicU8,
}

/// [`Precision`] ↔ `AtomicU8` codes for the tenant slot.
fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::Int8 => 1,
    }
}

fn precision_from_code(code: u8) -> Precision {
    match code {
        1 => Precision::Int8,
        _ => Precision::F32,
    }
}

impl TenantSlot {
    fn new(
        name: Arc<str>,
        registry: Arc<ModelRegistry>,
        weight: u32,
        bucket: Option<TokenBucket>,
        precision: Precision,
        plan_cache_cap: usize,
        index: usize,
    ) -> Self {
        Self {
            name,
            registry,
            plan_cache: Arc::new(PlanCache::new(plan_cache_cap)),
            weight: weight.max(1),
            bucket,
            index,
            requests: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            precision: AtomicU8::new(precision_code(precision)),
        }
    }

    /// The precision new plan compiles for this tenant use.
    pub fn precision(&self) -> Precision {
        precision_from_code(self.precision.load(Ordering::Relaxed))
    }

    /// Switches the tenant's serving precision. Takes effect on the
    /// next plan-cache lookup; in-flight jobs keep the plan they
    /// already resolved.
    pub fn set_precision(&self, p: Precision) {
        self.precision.store(precision_code(p), Ordering::Relaxed);
    }
}

/// The fleet: an immutable map of tenant name → [`TenantSlot`] fixed
/// at construction, plus a dense slot list in registration order for
/// index-based access (fair queue lanes, metric arrays).
pub struct FleetRegistry {
    by_name: BTreeMap<Arc<str>, Arc<TenantSlot>>,
    slots: Vec<Arc<TenantSlot>>,
    default: Arc<str>,
}

impl FleetRegistry {
    /// Starts building a fleet; add tenants with [`FleetBuilder::model`].
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            entries: Vec::new(),
            plan_cache_cap: PLAN_CACHE_CAPACITY,
        }
    }

    /// Wraps one registry as the sole tenant `"default"` — the
    /// single-model server is the degenerate fleet.
    pub fn single(registry: Arc<ModelRegistry>) -> Arc<Self> {
        Self::builder()
            .model("default", registry, 1, None)
            .build()
            .unwrap_or_else(|_| unreachable!("one uniquely-named tenant always builds"))
    }

    /// Looks up a tenant by name.
    pub fn get(&self, name: &str) -> Option<&Arc<TenantSlot>> {
        self.by_name.get(name)
    }

    /// The tenant used when a request names none: the first one
    /// registered (`"default"` for [`FleetRegistry::single`]).
    pub fn default_slot(&self) -> &Arc<TenantSlot> {
        &self.slots[self.default_index()]
    }

    fn default_index(&self) -> usize {
        self.by_name.get(&self.default).map(|s| s.index).unwrap_or(0)
    }

    /// Name of the default tenant.
    pub fn default_name(&self) -> &str {
        &self.default
    }

    /// Tenant slots in registration order (dense `index` order).
    pub fn slots(&self) -> &[Arc<TenantSlot>] {
        &self.slots
    }

    /// Number of resident tenants.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Always false: a fleet has at least one tenant by construction.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Fair-dequeue weights in dense `index` order.
    pub fn weights(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.weight).collect()
    }
}

/// One pending tenant registration: name, loaded model slot,
/// fair-dequeue weight, optional admission bucket, plan precision.
type PendingTenant = (Arc<str>, Arc<ModelRegistry>, u32, Option<TokenBucket>, Precision);

/// Accumulates tenants for a [`FleetRegistry`].
pub struct FleetBuilder {
    entries: Vec<PendingTenant>,
    plan_cache_cap: usize,
}

impl FleetBuilder {
    /// Registers `name` with an already-loaded model slot, a
    /// fair-dequeue `weight` (clamped to ≥ 1), and an optional
    /// requests-per-second admission limit. Serves full-precision
    /// (f32) plans; see [`FleetBuilder::model_with_precision`].
    pub fn model(
        self,
        name: impl Into<String>,
        registry: Arc<ModelRegistry>,
        weight: u32,
        rate_rps: Option<f64>,
    ) -> Self {
        self.model_with_precision(name, registry, weight, rate_rps, Precision::F32)
    }

    /// Like [`FleetBuilder::model`] but also selects the numeric
    /// precision the tenant's plans are lowered to.
    pub fn model_with_precision(
        mut self,
        name: impl Into<String>,
        registry: Arc<ModelRegistry>,
        weight: u32,
        rate_rps: Option<f64>,
        precision: Precision,
    ) -> Self {
        let bucket = rate_rps.map(TokenBucket::per_second);
        self.entries.push((Arc::from(name.into()), registry, weight, bucket, precision));
        self
    }

    /// Overrides the per-tenant compiled-plan cache capacity
    /// (default [`PLAN_CACHE_CAPACITY`]).
    pub fn plan_cache_capacity(mut self, cap: usize) -> Self {
        self.plan_cache_cap = cap;
        self
    }

    /// Finalizes the fleet. Fails on an empty tenant list or a
    /// duplicate name — both are configuration errors, not runtime
    /// conditions.
    pub fn build(self) -> Result<Arc<FleetRegistry>> {
        if self.entries.is_empty() {
            return Err(OccuError::config("fleet", "at least one model is required"));
        }
        let default = Arc::clone(&self.entries[0].0);
        let mut by_name = BTreeMap::new();
        let mut slots = Vec::with_capacity(self.entries.len());
        for (index, (name, registry, weight, bucket, precision)) in
            self.entries.into_iter().enumerate()
        {
            let slot = Arc::new(TenantSlot::new(
                Arc::clone(&name),
                registry,
                weight,
                bucket,
                precision,
                self.plan_cache_cap,
                index,
            ));
            if by_name.insert(name, Arc::clone(&slot)).is_some() {
                return Err(OccuError::config(
                    "fleet",
                    format!("duplicate model name '{}'", slot.name),
                ));
            }
            slots.push(slot);
        }
        Ok(Arc::new(FleetRegistry { by_name, slots, default }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occu_core::gnn::DnnOccuConfig;

    fn tiny_model(seed: u64) -> DnnOccu {
        let cfg = DnnOccuConfig {
            hidden: 8,
            ..DnnOccuConfig::fast()
        };
        DnnOccu::new(cfg, seed)
    }

    #[test]
    fn reload_bumps_version_and_old_snapshot_survives() {
        let dir = std::env::temp_dir().join(format!("occu_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let p = dir.join("m.json");
        std::fs::write(&p, tiny_model(1).to_json()).expect("write");

        let reg = ModelRegistry::load(&p).expect("load");
        let before = reg.current();
        assert_eq!(before.version, 1);
        assert!(before.loaded_at_unix_s > 0, "load timestamp must be stamped");

        std::fs::write(&p, tiny_model(2).to_json()).expect("write");
        let after = reg.reload(None).expect("reload");
        assert_eq!(after.version, 2);
        assert_eq!(reg.current().version, 2);
        assert!(after.loaded_at_unix_s >= before.loaded_at_unix_s);
        // The pre-reload snapshot is still fully usable.
        assert_eq!(before.version, 1);
        assert!(before.model.num_parameters() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reload_keeps_old_model() {
        let reg = ModelRegistry::from_model(tiny_model(3), "unused.json");
        let err = match reg.reload(Some(Path::new("/nonexistent/occu/model.json"))) {
            Err(e) => e,
            Ok(_) => panic!("reload of a missing file must fail"),
        };
        assert_eq!(err.kind(), "io");
        assert_eq!(reg.current().version, 1);
    }

    #[test]
    fn fleet_lookup_default_and_order() {
        let fleet = FleetRegistry::builder()
            .model("alpha", Arc::new(ModelRegistry::from_model(tiny_model(1), "a.json")), 3, None)
            .model(
                "beta",
                Arc::new(ModelRegistry::from_model(tiny_model(2), "b.json")),
                1,
                Some(50.0),
            )
            .build()
            .expect("build");
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet.default_name(), "alpha");
        assert_eq!(fleet.default_slot().name.as_ref(), "alpha");
        assert!(fleet.get("beta").is_some());
        assert!(fleet.get("gamma").is_none());
        // Dense indices follow registration order, not BTreeMap order.
        assert_eq!(fleet.get("alpha").map(|s| s.index), Some(0));
        assert_eq!(fleet.get("beta").map(|s| s.index), Some(1));
        assert_eq!(fleet.weights(), vec![3, 1]);
        assert!(fleet.get("beta").and_then(|s| s.bucket.as_ref()).is_some());
        assert!(fleet.get("alpha").and_then(|s| s.bucket.as_ref()).is_none());
    }

    #[test]
    fn fleet_rejects_duplicates_and_empty() {
        let dup = FleetRegistry::builder()
            .model("m", Arc::new(ModelRegistry::from_model(tiny_model(1), "x.json")), 1, None)
            .model("m", Arc::new(ModelRegistry::from_model(tiny_model(2), "y.json")), 1, None)
            .build();
        assert!(dup.is_err(), "duplicate tenant names must be rejected");
        assert!(FleetRegistry::builder().build().is_err(), "empty fleet must be rejected");
    }

    #[test]
    fn tenant_precision_defaults_to_f32_and_is_switchable() {
        let fleet = FleetRegistry::builder()
            .model("plain", Arc::new(ModelRegistry::from_model(tiny_model(1), "p.json")), 1, None)
            .model_with_precision(
                "quant",
                Arc::new(ModelRegistry::from_model(tiny_model(2), "q.json")),
                1,
                None,
                Precision::Int8,
            )
            .build()
            .expect("build");
        let plain = fleet.get("plain").expect("plain");
        let quant = fleet.get("quant").expect("quant");
        assert_eq!(plain.precision(), Precision::F32);
        assert_eq!(quant.precision(), Precision::Int8);
        plain.set_precision(Precision::Int8);
        assert_eq!(plain.precision(), Precision::Int8);
        quant.set_precision(Precision::F32);
        assert_eq!(quant.precision(), Precision::F32);
    }

    #[test]
    fn single_wraps_as_default_tenant() {
        let fleet =
            FleetRegistry::single(Arc::new(ModelRegistry::from_model(tiny_model(7), "w.json")));
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet.default_name(), "default");
        assert_eq!(fleet.default_slot().weight, 1);
        assert!(!fleet.is_empty());
    }
}
