//! # occu-fleet
//!
//! Multi-tenant fleet primitives for occupancy-as-a-service. The
//! single-model `occu-serve` pipeline scales out by composing the
//! pieces in this crate:
//!
//! ```text
//!   request ── tenant lookup ──► FleetRegistry        (named models,
//!                  │                                   per-tenant plan
//!                  ▼                                   caches + counters)
//!            TokenBucket         admission: over-rate → 429 Retry-After
//!                  │
//!                  ▼
//!              LruCache          the server's one prediction cache
//!                  │ miss
//!                  ▼
//!             FairQueue          the server's one miss queue: bounded,
//!                  │             weighted-fair dequeue per tenant;
//!                  ▼             overflow → 429
//!          request's worker      (lives in occu-serve) drains the
//!                                queue, runs plans
//! ```
//!
//! * [`registry`] — the hot-reloadable [`ModelRegistry`] slot
//!   (moved here from `occu-serve`) plus the multi-tenant
//!   [`FleetRegistry`] of named [`TenantSlot`]s.
//! * [`fair`] — a bounded MPMC queue with deficit-weighted
//!   round-robin dequeue across tenants.
//! * [`bucket`] — a lazily-refilled token bucket for per-tenant rate
//!   limits; `Option<TokenBucket>` = unlimited with zero cost.
//! * [`cache`] — the order-tracked [`LruCache`] with exact
//!   hit/miss/eviction counters (the server's prediction cache).
//! * [`plan_cache`] — compiled-plan LRU keyed by graph shape and
//!   model version; one instance per tenant.
//!
//! Everything is std-only: locks are `Mutex`/`RwLock` — no external
//! dependencies.

#![warn(clippy::unwrap_used)]

pub mod bucket;
pub mod cache;
pub mod fair;
pub mod plan_cache;
pub mod registry;

pub use bucket::TokenBucket;
pub use cache::{CacheStats, LruCache};
pub use fair::FairQueue;
pub use plan_cache::{PlanCache, PLAN_CACHE_CAPACITY};
pub use occu_core::Precision;
pub use registry::{FleetBuilder, FleetRegistry, LoadedModel, ModelRegistry, TenantSlot};
