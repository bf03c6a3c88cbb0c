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
//!              HashRing          consistent-hash fingerprint → shard
//!                  │
//!                  ▼
//!             FairQueue          bounded, weighted-fair dequeue per
//!                  │             tenant; overflow → 429
//!                  ▼
//!          request's worker      (lives in occu-serve) shard LruCache
//!                                miss → drains the queue, runs plans
//! ```
//!
//! * [`registry`] — the hot-reloadable [`ModelRegistry`] slot
//!   (moved here from `occu-serve`) plus the multi-tenant
//!   [`FleetRegistry`] of named [`TenantSlot`]s.
//! * [`ring`] — a consistent-hash ring with virtual nodes; adding a
//!   shard remaps only ~1/N of the keyspace, so per-shard result
//!   caches stay warm across topology changes.
//! * [`fair`] — a bounded MPMC queue with deficit-weighted
//!   round-robin dequeue across tenants.
//! * [`bucket`] — a lazily-refilled token bucket for per-tenant rate
//!   limits; `Option<TokenBucket>` = unlimited with zero cost.
//! * [`cache`] — the order-tracked [`LruCache`] with exact
//!   hit/miss/eviction counters (the per-shard prediction caches).
//! * [`plan_cache`] — compiled-plan LRU keyed by graph shape and
//!   model version; one instance per tenant.
//!
//! Everything is std-only: locks are `Mutex`/`RwLock`,
//! hashing is an inlined splitmix64 — no external dependencies.

#![warn(clippy::unwrap_used)]

pub mod bucket;
pub mod cache;
pub mod fair;
pub mod plan_cache;
pub mod registry;
pub mod ring;

pub use bucket::TokenBucket;
pub use cache::{CacheStats, LruCache};
pub use fair::FairQueue;
pub use plan_cache::{PlanCache, PLAN_CACHE_CAPACITY};
pub use occu_core::Precision;
pub use registry::{FleetBuilder, FleetRegistry, LoadedModel, ModelRegistry, TenantSlot};
pub use ring::HashRing;
