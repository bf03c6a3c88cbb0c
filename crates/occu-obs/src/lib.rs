//! # occu-obs
//!
//! The workspace's observability layer: structured tracing, a metrics
//! registry, and export sinks, dependency-free (std only) so every
//! crate can instrument its hot paths.
//!
//! ## Architecture
//!
//! * **Spans** ([`span!`], [`SpanGuard`]) — RAII guards that record
//!   wall-clock durations into a hierarchical timeline. Each thread
//!   appends finished spans to its own buffer (registered with a
//!   global collector), so the parallel gradient workers never
//!   contend on a shared lock; [`take_spans`] drains all buffers into
//!   one start-time-ordered timeline.
//! * **Metrics** ([`counter`], [`gauge`], [`histogram`]) — named
//!   atomics in a global [`Registry`]. Counters and gauges are single
//!   atomic words; histograms are fixed-bucket atomic arrays, so hot
//!   paths never allocate after the first lookup.
//! * **Request telemetry** ([`RollingWindow`], [`FlightRecorder`],
//!   [`StageWindows`], [`prom`]) — bounded-memory latency telemetry
//!   for long-lived servers: fixed-size sample rings answering
//!   p50..p999, a ring of recent + notable request traces, and
//!   Prometheus text-format rendering of it all.
//! * **Sinks** — [`spans_to_jsonl`] (one JSON object per span),
//!   [`MetricsSnapshot::to_json`], and [`render_summary`] (the
//!   human-readable end-of-run report).
//! * **Run manifests** ([`RunManifest`]) — a JSON record of the
//!   command, config, seed, version, timings, and final metrics,
//!   written next to saved models so experiments are reproducible
//!   artifacts.
//! * **Leveled logging** ([`error!`] … [`trace!`]) — stderr progress
//!   lines gated by a global level ([`set_level`], default `Info`).
//!
//! ## Overhead contract
//!
//! Recording is **off by default**: [`enabled`] is a single relaxed
//! atomic load, and every instrumentation site in the workspace
//! checks it (or goes through [`span!`], which does) before touching
//! any state, so the disabled path is a near-no-op. The opt-in
//! speed floors in `occu-bench/tests/speed_floors.rs` hold a fit with
//! recording on to a measured budget.

pub mod flight;
pub mod log;
pub mod manifest;
pub mod metrics;
pub mod percentile;
pub mod prom;
pub mod sink;
pub mod span;

pub use crate::flight::{FlightRecorder, RequestTrace, StageWindows};
pub use crate::log::{set_level, set_level_from_str, Level};
pub use crate::manifest::{version_string, RunManifest};
pub use crate::metrics::{
    Counter, EdgeMismatch, Gauge, Histogram, MetricValue, MetricsSnapshot, Registry,
};
pub use crate::percentile::{RollingWindow, WindowSnapshot};
pub use crate::sink::{render_summary, spans_to_jsonl};
pub use crate::span::{take_spans, FieldVal, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span + metric recording on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording back off. Already-recorded data stays buffered
/// until drained.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True when recording is on. One relaxed atomic load — instrument
/// sites gate on this so the disabled path stays a near-no-op.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Global counter handle (get-or-create). Cache the returned `Arc` in
/// hot loops to skip the registry lookup.
pub fn counter(name: &str) -> Arc<Counter> {
    metrics::global().counter(name)
}

/// Global gauge handle (get-or-create).
pub fn gauge(name: &str) -> Arc<Gauge> {
    metrics::global().gauge(name)
}

/// Global histogram handle (get-or-create; `edges` apply only on
/// first creation).
pub fn histogram(name: &str, edges: &[f64]) -> Arc<Histogram> {
    metrics::global().histogram(name, edges)
}

/// Point-in-time copy of every global metric (does not reset them).
pub fn metrics_snapshot() -> MetricsSnapshot {
    metrics::global().snapshot()
}

/// Removes every metric from the global registry (tests, repeated
/// studies in one process).
pub fn clear_metrics() {
    metrics::global().clear();
}
