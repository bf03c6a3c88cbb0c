//! # occu-serve
//!
//! The serving layer: a long-lived occupancy-prediction server that
//! turns the one-shot `occu predict` pipeline into an online service,
//! the way PerfSeer-style predictors are consumed by tuning and
//! co-location scheduling loops. Std-only — the HTTP listener is
//! plain `std::net`, threads are `std::thread`, queues are `mpsc`.
//!
//! ## Architecture
//!
//! ```text
//!             accept thread (bounded queue, overflow -> 503)
//!                  │
//!        ┌─────────┼─────────┐
//!     worker    worker    worker        fixed pool, keep-alive HTTP/1.1
//!        │         │         │
//!        │   FleetRegistry: tenant      `{"tenant": ...}` selector;
//!        │   lookup + token-bucket      over-rate -> 429 Retry-After
//!        │   admission (occu-fleet)
//!        │         │
//!        └── prediction LRU cache       key: tenant + fingerprint/
//!                 │ miss                     config + device + version
//!            fair miss queue            bounded; weighted round-robin
//!                 │                     across tenants; full -> 429
//!        the request's worker           drains the queue until its own
//!                 │                     replies are in; a panicking job
//!                 │                     fails its request with a 500
//!          compiled plans               per-tenant PlanCache, f32 or
//!                 │                     int8, one forward per graph
//!                 │
//!          ModelRegistry (per tenant)   Arc swap on POST /reload;
//!                                       in-flight work finishes on
//!                                       the old model
//! ```
//!
//! * [`http`] — minimal HTTP/1.1 request/response framing with hard
//!   header/body limits; anything outside the subset is a clean 4xx.
//! * `occu-fleet` provides the building blocks: the prediction LRU,
//!   the fair queue, token buckets, plan caches, and the hot-reloadable
//!   [`ModelRegistry`] slots of the multi-tenant [`FleetRegistry`].
//! * [`batch`] — the queued cache-miss job and [`batch::run_job`],
//!   which the draining workers call.
//! * [`server`] — the listener, worker pool, router, the one
//!   prediction cache and miss queue, and graceful drain
//!   ([`Server::shutdown`] completes every accepted request before
//!   returning).
//!
//! ## Endpoints
//!
//! | endpoint         | method | body                                      |
//! |------------------|--------|-------------------------------------------|
//! | `/predict`       | POST   | `{"model": "...", "batch": N, ...}` or `{"graph": {...}}`; optional `"tenant"` selects a fleet model |
//! | `/predict_batch` | POST   | array of the same specs                   |
//! | `/healthz`       | GET    | —                                         |
//! | `/metrics`       | GET    | — (Prometheus text exposition: typed families, histogram buckets, per-stage `serve_stage_us` summaries, per-tenant families) |
//! | `/reload`        | POST   | optional `{"path": "model.json", "model": "tenant"}` |
//! | `/debug/statusz` | GET    | — (uptime, per-model fleet info, ISA, config, counters, cache, miss queue depth) |
//! | `/debug/tracez`  | GET    | — (recent + notable request traces)       |
//! | `/debug/varz`    | GET    | — (raw `occu-obs` metrics snapshot JSON)  |
//!
//! Every request is threaded through a [`telemetry::RequestCtx`]
//! recording a per-stage breakdown (queue-wait → parse → cache →
//! featurize → batch-dwell → predict → serialize → write) into
//! rolling percentile windows and a flight recorder — see
//! [`telemetry`].
//!
//! Every failure maps to a 4xx/5xx with a single-line `error: ...`
//! body, mirroring the CLI's `occu-error` exit-code taxonomy.

#![warn(clippy::unwrap_used)]

pub mod batch;
pub mod http;
pub mod server;
pub mod telemetry;

pub use occu_fleet::{CacheStats, FleetRegistry, ModelRegistry, Precision};
pub use server::{DrainStats, ServeConfig, Server};
pub use telemetry::{RequestCtx, Stage, Telemetry, STAGE_NAMES};

use occu_error::OccuError;
use std::fmt;

/// A request-scoped serving failure: an HTTP status plus a one-line
/// message. The body sent to the client is `error: <message>\n`.
#[derive(Clone, Debug)]
pub struct ServeError {
    /// HTTP status code (4xx client, 5xx server).
    pub status: u16,
    /// One-line description (never contains a newline).
    pub message: String,
    /// Seconds the client should wait before retrying. Set only by
    /// [`ServeError::throttled`] (429) and rendered as a
    /// `Retry-After` header.
    pub retry_after: Option<f64>,
}

impl ServeError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        let mut message = message.into();
        // The one-line contract is part of the wire format.
        message.retain(|c| c != '\n' && c != '\r');
        Self { status, message, retry_after: None }
    }

    /// 400 — the request itself is malformed.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        Self::new(400, msg)
    }

    /// 404 — unknown route or model name.
    pub fn not_found(msg: impl Into<String>) -> Self {
        Self::new(404, msg)
    }

    /// 405 — known route, wrong method.
    pub fn method_not_allowed(msg: impl Into<String>) -> Self {
        Self::new(405, msg)
    }

    /// 413 — body or header section exceeds the configured limit.
    pub fn too_large(msg: impl Into<String>) -> Self {
        Self::new(413, msg)
    }

    /// 422 — well-formed input with impossible values.
    pub fn unprocessable(msg: impl Into<String>) -> Self {
        Self::new(422, msg)
    }

    /// 429 — per-tenant admission control rejected the request
    /// (token bucket exhausted or the miss queue is full).
    /// `retry_after_s` is surfaced as the `Retry-After` header.
    pub fn throttled(msg: impl Into<String>, retry_after_s: f64) -> Self {
        let mut e = Self::new(429, msg);
        e.retry_after = Some(if retry_after_s.is_finite() { retry_after_s.max(0.0) } else { 1.0 });
        e
    }

    /// 500 — the server failed, not the request.
    pub fn internal(msg: impl Into<String>) -> Self {
        Self::new(500, msg)
    }

    /// 503 — backpressure: the accept queue is full.
    pub fn unavailable(msg: impl Into<String>) -> Self {
        Self::new(503, msg)
    }

    /// The one-line response body.
    pub fn body(&self) -> String {
        format!("error: {}\n", self.message)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl From<OccuError> for ServeError {
    /// Maps the pipeline taxonomy onto HTTP: client-caused failures
    /// (unparseable bytes, out-of-range knobs, inconsistent shapes)
    /// are 4xx; impossible-but-well-formed data is 422; only `Io`
    /// (the server's own filesystem) is a 500.
    fn from(e: OccuError) -> Self {
        let status = match e.kind() {
            "parse" | "config" | "shape" => 400,
            "data" => 422,
            _ => 500,
        };
        Self::new(status, e.to_string())
    }
}

/// Process-wide shutdown signaling for the `occu serve` CLI: SIGINT /
/// SIGTERM set a flag the serve loop polls, so the process drains
/// in-flight work instead of dying mid-request.
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// True once SIGINT/SIGTERM arrived (or a test called
    /// [`request_shutdown`]).
    pub fn shutdown_requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    /// Requests shutdown programmatically (tests, embedders).
    pub fn request_shutdown() {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs SIGINT + SIGTERM handlers that flip the flag. Uses the
    /// libc `signal` entry point std already links against — the
    /// handler only touches an atomic, which is async-signal-safe.
    #[cfg(unix)]
    pub fn install() {
        unsafe extern "C" fn handler(_sig: i32) {
            REQUESTED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, handler as *const () as usize);
            signal(SIGTERM, handler as *const () as usize);
        }
    }

    /// No-op on non-unix targets; ctrl-c falls back to hard exit.
    #[cfg(not(unix))]
    pub fn install() {}
}
