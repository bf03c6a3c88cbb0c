//! The server proper: listener, worker pool, router, and graceful
//! drain.
//!
//! Threading model:
//!
//! * one accept thread feeding a **bounded** connection queue — when
//!   the queue is full the connection gets an immediate `503` instead
//!   of growing memory (backpressure by construction);
//! * `workers` threads each pulling connections off the queue and
//!   speaking keep-alive HTTP/1.1, and running cache misses themselves
//!   (see [`crate::batch`]).
//!
//! Request routing: the worker resolves the spec's tenant against the
//! [`FleetRegistry`] (token-bucket admission, over-rate → `429` with
//! `Retry-After`) and looks the tenant-scoped, version-keyed cache key
//! up in the server's one prediction cache. A miss enqueues a job on
//! the server's one weighted-fair miss queue; the worker then drains
//! that queue on its own thread, running queued jobs in weighted
//! round-robin order until its own replies are in or the queue is
//! empty, and blocks only on jobs other workers are running.
//!
//! Shutdown: [`Server::shutdown`] flips the shared flag, wakes the
//! accept thread (blocked in `accept`) with one loopback connection
//! and joins it (no new connections), then joins the workers — which
//! first drain every connection already queued, answering each with
//! `Connection: close`. A worker never leaves a request before every
//! job it queued has been run, so nothing accepted is ever dropped.

use crate::batch::{run_job, PredictJob, PredictReply};
use crate::http::{self, ReadOutcome, Request};
use crate::telemetry::{RequestCtx, Stage, Telemetry};
use crate::ServeError;
use occu_core::features::featurize;
use occu_core::Precision;
use occu_error::{IoContext, OccuError};
use occu_fleet::{CacheStats, FairQueue, FleetRegistry, LruCache, ModelRegistry, TenantSlot};
use occu_gpusim::DeviceSpec;
use occu_graph::{CompGraph, GraphFingerprint};
use occu_models::{ModelConfig, ModelId};
use occu_obs::{Counter, Histogram};
use rayon::prelude::*;
use serde::Value;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Device names accepted by `/predict` (the `occu-gpusim` built-ins).
const BUILTIN_DEVICES: &str = "a100, rtx2080ti, p40, v100, t4";

/// Upper bound on specs per `/predict_batch` call.
const MAX_BATCH_ITEMS: usize = 256;

/// How long a worker waits for a job another worker is running before
/// giving the client a 500. Far above any sane prediction latency.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Miss-queue depth. Workers that find the queue full answer `429` —
/// the server is genuinely saturated, and the bounded queue is what
/// keeps a flood from growing memory.
const MISS_QUEUE_DEPTH: usize = 2048;

/// The `/metrics` Content-Type mandated by the Prometheus text
/// exposition format.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Server tuning knobs; `Default` is sized for local use.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Fixed worker-thread count.
    pub workers: usize,
    /// Accept-queue depth; overflow is answered with 503.
    pub queue_cap: usize,
    /// Prediction-cache capacity in entries (0 disables caching).
    pub cache_cap: usize,
    /// Max accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Latency SLO in microseconds; requests over this (or erroring)
    /// are pinned into the flight recorder's notable ring.
    pub slo_us: f64,
    /// Flight-recorder ring capacity (traces kept per ring).
    pub recorder_cap: usize,
    /// Emit per-request linked `occu-obs` spans. Off by default: a
    /// long-lived server never drains span buffers, so only sessions
    /// that do (tests, trace captures) should turn this on.
    pub trace_spans: bool,
    /// Master switch for request telemetry (stage timing, rolling
    /// windows, flight recorder). `false` is the overhead baseline of
    /// the serve-telemetry speed floor in `occu-bench/tests/speed_floors.rs`.
    pub record: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 128,
            cache_cap: 12288,
            max_body_bytes: 4 * 1024 * 1024,
            slo_us: 5000.0,
            recorder_cap: 256,
            trace_spans: false,
            record: true,
        }
    }
}

impl ServeConfig {
    /// Rejects configurations that cannot serve.
    pub fn validate(&self) -> occu_error::Result<()> {
        if self.workers == 0 || self.workers > 256 {
            return Err(OccuError::config(
                "serve --threads",
                format!("must be in 1..=256, got {}", self.workers),
            ));
        }
        if self.queue_cap == 0 {
            return Err(OccuError::config("serve --queue", "must be at least 1"));
        }
        if self.max_body_bytes < 1024 {
            return Err(OccuError::config(
                "serve max body size",
                "must be at least 1024 bytes",
            ));
        }
        if !self.slo_us.is_finite() || self.slo_us <= 0.0 {
            return Err(OccuError::config(
                "serve --slo-us",
                format!("must be a positive number of microseconds, got {}", self.slo_us),
            ));
        }
        if self.recorder_cap == 0 || self.recorder_cap > 65536 {
            return Err(OccuError::config(
                "serve --recorder",
                format!("must be in 1..=65536, got {}", self.recorder_cap),
            ));
        }
        Ok(())
    }
}

/// Cumulative server counters, returned by [`Server::stats`] and
/// [`Server::shutdown`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainStats {
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Responses with a 4xx/5xx status (framing errors included).
    pub errors: u64,
    /// Connections bounced with 503 at the accept queue.
    pub rejected: u64,
    /// Predictions bounced with 429 by per-tenant admission control
    /// (token bucket exhausted or miss queue full).
    pub throttled: u64,
    /// Successful model reloads.
    pub reloads: u64,
    /// Prediction-cache counters.
    pub cache: CacheStats,
}

/// What one prediction spec resolves to in the cache. The tenant is
/// part of the key, so two fleet models never share predictions even
/// for identical graphs.
#[derive(Clone, PartialEq, Eq, Hash)]
enum CacheKey {
    /// Named-model request: the config tuple identifies the graph, so
    /// cache hits skip graph construction entirely.
    Named {
        tenant: Arc<str>,
        model: String,
        batch: usize,
        channels: usize,
        seq: usize,
        device: String,
        version: u64,
    },
    /// Inline-graph request, keyed by the canonical structural
    /// fingerprint (order-independent, so re-serialized or re-ordered
    /// submissions of the same graph still hit).
    Graph {
        tenant: Arc<str>,
        fp: GraphFingerprint,
        device: String,
        version: u64,
    },
}

#[derive(Clone)]
struct CachedPrediction {
    occupancy: f32,
    fingerprint: String,
}

/// One parsed `/predict` spec.
struct PredictSpec {
    tenant: Option<String>,
    model: Option<String>,
    graph: Option<Value>,
    batch: Option<usize>,
    channels: Option<usize>,
    seq: Option<usize>,
    device: String,
}

/// One answered prediction.
struct Outcome {
    occupancy: f32,
    cached: bool,
    fingerprint: String,
    tenant: Arc<str>,
    model: Option<String>,
    device: String,
    model_version: u64,
}

/// Spec resolution result: answered from cache, or a job queued on
/// the miss queue.
enum Prepared {
    Done(Outcome),
    Pending(Pending),
}

/// A queued cache miss, waiting for its reply.
struct Pending {
    key: CacheKey,
    rx: Receiver<PredictReply>,
    outcome: Outcome, // occupancy filled in on reply
}

/// An accepted connection waiting for a worker, stamped so the first
/// request can be charged its accept-queue wait.
struct QueuedConn {
    stream: TcpStream,
    accepted_at: Instant,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    throttled: AtomicU64,
    reloads: AtomicU64,
}

/// Pre-resolved metric handles so the hot path never takes the
/// registry lock.
struct ObsHandles {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    rejected: Arc<Counter>,
    throttled: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    request_us: Arc<Histogram>,
    /// Drain passes that ran at least one job, the jobs they ran, and
    /// the jobs per pass.
    batches: Arc<Counter>,
    predictions: Arc<Counter>,
    batch_size: Arc<Histogram>,
}

impl ObsHandles {
    fn new() -> Self {
        Self {
            requests: occu_obs::counter("serve.requests"),
            errors: occu_obs::counter("serve.errors"),
            rejected: occu_obs::counter("serve.rejected"),
            throttled: occu_obs::counter("serve.throttled"),
            cache_hits: occu_obs::counter("serve.cache.hits"),
            cache_misses: occu_obs::counter("serve.cache.misses"),
            request_us: occu_obs::histogram(
                "serve.request_us",
                &[50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0],
            ),
            batches: occu_obs::counter("serve.batches"),
            predictions: occu_obs::counter("serve.predictions"),
            batch_size: occu_obs::histogram("serve.batch.size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
        }
    }
}

struct ServerState {
    cfg: ServeConfig,
    fleet: Arc<FleetRegistry>,
    /// The bounded miss queue, one weighted-fair lane per tenant.
    queue: FairQueue<PredictJob>,
    /// The prediction cache, keyed per tenant and model version.
    cache: Mutex<LruCache<CacheKey, CachedPrediction>>,
    shutdown: Arc<AtomicBool>,
    stats: Stats,
    obs: ObsHandles,
    telemetry: Telemetry,
}

impl ServerState {
    fn lock_cache(&self) -> MutexGuard<'_, LruCache<CacheKey, CachedPrediction>> {
        // A poisoned cache lock only means a panicking thread held it;
        // the LRU structure is updated atomically enough to reuse.
        self.cache.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running server. Dropping without [`Server::shutdown`] stops it
/// too, without joining its threads, but `shutdown` is the intended
/// exit: it drains every accepted request and returns the drain
/// statistics.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and serves a single-model fleet — the pre-fleet entry
    /// point, kept verbatim: the model becomes the `"default"` tenant
    /// with no rate limit.
    pub fn start(cfg: ServeConfig, registry: Arc<ModelRegistry>) -> occu_error::Result<Server> {
        Self::start_fleet(cfg, FleetRegistry::single(registry))
    }

    /// Binds, spawns the thread pool, and starts serving the whole
    /// fleet.
    pub fn start_fleet(cfg: ServeConfig, fleet: Arc<FleetRegistry>) -> occu_error::Result<Server> {
        cfg.validate()?;
        let listener = TcpListener::bind(&cfg.addr).io_context(format!("bind {}", cfg.addr))?;
        let addr = listener.local_addr().io_context("listener local_addr")?;

        occu_obs::enable();
        occu_obs::gauge("serve.model_version")
            .set(fleet.default_slot().registry.current().version as f64);

        let (conn_tx, conn_rx) = mpsc::sync_channel::<QueuedConn>(cfg.queue_cap);
        let telemetry = Telemetry::new(cfg.record, cfg.trace_spans, cfg.slo_us, cfg.recorder_cap);
        let state = Arc::new(ServerState {
            queue: FairQueue::new(MISS_QUEUE_DEPTH, &fleet.weights()),
            cache: Mutex::new(LruCache::new(cfg.cache_cap)),
            fleet,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Stats::default(),
            obs: ObsHandles::new(),
            telemetry,
            cfg,
        });

        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(state.cfg.workers);
        for i in 0..state.cfg.workers {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&conn_rx);
            let handle = thread::Builder::new()
                .name(format!("occu-serve-worker-{i}"))
                .spawn(move || worker_loop(&state, &rx))
                .io_context("spawn worker thread")?;
            workers.push(handle);
        }
        let accept = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("occu-serve-accept".to_string())
                .spawn(move || accept_loop(&state, &listener, &conn_tx))
                .io_context("spawn accept thread")?
        };
        let ticker = {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name("occu-serve-ticker".to_string())
                .spawn(move || ticker_loop(&state))
                .io_context("spawn ticker thread")?
        };

        occu_obs::info!(
            "serve: listening on {addr} with {} workers, {} models",
            state.cfg.workers,
            state.fleet.len()
        );
        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            workers,
            ticker: Some(ticker),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fleet this server routes over.
    pub fn fleet(&self) -> &Arc<FleetRegistry> {
        &self.state.fleet
    }

    /// Flags shutdown without blocking (signal-handler path); follow
    /// with [`Server::shutdown`], which wakes the accept thread out of
    /// `accept` and joins every thread.
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// Counter snapshot without stopping the server.
    pub fn stats(&self) -> DrainStats {
        snapshot_stats(&self.state)
    }

    /// Stops accepting, drains every queued and in-flight request,
    /// joins all threads, and reports final counters.
    pub fn shutdown(mut self) -> DrainStats {
        self.stop_accepting();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        occu_obs::info!("serve: drained and stopped");
        snapshot_stats(&self.state)
    }

    /// Raises the shutdown flag and wakes the accept thread, which
    /// blocks in `accept`, with one connection to the listener's own
    /// port (on the loopback address of its family when it is bound to
    /// the unspecified address).
    fn stop_accepting(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            occu_obs::warn!("serve: could not wake the accept thread at {wake}: {e}");
        }
    }
}

impl Drop for Server {
    /// Stops accepting, so a server dropped without
    /// [`Server::shutdown`] (a test panicking mid-way) lets its threads
    /// exit on their own; nothing is joined. After `shutdown` there is
    /// nothing left to stop.
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_accepting();
        }
    }
}

fn snapshot_stats(state: &ServerState) -> DrainStats {
    let cache = state.lock_cache().stats();
    DrainStats {
        requests: state.stats.requests.load(Ordering::SeqCst),
        errors: state.stats.errors.load(Ordering::SeqCst),
        rejected: state.stats.rejected.load(Ordering::SeqCst),
        throttled: state.stats.throttled.load(Ordering::SeqCst),
        reloads: state.stats.reloads.load(Ordering::SeqCst),
        cache,
    }
}

/// Blocks in `accept`; after shutdown is flagged, the next connection
/// (the one [`Server`]'s `stop_accepting` makes) ends the loop.
fn accept_loop(state: &ServerState, listener: &TcpListener, conn_tx: &SyncSender<QueuedConn>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let conn = QueuedConn { stream, accepted_at: Instant::now() };
                match conn_tx.try_send(conn) {
                    Ok(()) => state.telemetry.queue_push(),
                    Err(TrySendError::Full(conn)) => {
                        let mut stream = conn.stream;
                        state.stats.rejected.fetch_add(1, Ordering::SeqCst);
                        state.obs.rejected.inc();
                        let err = ServeError::unavailable("accept queue full, retry later");
                        let _ = http::write_error(&mut stream, &err);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(state: &ServerState, conn_rx: &Mutex<Receiver<QueuedConn>>) {
    loop {
        let next = {
            let guard = match conn_rx.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(conn) => {
                state.telemetry.queue_pop();
                handle_connection(state, conn);
            }
            Err(RecvTimeoutError::Timeout) => {
                // Keep draining until the accept thread drops the
                // sender; that is the authoritative end-of-queue.
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Background sampler: mirrors queue depth and in-flight counts into
/// gauges so `/metrics` reflects live load, not just request-path
/// counters.
fn ticker_loop(state: &ServerState) {
    let queue_depth = occu_obs::gauge("serve.queue.depth");
    let inflight = occu_obs::gauge("serve.inflight");
    let uptime = occu_obs::gauge("serve.uptime_s");
    while !state.shutdown.load(Ordering::SeqCst) {
        queue_depth.set(state.telemetry.queue_depth() as f64);
        inflight.set(state.telemetry.inflight() as f64);
        uptime.set(state.telemetry.uptime_s());
        thread::sleep(Duration::from_millis(20));
    }
}

fn handle_connection(state: &ServerState, conn: QueuedConn) {
    let QueuedConn { stream, accepted_at } = conn;
    // Accept-queue wait is a connection-level cost; the first request
    // on the connection absorbs it, keep-alive follow-ups queue-wait 0.
    let mut queue_wait_us = Some(accepted_at.elapsed().as_secs_f64() * 1e6);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, state.cfg.max_body_bytes) {
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Request(req)) => {
                state.stats.requests.fetch_add(1, Ordering::SeqCst);
                state.obs.requests.inc();
                let started = Instant::now();
                let mut ctx = state.telemetry.begin();
                ctx.add(Stage::QueueWait, queue_wait_us.take().unwrap_or(0.0));
                let keep = !req.wants_close() && !state.shutdown.load(Ordering::SeqCst);
                // Safety net: a panic in a handler must cost one 500,
                // not a worker thread.
                let (status, ctype, body, retry_after) =
                    match catch_unwind(AssertUnwindSafe(|| route(state, &req, &mut ctx))) {
                        Ok(resp) => resp,
                        Err(_) => {
                            let err = ServeError::internal("handler panicked");
                            (err.status, "text/plain", err.body().into_bytes(), None)
                        }
                    };
                let error = if status >= 400 {
                    state.stats.errors.fetch_add(1, Ordering::SeqCst);
                    state.obs.errors.inc();
                    Some(String::from_utf8_lossy(&body).trim_end().to_string())
                } else {
                    None
                };
                let extra: Vec<(&str, String)> = retry_after
                    .map(|secs| ("Retry-After", http::retry_after_value(secs)))
                    .into_iter()
                    .collect();
                let write_ok = ctx
                    .time(Stage::Write, || {
                        http::write_response_with(&mut writer, status, ctype, &extra, &body, keep)
                    })
                    .is_ok();
                // The end-to-end clock stops after the socket write.
                state
                    .obs
                    .request_us
                    .observe(started.elapsed().as_micros() as f64);
                state.telemetry.finish(ctx, &req.path, status, error);
                if !write_ok || !keep {
                    return;
                }
            }
            Err(err) => {
                state.stats.errors.fetch_add(1, Ordering::SeqCst);
                state.obs.errors.inc();
                let mut ctx = state.telemetry.begin();
                ctx.add(Stage::QueueWait, queue_wait_us.take().unwrap_or(0.0));
                let _ = ctx.time(Stage::Write, || http::write_error(&mut writer, &err));
                state.telemetry.finish(ctx, "<framing>", err.status, Some(err.message.clone()));
                return;
            }
        }
    }
}

fn route(
    state: &ServerState,
    req: &Request,
    ctx: &mut RequestCtx,
) -> (u16, &'static str, Vec<u8>, Option<f64>) {
    let result: Result<(u16, &'static str, Vec<u8>), ServeError> =
        match (req.path.as_str(), req.method.as_str()) {
            ("/healthz", "GET") => Ok((200, "text/plain", b"ok\n".to_vec())),
            ("/metrics", "GET") => {
                Ok((200, METRICS_CONTENT_TYPE, render_metrics(state).into_bytes()))
            }
            ("/predict", "POST") => handle_predict(state, &req.body, ctx),
            ("/predict_batch", "POST") => handle_predict_batch(state, &req.body, ctx),
            ("/reload", "POST") => handle_reload(state, &req.body, ctx),
            ("/debug/statusz", "GET") => render_statusz(state),
            ("/debug/tracez", "GET") => {
                Ok((200, "application/json", render_tracez(state).into_bytes()))
            }
            ("/debug/varz", "GET") => {
                mirror_gauges(state);
                let mut text = occu_obs::metrics_snapshot().to_json();
                text.push('\n');
                Ok((200, "application/json", text.into_bytes()))
            }
            (
                "/healthz" | "/metrics" | "/predict" | "/predict_batch" | "/reload"
                | "/debug/statusz" | "/debug/tracez" | "/debug/varz",
                m,
            ) => Err(ServeError::method_not_allowed(format!("method {m} not allowed here"))),
            (p, _) => Err(ServeError::not_found(format!("no such endpoint '{p}'"))),
        };
    match result {
        Ok((status, ctype, body)) => (status, ctype, body, None),
        Err(e) => (e.status, "text/plain", e.body().into_bytes(), e.retry_after),
    }
}

fn parse_body(body: &[u8]) -> Result<Value, ServeError> {
    if body.is_empty() {
        return Err(ServeError::bad_request("empty request body"));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not valid UTF-8"))?;
    serde_json::from_str::<Value>(text)
        .map_err(|e| ServeError::bad_request(format!("invalid JSON body: {e}")))
}

fn usize_field(obj: &BTreeMap<String, Value>, name: &str) -> Result<Option<usize>, ServeError> {
    match obj.get(name) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_f64().ok_or_else(|| {
                ServeError::bad_request(format!("field '{name}' must be a number"))
            })?;
            if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > 1e9 {
                return Err(ServeError::bad_request(format!(
                    "field '{name}' must be a non-negative integer"
                )));
            }
            Ok(Some(n as usize))
        }
    }
}

fn parse_spec(v: &Value) -> Result<PredictSpec, ServeError> {
    let obj = v
        .as_object()
        .ok_or_else(|| ServeError::bad_request("prediction spec must be a JSON object"))?;
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "tenant" | "model" | "graph" | "batch" | "channels" | "seq" | "device"
        ) {
            return Err(ServeError::bad_request(format!(
                "unknown field '{key}' (allowed: tenant, model, graph, batch, channels, seq, device)"
            )));
        }
    }
    let tenant = match obj.get("tenant") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| ServeError::bad_request("field 'tenant' must be a string"))?
                .to_string(),
        ),
    };
    let model = match obj.get("model") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| ServeError::bad_request("field 'model' must be a string"))?
                .to_string(),
        ),
    };
    let graph = obj.get("graph").cloned();
    if model.is_some() && graph.is_some() {
        return Err(ServeError::bad_request(
            "give either 'model' or 'graph', not both",
        ));
    }
    if model.is_none() && graph.is_none() {
        return Err(ServeError::bad_request(
            "spec needs a 'model' name or an inline 'graph'",
        ));
    }
    let device = match obj.get("device") {
        None => "a100".to_string(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| ServeError::bad_request("field 'device' must be a string"))?
            .to_ascii_lowercase(),
    };
    Ok(PredictSpec {
        tenant,
        model,
        graph,
        batch: usize_field(obj, "batch")?,
        channels: usize_field(obj, "channels")?,
        seq: usize_field(obj, "seq")?,
        device,
    })
}

/// The comma-separated resident tenant names, for 404 bodies.
fn tenant_names(state: &ServerState) -> String {
    state
        .fleet
        .slots()
        .iter()
        .map(|s| s.name.as_ref())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Resolves one spec: tenant lookup → admission → cache lookup →
/// featurize-and-submit. Cache hit → `Done`; miss → a `Pending` job
/// on the miss queue.
fn resolve_spec(
    state: &ServerState,
    spec: &PredictSpec,
    ctx: &mut RequestCtx,
) -> Result<Prepared, ServeError> {
    let device = DeviceSpec::by_name(&spec.device).ok_or_else(|| {
        ServeError::bad_request(format!(
            "unknown device '{}' (built-ins: {BUILTIN_DEVICES})",
            spec.device
        ))
    })?;

    // Tenant lookup and admission control happen before any real
    // work: a throttled request must cost its tenant almost nothing.
    let slot: &Arc<TenantSlot> = match spec.tenant.as_deref() {
        Some(name) => state.fleet.get(name).ok_or_else(|| {
            ServeError::not_found(format!(
                "unknown tenant model '{name}' (resident: {})",
                tenant_names(state)
            ))
        })?,
        None => state.fleet.default_slot(),
    };
    ctx.set_tenant(&slot.name);
    if let Some(bucket) = &slot.bucket {
        if let Err(retry_after_s) = bucket.try_acquire() {
            slot.throttled.fetch_add(1, Ordering::Relaxed);
            state.stats.throttled.fetch_add(1, Ordering::SeqCst);
            state.obs.throttled.inc();
            return Err(ServeError::throttled(
                format!(
                    "tenant '{}' over its rate limit of {:.1} req/s",
                    slot.name,
                    bucket.rate()
                ),
                retry_after_s,
            ));
        }
    }
    slot.requests.fetch_add(1, Ordering::Relaxed);
    let version = slot.registry.current().version;

    let (key, graph) = if let Some(graph_value) = &spec.graph {
        // Inline-graph decode is parse work; the fingerprint that
        // keys the cache is charged to the lookup below.
        let graph = ctx.time(Stage::Parse, || {
            let text = serde_json::to_string(graph_value)
                .map_err(|e| ServeError::internal(format!("re-encode graph: {e}")))?;
            CompGraph::from_json(&text).map_err(ServeError::from)
        })?;
        let key = ctx.time(Stage::CacheLookup, || CacheKey::Graph {
            tenant: Arc::clone(&slot.name),
            fp: graph.fingerprint(),
            device: spec.device.clone(),
            version,
        });
        (key, Some(graph))
    } else {
        let name = spec.model.as_deref().unwrap_or_default();
        let id = ModelId::from_name(name)
            .ok_or_else(|| ServeError::not_found(format!("unknown model '{name}'")))?;
        let defaults = id.default_config();
        let batch = spec.batch.unwrap_or(defaults.batch_size);
        let channels = spec.channels.unwrap_or(defaults.input_channels);
        let seq = spec.seq.unwrap_or(defaults.seq_len);
        if batch == 0 || batch > 4096 {
            return Err(ServeError::unprocessable(format!(
                "batch must be in 1..=4096, got {batch}"
            )));
        }
        if channels > 512 {
            return Err(ServeError::unprocessable(format!(
                "channels must be at most 512, got {channels}"
            )));
        }
        if seq > 4096 {
            return Err(ServeError::unprocessable(format!(
                "seq must be at most 4096, got {seq}"
            )));
        }
        let key = CacheKey::Named {
            tenant: Arc::clone(&slot.name),
            model: id.name().to_string(),
            batch,
            channels,
            seq,
            device: spec.device.clone(),
            version,
        };
        (key, None)
    };

    let outcome = |occupancy: f32, cached: bool, fingerprint: String| Outcome {
        occupancy,
        cached,
        fingerprint,
        tenant: Arc::clone(&slot.name),
        model: spec.model.clone(),
        device: spec.device.clone(),
        model_version: version,
    };

    if let Some(hit) = ctx.time(Stage::CacheLookup, || state.lock_cache().get(&key).cloned()) {
        state.obs.cache_hits.inc();
        return Ok(Prepared::Done(outcome(hit.occupancy, true, hit.fingerprint)));
    }
    state.obs.cache_misses.inc();

    // Full miss: obtain the graph (building the named model now if
    // the cache could not spare us), fingerprint, featurize, submit
    // to the miss queue under the tenant's lane.
    let built = ctx.time(Stage::Featurize, || {
        catch_unwind(AssertUnwindSafe(|| {
            let graph = match graph {
                Some(g) => g,
                None => {
                    let id = ModelId::from_name(spec.model.as_deref().unwrap_or_default())
                        .expect("validated above");
                    let defaults = id.default_config();
                    let cfg = ModelConfig {
                        batch_size: spec.batch.unwrap_or(defaults.batch_size),
                        input_channels: spec.channels.unwrap_or(defaults.input_channels),
                        seq_len: spec.seq.unwrap_or(defaults.seq_len),
                        ..defaults
                    };
                    id.build(&cfg)
                }
            };
            let fp = graph.fingerprint();
            let features = featurize(&graph, &device);
            (fp, features)
        }))
    })
    .map_err(|_| {
        ServeError::unprocessable("model cannot be constructed with this configuration")
    })?;
    let (fp, features) = built;

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = PredictJob { features, reply: reply_tx };
    if state.queue.push(slot.index, job).is_err() {
        slot.throttled.fetch_add(1, Ordering::Relaxed);
        state.stats.throttled.fetch_add(1, Ordering::SeqCst);
        state.obs.throttled.inc();
        return Err(ServeError::throttled("miss queue is full, retry later", 1.0));
    }

    let pending = outcome(f32::NAN, false, fp.to_hex());
    Ok(Prepared::Pending(Pending { key, rx: reply_rx, outcome: pending }))
}

/// Resolves every spec, then runs the request's cache misses: the
/// worker drains the miss queue (see [`drain`]) and blocks only on
/// jobs other workers are running. `/predict` and `/predict_batch`
/// share this path.
fn predict_many(
    state: &ServerState,
    specs: &[Result<PredictSpec, ServeError>],
    ctx: &mut RequestCtx,
) -> Vec<Result<Outcome, ServeError>> {
    let mut results = Vec::with_capacity(specs.len());
    let mut pending = Vec::new();
    for spec in specs {
        let prepared = match spec {
            Ok(s) => resolve_spec(state, s, ctx),
            Err(e) => Err(e.clone()),
        };
        match prepared {
            Ok(Prepared::Done(outcome)) => results.push(Ok(outcome)),
            Ok(Prepared::Pending(p)) => {
                pending.push((results.len(), p));
                results.push(Err(ServeError::internal("prediction pending")));
            }
            Err(e) => results.push(Err(e)),
        }
    }
    if pending.is_empty() {
        return results;
    }

    let waiting_since = ctx.recording().then(Instant::now);
    let mut replies = vec![None; pending.len()];
    drain(state, &pending, &mut replies);
    // Whatever is still missing is running on another worker.
    let replies: Vec<Result<PredictReply, ServeError>> = pending
        .iter()
        .zip(replies)
        .map(|((_, p), reply)| {
            reply.unwrap_or_else(|| {
                p.rx.recv_timeout(REPLY_TIMEOUT).map_err(|e| match e {
                    RecvTimeoutError::Timeout => ServeError::internal("prediction timed out"),
                    RecvTimeoutError::Disconnected => prediction_failed(),
                })
            })
        })
        .collect();
    if let Some(t0) = waiting_since {
        // The request waited from its last submission to its last
        // reply; its own model invocations are predict, the rest of
        // that wait (queued, or this worker running other requests'
        // jobs) is dwell.
        let waited_us = t0.elapsed().as_secs_f64() * 1e6;
        let predict_us: f64 = replies.iter().flatten().map(|r| r.predict_us).sum();
        ctx.add(Stage::Predict, predict_us);
        ctx.add(Stage::BatchDwell, (waited_us - predict_us).max(0.0));
    }

    for ((i, p), reply) in pending.into_iter().zip(replies) {
        let Pending { key, mut outcome, .. } = p;
        results[i] = reply.map(|reply| {
            outcome.occupancy = reply.occupancy;
            ctx.time(Stage::CacheLookup, || {
                let cached = CachedPrediction {
                    occupancy: reply.occupancy,
                    fingerprint: outcome.fingerprint.clone(),
                };
                state.lock_cache().insert(key, cached);
            });
            outcome
        });
    }
    results
}

/// A job whose reply sender dropped unanswered: it panicked.
fn prediction_failed() -> ServeError {
    ServeError::internal("prediction failed")
}

/// Runs queued jobs on this thread, whichever request they belong to,
/// until every reply in `pending` has arrived or the miss queue is
/// empty. Each pass pops up to as many jobs as the request still
/// awaits, and runs them with `par_iter` — inline when there is one,
/// so a single miss never leaves the worker's thread. A reply still
/// missing on return belongs to a job another worker is running.
fn drain(
    state: &ServerState,
    pending: &[(usize, Pending)],
    replies: &mut [Option<Result<PredictReply, ServeError>>],
) {
    loop {
        let mut awaited = 0;
        for ((_, p), reply) in pending.iter().zip(replies.iter_mut()) {
            if reply.is_none() {
                match p.rx.try_recv() {
                    Ok(r) => *reply = Some(Ok(r)),
                    Err(TryRecvError::Disconnected) => *reply = Some(Err(prediction_failed())),
                    Err(TryRecvError::Empty) => awaited += 1,
                }
            }
        }
        let jobs: Vec<(usize, PredictJob)> =
            std::iter::from_fn(|| state.queue.try_pop()).take(awaited).collect();
        if jobs.is_empty() {
            return;
        }
        state.obs.batches.inc();
        state.obs.predictions.add(jobs.len() as u64);
        state.obs.batch_size.observe(jobs.len() as f64);
        jobs.into_par_iter().for_each(|(lane, job)| run_job(&state.fleet, lane, job));
    }
}

fn outcome_value(o: &Outcome) -> Value {
    let mut m = BTreeMap::new();
    m.insert(
        "predicted_occupancy".to_string(),
        Value::Number(f64::from(o.occupancy)),
    );
    m.insert("cached".to_string(), Value::Bool(o.cached));
    m.insert("fingerprint".to_string(), Value::String(o.fingerprint.clone()));
    m.insert("tenant".to_string(), Value::String(o.tenant.to_string()));
    m.insert("device".to_string(), Value::String(o.device.clone()));
    m.insert(
        "model_version".to_string(),
        Value::Number(o.model_version as f64),
    );
    if let Some(name) = &o.model {
        m.insert("model".to_string(), Value::String(name.clone()));
    }
    Value::Object(m)
}

fn json_body(value: &Value) -> Result<(u16, &'static str, Vec<u8>), ServeError> {
    let mut text = serde_json::to_string(value)
        .map_err(|e| ServeError::internal(format!("encode response: {e}")))?;
    text.push('\n');
    Ok((200, "application/json", text.into_bytes()))
}

fn handle_predict(
    state: &ServerState,
    body: &[u8],
    ctx: &mut RequestCtx,
) -> Result<(u16, &'static str, Vec<u8>), ServeError> {
    let value = ctx.time(Stage::Parse, || parse_body(body))?;
    let spec = ctx.time(Stage::Parse, || parse_spec(&value));
    let mut results = predict_many(state, &[spec], ctx);
    let outcome = results
        .pop()
        .unwrap_or_else(|| Err(ServeError::internal("empty prediction result")))?;
    ctx.time(Stage::Serialize, || json_body(&outcome_value(&outcome)))
}

fn handle_predict_batch(
    state: &ServerState,
    body: &[u8],
    ctx: &mut RequestCtx,
) -> Result<(u16, &'static str, Vec<u8>), ServeError> {
    let value = ctx.time(Stage::Parse, || parse_body(body))?;
    let items = match value.as_array() {
        Some(a) => a,
        None => value
            .get("requests")
            .and_then(|v| v.as_array())
            .ok_or_else(|| {
                ServeError::bad_request(
                    "batch body must be a JSON array of specs or {\"requests\": [...]}",
                )
            })?,
    };
    if items.is_empty() {
        return Err(ServeError::bad_request("batch is empty"));
    }
    if items.len() > MAX_BATCH_ITEMS {
        return Err(ServeError::too_large(format!(
            "batch of {} specs exceeds limit of {MAX_BATCH_ITEMS}",
            items.len()
        )));
    }
    let specs: Vec<Result<PredictSpec, ServeError>> =
        ctx.time(Stage::Parse, || items.iter().map(parse_spec).collect());
    let results = predict_many(state, &specs, ctx);

    ctx.time(Stage::Serialize, || {
        let mut rendered = Vec::with_capacity(results.len());
        let mut failures = 0u64;
        for r in &results {
            match r {
                Ok(outcome) => rendered.push(outcome_value(outcome)),
                Err(e) => {
                    failures += 1;
                    let mut m = BTreeMap::new();
                    m.insert("error".to_string(), Value::String(e.message.clone()));
                    m.insert("status".to_string(), Value::Number(f64::from(e.status)));
                    rendered.push(Value::Object(m));
                }
            }
        }
        let mut top = BTreeMap::new();
        top.insert("results".to_string(), Value::Array(rendered));
        top.insert("errors".to_string(), Value::Number(failures as f64));
        json_body(&Value::Object(top))
    })
}

/// `POST /reload`. Decoding the body and the weights file is parse
/// work, so both are charged to [`Stage::Parse`].
fn handle_reload(
    state: &ServerState,
    body: &[u8],
    ctx: &mut RequestCtx,
) -> Result<(u16, &'static str, Vec<u8>), ServeError> {
    type ReloadArgs = (Option<String>, Option<String>, Option<Precision>);
    let (path, model, precision) = ctx.time(Stage::Parse, || -> Result<ReloadArgs, ServeError> {
        if body.is_empty() {
            return Ok((None, None, None));
        }
        let value = parse_body(body)?;
        let obj = value
            .as_object()
            .ok_or_else(|| ServeError::bad_request("reload body must be a JSON object"))?;
        for key in obj.keys() {
            if key != "path" && key != "model" && key != "precision" {
                return Err(ServeError::bad_request(format!(
                    "unknown field '{key}' (allowed: path, model, precision)"
                )));
            }
        }
        let str_field = |name: &str| -> Result<Option<String>, ServeError> {
            match obj.get(name) {
                None => Ok(None),
                Some(v) => Ok(Some(
                    v.as_str()
                        .ok_or_else(|| {
                            ServeError::bad_request(format!("field '{name}' must be a string"))
                        })?
                        .to_string(),
                )),
            }
        };
        let precision = match str_field("precision")? {
            None => None,
            Some(text) => Some(Precision::parse(&text).ok_or_else(|| {
                ServeError::bad_request(format!(
                    "unknown precision '{text}' (allowed: f32, int8)"
                ))
            })?),
        };
        Ok((str_field("path")?, str_field("model")?, precision))
    })?;
    let slot = match model.as_deref() {
        Some(name) => state.fleet.get(name).ok_or_else(|| {
            ServeError::not_found(format!(
                "unknown tenant model '{name}' (resident: {})",
                tenant_names(state)
            ))
        })?,
        None => state.fleet.default_slot(),
    };
    let loaded = ctx
        .time(Stage::Parse, || slot.registry.reload(path.as_deref().map(Path::new)))
        .map_err(ServeError::from)?;
    // Precision switches only after the weights load: a failed reload
    // leaves both the model and the serving precision untouched.
    if let Some(p) = precision {
        slot.set_precision(p);
    }
    state.stats.reloads.fetch_add(1, Ordering::SeqCst);
    slot.reloads.fetch_add(1, Ordering::Relaxed);
    occu_obs::counter("serve.reloads").inc();
    if slot.name.as_ref() == state.fleet.default_name() {
        occu_obs::gauge("serve.model_version").set(loaded.version as f64);
    }
    occu_obs::info!(
        "serve: reloaded model '{}' v{} from {}",
        slot.name,
        loaded.version,
        loaded.path.display()
    );
    // Old-version prediction-cache entries are unreachable (version
    // is in the key) and will age out of the LRU naturally. Compiled
    // plans carry snapshotted weights, so besides the same version
    // keying they are dropped eagerly to release their packed panels.
    // Only this tenant's plans: the rest of the fleet keeps its heat.
    slot.plan_cache.clear();
    let mut m = BTreeMap::new();
    m.insert("model".to_string(), Value::String(slot.name.to_string()));
    m.insert("version".to_string(), Value::Number(loaded.version as f64));
    m.insert(
        "path".to_string(),
        Value::String(loaded.path.display().to_string()),
    );
    m.insert("precision".to_string(), Value::String(slot.precision().name().to_string()));
    json_body(&Value::Object(m))
}

/// Sums plan-cache stats across every tenant slot.
fn plan_stats_total(state: &ServerState) -> CacheStats {
    let mut total = CacheStats::default();
    for slot in state.fleet.slots() {
        let ps = slot.plan_cache.stats();
        total.hits += ps.hits;
        total.misses += ps.misses;
        total.evictions += ps.evictions;
        total.len += ps.len;
        total.capacity += ps.capacity;
    }
    total
}

/// Mirrors point-in-time state (caches, arena, kernel dispatch)
/// into gauges so `/metrics` and `/debug/varz` expose it alongside
/// the request-path counters.
fn mirror_gauges(state: &ServerState) {
    let stats = snapshot_stats(state);
    occu_obs::gauge("serve.cache.len").set(stats.cache.len as f64);
    occu_obs::gauge("serve.cache.evictions").set(stats.cache.evictions as f64);
    occu_obs::gauge("serve.cache.hit_rate").set(stats.cache.hit_rate());
    occu_obs::gauge("serve.miss_queue.depth").set(state.queue.len() as f64);
    // Scratch-arena high-water mark across all worker tapes. Flat after
    // warmup == the steady-state forward path is allocation-free.
    occu_obs::gauge("serve.arena.allocated_bytes")
        .set(occu_tensor::arena_total_allocated_bytes() as f64);
    occu_obs::gauge("serve.arena.fresh_allocs")
        .set(occu_tensor::arena_total_fresh_allocs() as f64);
    // Per-ISA kernel dispatch counters from occu-tensor, so operators
    // can confirm which SIMD tier predictions actually ran on.
    let disp = occu_tensor::dispatch_counts();
    occu_obs::gauge("tensor.dispatch.scalar").set(disp.scalar as f64);
    occu_obs::gauge("tensor.dispatch.avx2").set(disp.avx2 as f64);
    occu_obs::gauge("tensor.dispatch.avx512").set(disp.avx512 as f64);
    // Same thing for the int8 quantized GEMM tier, which has its own
    // (narrower) ISA ladder: scalar / avx2-maddubs / avx512-vnni.
    let qdisp = occu_tensor::quant_dispatch_counts();
    occu_obs::gauge("tensor.dispatch.i8_scalar").set(qdisp.scalar as f64);
    occu_obs::gauge("tensor.dispatch.i8_avx2").set(qdisp.avx2 as f64);
    occu_obs::gauge("tensor.dispatch.i8_vnni").set(qdisp.vnni as f64);
    // Traces the flight recorder discarded on slot contention. Must
    // stay 0 under a single-threaded harness; under load it bounds
    // how much `/debug/tracez` raced the request path.
    occu_obs::gauge("flight.dropped").set(state.telemetry.recorder.dropped() as f64);
    // Compiled-plan caches, summed across tenants: how many shapes
    // are resident and how often queued jobs reused a plan
    // vs compiled one.
    let ps = plan_stats_total(state);
    occu_obs::gauge("serve.plan.cached").set(ps.len as f64);
    occu_obs::gauge("serve.plan.hits").set(ps.hits as f64);
    occu_obs::gauge("serve.plan.compiles").set(ps.misses as f64);
    occu_obs::gauge("serve.plan.evictions").set(ps.evictions as f64);
}

/// Prometheus text exposition: the typed registry dump, the per-stage
/// and end-to-end rolling-percentile summaries, and the labeled
/// per-tenant fleet families.
fn render_metrics(state: &ServerState) -> String {
    use occu_obs::prom;
    use std::fmt::Write as _;
    mirror_gauges(state);
    let mut out = String::with_capacity(8192);
    out.push_str(&prom::render_snapshot(&occu_obs::metrics_snapshot()));
    prom::append_info(&mut out, "tensor.kernel_isa", "isa", occu_tensor::active_isa().name());
    prom::append_info(&mut out, "tensor.quant_isa", "isa", occu_tensor::quant_isa().name());
    prom::append_summary_type(&mut out, "serve.stage.us");
    for (name, window) in state.telemetry.stages.iter() {
        prom::append_summary(&mut out, "serve.stage.us", Some(("stage", name)), window);
    }
    prom::append_summary_type(&mut out, "serve.request.total_us");
    prom::append_summary(&mut out, "serve.request.total_us", None, state.telemetry.stages.total());

    // Per-tenant families. One line per resident model, labeled with
    // the tenant name (escaped per the exposition format).
    let mut tenant_family = |name: &str, kind: &str, value: &dyn Fn(&TenantSlot) -> f64| {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for slot in state.fleet.slots() {
            let _ = writeln!(
                out,
                "{name}{{tenant=\"{}\"}} {}",
                prom::escape_label_value(&slot.name),
                value(slot)
            );
        }
    };
    tenant_family("serve_tenant_requests", "counter", &|s| {
        s.requests.load(Ordering::Relaxed) as f64
    });
    tenant_family("serve_tenant_throttled", "counter", &|s| {
        s.throttled.load(Ordering::Relaxed) as f64
    });
    tenant_family("serve_tenant_predictions", "counter", &|s| {
        s.predictions.load(Ordering::Relaxed) as f64
    });
    tenant_family("serve_tenant_reloads", "counter", &|s| {
        s.reloads.load(Ordering::Relaxed) as f64
    });
    tenant_family("serve_tenant_model_version", "gauge", &|s| {
        s.registry.current().version as f64
    });
    tenant_family("serve_tenant_weight", "gauge", &|s| f64::from(s.weight));
    tenant_family("serve_tenant_plan_cached", "gauge", &|s| s.plan_cache.stats().len as f64);

    // Info-style precision family: constant 1, the payload is the
    // `precision` label. One line per tenant.
    let _ = writeln!(out, "# TYPE serve_tenant_precision gauge");
    for slot in state.fleet.slots() {
        let _ = writeln!(
            out,
            "serve_tenant_precision{{tenant=\"{}\",precision=\"{}\"}} 1",
            prom::escape_label_value(&slot.name),
            slot.precision().name()
        );
    }
    out
}

/// `/debug/statusz`: one JSON object describing the running server —
/// uptime, the whole resident fleet, ISA, config, live counters.
fn render_statusz(state: &ServerState) -> Result<(u16, &'static str, Vec<u8>), ServeError> {
    let num = Value::Number;
    let default_loaded = state.fleet.default_slot().registry.current();
    let stats = snapshot_stats(state);
    let cache = stats.cache;
    let disp = occu_tensor::dispatch_counts();

    // "model" stays the default tenant for pre-fleet consumers;
    // "models" describes every resident tenant.
    let mut model = BTreeMap::new();
    model.insert("version".to_string(), num(default_loaded.version as f64));
    model.insert("path".to_string(), Value::String(default_loaded.path.display().to_string()));

    let mut models = BTreeMap::new();
    for slot in state.fleet.slots() {
        let loaded = slot.registry.current();
        let ps = slot.plan_cache.stats();
        let mut m = BTreeMap::new();
        m.insert("path".to_string(), Value::String(loaded.path.display().to_string()));
        m.insert("version".to_string(), num(loaded.version as f64));
        m.insert("loaded_at_unix_s".to_string(), num(loaded.loaded_at_unix_s as f64));
        m.insert("weight".to_string(), num(f64::from(slot.weight)));
        m.insert(
            "rate_limit_rps".to_string(),
            slot.bucket.as_ref().map_or(Value::Null, |b| num(b.rate())),
        );
        m.insert("requests".to_string(), num(slot.requests.load(Ordering::Relaxed) as f64));
        m.insert("throttled".to_string(), num(slot.throttled.load(Ordering::Relaxed) as f64));
        m.insert("predictions".to_string(), num(slot.predictions.load(Ordering::Relaxed) as f64));
        m.insert("reloads".to_string(), num(slot.reloads.load(Ordering::Relaxed) as f64));
        m.insert("plan_cached".to_string(), num(ps.len as f64));
        m.insert("plan_capacity".to_string(), num(ps.capacity as f64));
        m.insert("precision".to_string(), Value::String(slot.precision().name().to_string()));
        models.insert(slot.name.to_string(), Value::Object(m));
    }

    let mut cfg = BTreeMap::new();
    cfg.insert("workers".to_string(), num(state.cfg.workers as f64));
    cfg.insert("queue_cap".to_string(), num(state.cfg.queue_cap as f64));
    cfg.insert("cache_cap".to_string(), num(state.cfg.cache_cap as f64));
    cfg.insert("max_body_bytes".to_string(), num(state.cfg.max_body_bytes as f64));
    cfg.insert("slo_us".to_string(), num(state.cfg.slo_us));
    cfg.insert("recorder_cap".to_string(), num(state.cfg.recorder_cap as f64));
    cfg.insert("record".to_string(), Value::Bool(state.cfg.record));
    cfg.insert("trace_spans".to_string(), Value::Bool(state.cfg.trace_spans));

    let mut counters = BTreeMap::new();
    counters.insert("requests".to_string(), num(stats.requests as f64));
    counters.insert("errors".to_string(), num(stats.errors as f64));
    counters.insert("rejected".to_string(), num(stats.rejected as f64));
    counters.insert("throttled".to_string(), num(stats.throttled as f64));
    counters.insert("reloads".to_string(), num(stats.reloads as f64));

    let mut cache_obj = BTreeMap::new();
    cache_obj.insert("len".to_string(), num(cache.len as f64));
    cache_obj.insert("hits".to_string(), num(cache.hits as f64));
    cache_obj.insert("misses".to_string(), num(cache.misses as f64));
    cache_obj.insert("evictions".to_string(), num(cache.evictions as f64));
    cache_obj.insert("hit_rate".to_string(), num(cache.hit_rate()));

    let mut arena = BTreeMap::new();
    arena.insert(
        "allocated_bytes".to_string(),
        num(occu_tensor::arena_total_allocated_bytes() as f64),
    );
    arena.insert("fresh_allocs".to_string(), num(occu_tensor::arena_total_fresh_allocs() as f64));

    let mut dispatch = BTreeMap::new();
    dispatch.insert("scalar".to_string(), num(disp.scalar as f64));
    dispatch.insert("avx2".to_string(), num(disp.avx2 as f64));
    dispatch.insert("avx512".to_string(), num(disp.avx512 as f64));
    let qdisp = occu_tensor::quant_dispatch_counts();
    dispatch.insert("i8_scalar".to_string(), num(qdisp.scalar as f64));
    dispatch.insert("i8_avx2".to_string(), num(qdisp.avx2 as f64));
    dispatch.insert("i8_vnni".to_string(), num(qdisp.vnni as f64));

    let mut plan = BTreeMap::new();
    let ps = plan_stats_total(state);
    plan.insert("cached".to_string(), num(ps.len as f64));
    plan.insert("hits".to_string(), num(ps.hits as f64));
    plan.insert("compiles".to_string(), num(ps.misses as f64));
    plan.insert("evictions".to_string(), num(ps.evictions as f64));

    let mut recorder = BTreeMap::new();
    recorder.insert("capacity".to_string(), num(state.telemetry.recorder.capacity() as f64));
    recorder.insert("recorded".to_string(), num(state.telemetry.recorder.recorded() as f64));
    recorder.insert("pinned".to_string(), num(state.telemetry.recorder.pinned() as f64));
    recorder.insert("dropped".to_string(), num(state.telemetry.recorder.dropped() as f64));
    recorder.insert("slo_us".to_string(), num(state.telemetry.recorder.slo_us()));

    let mut top = BTreeMap::new();
    top.insert("uptime_s".to_string(), num(state.telemetry.uptime_s()));
    top.insert("model".to_string(), Value::Object(model));
    top.insert("models".to_string(), Value::Object(models));
    top.insert("isa".to_string(), Value::String(occu_tensor::active_isa().name().to_string()));
    top.insert(
        "quant_isa".to_string(),
        Value::String(occu_tensor::quant_isa().name().to_string()),
    );
    top.insert("telemetry".to_string(), Value::Bool(state.telemetry.enabled()));
    top.insert("config".to_string(), Value::Object(cfg));
    top.insert("counters".to_string(), Value::Object(counters));
    top.insert("cache".to_string(), Value::Object(cache_obj));
    top.insert("plan".to_string(), Value::Object(plan));
    top.insert("arena".to_string(), Value::Object(arena));
    top.insert("dispatch".to_string(), Value::Object(dispatch));
    top.insert("recorder".to_string(), Value::Object(recorder));
    top.insert("queue_depth".to_string(), num(state.telemetry.queue_depth() as f64));
    top.insert("miss_queue_depth".to_string(), num(state.queue.len() as f64));
    top.insert("inflight".to_string(), num(state.telemetry.inflight() as f64));
    json_body(&Value::Object(top))
}

/// `/debug/tracez`: the flight recorder's recent + notable request
/// traces as one JSON object (each trace already rendered by
/// `RequestTrace::to_json`).
fn render_tracez(state: &ServerState) -> String {
    let rec = &state.telemetry.recorder;
    let join = |traces: Vec<occu_obs::RequestTrace>| {
        traces.iter().map(occu_obs::RequestTrace::to_json).collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\"slo_us\": {}, \"capacity\": {}, \"recorded\": {}, \"pinned\": {}, \"dropped\": {}, \"recent\": [{}], \"notable\": [{}]}}\n",
        rec.slo_us(),
        rec.capacity(),
        rec.recorded(),
        rec.pinned(),
        rec.dropped(),
        join(rec.recent()),
        join(rec.notable()),
    )
}
