//! Request-level serving telemetry: the [`RequestCtx`] threaded
//! through the pipeline, the shared [`Telemetry`] state it reports
//! into, and the stage taxonomy both agree on.
//!
//! Every request gets a monotonic id and an arrival timestamp, and
//! accumulates a per-stage duration vector as it moves through the
//! pipeline (see [`Stage`]). On completion the vector lands in three
//! bounded structures:
//!
//! * per-stage [`occu_obs::StageWindows`] rolling-percentile rings
//!   (exported as `serve.stage.us` summaries on `/metrics`),
//! * the [`occu_obs::FlightRecorder`] (recent + notable request
//!   traces, served by `/debug/tracez`),
//! * optionally (config `trace_spans`) linked `occu-obs` spans — one
//!   `serve.request` parent plus one child per non-zero stage — for
//!   sessions that drain span buffers. Off by default because a
//!   long-lived server never drains them.
//!
//! Every stage is recorded for every request, zeros included (a cache
//! hit records `predict = 0`), so the sum of per-stage percentiles is
//! directly comparable to the end-to-end percentile from the same
//! sample population.
//!
//! When telemetry is disabled (config `record = false`) the context
//! is inert: no clock reads, no window writes, no trace allocation —
//! that is the baseline the serve-telemetry speed floor
//! (`occu-bench/tests/speed_floors.rs`) compares against.

use occu_obs::span::{next_span_id, now_us, submit};
use occu_obs::{FlightRecorder, RequestTrace, SpanRecord, StageWindows};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline stages, in order. `Write` is last: the request clock
/// stops only after the response bytes hit the socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Accept-queue wait: socket accepted → worker pickup. Zero for
    /// follow-up requests on a kept-alive connection.
    QueueWait = 0,
    /// Request-body JSON parsing and spec validation; for `/reload`,
    /// also decoding the weights file.
    Parse = 1,
    /// Cache-key construction, probe, and insert-on-miss.
    CacheLookup = 2,
    /// Graph construction + featurization on a cache miss.
    Featurize = 3,
    /// Job submitted → its execution starts: time on the miss queue,
    /// or the worker running other requests' jobs first.
    BatchDwell = 4,
    /// The request's own model invocation: plan lookup (and compile
    /// on a plan-cache miss) plus plan execution.
    Predict = 5,
    /// Response JSON rendering.
    Serialize = 6,
    /// Writing the response to the socket.
    Write = 7,
}

/// Stage names, indexed by `Stage as usize`; the order is the
/// pipeline order used everywhere (windows, traces, exports).
pub const STAGE_NAMES: [&str; 8] = [
    "queue_wait",
    "parse",
    "cache_lookup",
    "featurize",
    "batch_dwell",
    "predict",
    "serialize",
    "write",
];

/// How many samples each rolling window keeps. 4096 gives p999 a
/// rank error of ~0.025% of the window (see occu-obs::percentile).
const WINDOW_CAP: usize = 4096;

/// One request's identity and accumulating stage breakdown. Owned by
/// the worker thread handling the request — plain `&mut`, no atomics.
pub struct RequestCtx {
    /// Monotonic request id (0 when telemetry is off).
    pub id: u64,
    /// Arrival time on the span clock (`now_us`).
    pub start_us: f64,
    started: Option<Instant>,
    tenant: Option<Arc<str>>,
    durs: [f64; STAGE_NAMES.len()],
}

impl RequestCtx {
    /// An inert context: all recording methods are no-ops.
    fn disabled() -> Self {
        Self { id: 0, start_us: 0.0, started: None, tenant: None, durs: [0.0; STAGE_NAMES.len()] }
    }

    /// Tags the request with the tenant it resolved to (first tenant
    /// wins for multi-spec batches). No-op when not recording.
    pub fn set_tenant(&mut self, tenant: &Arc<str>) {
        if self.started.is_some() && self.tenant.is_none() {
            self.tenant = Some(Arc::clone(tenant));
        }
    }

    /// The tenant recorded by [`RequestCtx::set_tenant`], if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// True when this context is recording.
    pub fn recording(&self) -> bool {
        self.started.is_some()
    }

    /// Adds `us` microseconds to a stage (stages can accumulate from
    /// several code sites, e.g. parse = body + spec).
    pub fn add(&mut self, stage: Stage, us: f64) {
        if self.started.is_some() {
            self.durs[stage as usize] += us;
        }
    }

    /// Runs `f`, charging its wall time to `stage`. When the context
    /// is inert this is exactly `f()` — no clock reads.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if self.started.is_none() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.durs[stage as usize] += t0.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// The accumulated duration of one stage so far.
    pub fn stage_us(&self, stage: Stage) -> f64 {
        self.durs[stage as usize]
    }
}

/// Shared request-telemetry state, one per server.
pub struct Telemetry {
    enabled: bool,
    trace_spans: bool,
    /// Per-stage + total rolling percentile windows.
    pub stages: StageWindows,
    /// Recent + notable completed-request traces.
    pub recorder: FlightRecorder,
    next_id: AtomicU64,
    inflight: AtomicI64,
    queue_depth: AtomicI64,
    started: Instant,
}

impl Telemetry {
    /// Telemetry with a `slo_us` pin threshold and `recorder_cap`
    /// traces per flight-recorder ring. `enabled = false` makes every
    /// per-request path a no-op (the overhead baseline).
    pub fn new(enabled: bool, trace_spans: bool, slo_us: f64, recorder_cap: usize) -> Self {
        Self {
            enabled,
            trace_spans,
            stages: StageWindows::new(&STAGE_NAMES, WINDOW_CAP),
            recorder: FlightRecorder::new(recorder_cap, slo_us),
            next_id: AtomicU64::new(1),
            inflight: AtomicI64::new(0),
            queue_depth: AtomicI64::new(0),
            started: Instant::now(),
        }
    }

    /// True when per-request recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Starts a request: assigns the id, stamps arrival, bumps the
    /// in-flight gauge. Returns an inert context when disabled.
    pub fn begin(&self) -> RequestCtx {
        if !self.enabled {
            return RequestCtx::disabled();
        }
        self.inflight.fetch_add(1, Ordering::Relaxed);
        RequestCtx {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_us: now_us(),
            started: Some(Instant::now()),
            tenant: None,
            durs: [0.0; STAGE_NAMES.len()],
        }
    }

    /// Completes a request: stops the clock, feeds the rolling
    /// windows and the flight recorder, and (when `trace_spans` is
    /// on and recording is enabled) submits linked spans.
    pub fn finish(&self, ctx: RequestCtx, path: &str, status: u16, error: Option<String>) {
        let Some(started) = ctx.started else { return };
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        // Queue wait elapsed before this context's clock started, so
        // it is added back; total and stage sum then cover the same
        // accept-to-write interval.
        let total_us =
            started.elapsed().as_secs_f64() * 1e6 + ctx.durs[Stage::QueueWait as usize];
        self.stages.record(&ctx.durs, total_us);
        let stages: Vec<(&'static str, f64)> =
            STAGE_NAMES.iter().copied().zip(ctx.durs.iter().copied()).collect();
        if self.trace_spans && occu_obs::enabled() {
            self.submit_spans(&ctx, path, status, total_us);
        }
        self.recorder.record(RequestTrace {
            id: ctx.id,
            start_us: ctx.start_us,
            total_us,
            status,
            path: path.to_string(),
            tenant: ctx.tenant.as_ref().map(|t| t.to_string()),
            stages,
            error,
        });
    }

    /// Emits one `serve.request` parent span plus a child per
    /// non-zero stage. The stages were timed once by the pipeline, so
    /// the records are synthesized (child start offsets are laid out
    /// sequentially — faithful durations, approximate starts).
    fn submit_spans(&self, ctx: &RequestCtx, path: &str, status: u16, total_us: f64) {
        let parent = next_span_id();
        submit(SpanRecord {
            id: parent,
            parent: None,
            thread: 0,
            name: "serve.request".to_string(),
            fields: vec![
                ("request".to_string(), ctx.id.into()),
                ("path".to_string(), path.into()),
                ("status".to_string(), u32::from(status).into()),
            ],
            start_us: ctx.start_us,
            dur_us: total_us,
        });
        let mut offset = 0.0;
        for (name, us) in STAGE_NAMES.iter().zip(ctx.durs.iter()) {
            if *us <= 0.0 {
                continue;
            }
            submit(SpanRecord {
                id: next_span_id(),
                parent: Some(parent),
                thread: 0,
                name: format!("serve.stage.{name}"),
                fields: vec![("request".to_string(), ctx.id.into())],
                start_us: ctx.start_us + offset,
                dur_us: *us,
            });
            offset += us;
        }
    }

    /// Accept-queue depth bookkeeping (accept thread adds, worker
    /// pickup subtracts).
    pub fn queue_push(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Telemetry::queue_push`].
    pub fn queue_pop(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently queued for a worker.
    pub fn queue_depth(&self) -> i64 {
        self.queue_depth.load(Ordering::Relaxed).max(0)
    }

    /// Requests currently being handled.
    pub fn inflight(&self) -> i64 {
        self.inflight.load(Ordering::Relaxed).max(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_records_nothing() {
        let t = Telemetry::new(false, false, 1000.0, 8);
        let mut ctx = t.begin();
        assert!(!ctx.recording());
        ctx.add(Stage::Predict, 100.0);
        let v = ctx.time(Stage::Parse, || 42);
        assert_eq!(v, 42);
        assert_eq!(ctx.stage_us(Stage::Predict), 0.0);
        t.finish(ctx, "/predict", 200, None);
        assert_eq!(t.recorder.recorded(), 0);
        assert!(t.stages.total().snapshot().is_empty());
        assert_eq!(t.inflight(), 0);
    }

    #[test]
    fn finish_feeds_windows_and_recorder() {
        let t = Telemetry::new(true, false, 1e9, 8);
        let mut ctx = t.begin();
        assert!(ctx.recording());
        assert_eq!(ctx.id, 1);
        assert_eq!(t.inflight(), 1);
        ctx.add(Stage::QueueWait, 3.0);
        ctx.time(Stage::Predict, || std::thread::sleep(std::time::Duration::from_millis(1)));
        assert!(ctx.stage_us(Stage::Predict) >= 900.0);
        t.finish(ctx, "/predict", 200, None);
        assert_eq!(t.inflight(), 0);
        assert_eq!(t.recorder.recorded(), 1);
        let trace = t.recorder.recent().pop().expect("trace recorded");
        assert_eq!(trace.id, 1);
        assert_eq!(trace.path, "/predict");
        assert_eq!(trace.stages.len(), STAGE_NAMES.len(), "every stage present, zeros included");
        assert_eq!(trace.stages[Stage::QueueWait as usize], ("queue_wait", 3.0));
        assert!(trace.total_us >= 900.0);
        assert_eq!(t.stages.total().snapshot().total_count(), 1);
    }

    #[test]
    fn errors_and_slo_violations_are_notable() {
        let t = Telemetry::new(true, false, 1e9, 8);
        let ctx = t.begin();
        t.finish(ctx, "/predict", 422, Some("bad spec".to_string()));
        assert_eq!(t.recorder.pinned(), 1);
        let notable = t.recorder.notable();
        assert_eq!(notable[0].error.as_deref(), Some("bad spec"));
    }

    #[test]
    fn tenant_tag_reaches_the_trace_and_first_tenant_wins() {
        let t = Telemetry::new(true, false, 1e9, 8);
        let mut ctx = t.begin();
        let alpha: Arc<str> = Arc::from("alpha");
        let beta: Arc<str> = Arc::from("beta");
        ctx.set_tenant(&alpha);
        ctx.set_tenant(&beta); // later specs in a batch do not override
        assert_eq!(ctx.tenant(), Some("alpha"));
        t.finish(ctx, "/predict", 200, None);
        let trace = t.recorder.recent().pop().expect("trace recorded");
        assert_eq!(trace.tenant.as_deref(), Some("alpha"));
        assert!(trace.to_json().contains("\"tenant\": \"alpha\""));
        // Disabled contexts stay untagged.
        let t_off = Telemetry::new(false, false, 1e9, 8);
        let mut ctx = t_off.begin();
        ctx.set_tenant(&alpha);
        assert_eq!(ctx.tenant(), None);
    }

    #[test]
    fn queue_depth_tracks_push_pop() {
        let t = Telemetry::new(true, false, 1e9, 8);
        t.queue_push();
        t.queue_push();
        t.queue_pop();
        assert_eq!(t.queue_depth(), 1);
        t.queue_pop();
        t.queue_pop(); // spurious pop clamps at 0
        assert_eq!(t.queue_depth(), 0);
    }
}
