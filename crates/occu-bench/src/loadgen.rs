//! Load generator for `occu-serve`: measures end-to-end serving
//! throughput and latency the way a co-location scheduler would see
//! it — concurrent keep-alive clients, a repeating working set of
//! prediction specs (so the LRU cache carries the steady state), and
//! one model hot-reload fired mid-run to prove in-flight requests
//! survive a swap.
//!
//! With `--url` it drives an external server; without, it boots an
//! in-process `occu-serve` on an ephemeral port so
//! `repro loadgen --quick` is a self-contained smoke test.

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_error::{IoContext, OccuError};
use occu_serve::{ModelRegistry, ServeConfig, Server};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generation knobs (`repro loadgen` flags).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Target `host:port`; `None` boots an in-process server.
    pub url: Option<String>,
    /// Total requests across all client threads.
    pub requests: usize,
    /// Concurrent keep-alive client connections.
    pub concurrency: usize,
    /// Request telemetry on the in-process server (`ServeConfig
    /// record`). `false` is the inert baseline the obs-overhead gate
    /// compares against; ignored with `--url`.
    pub telemetry: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            url: None,
            requests: 40_000,
            concurrency: 8,
            telemetry: true,
        }
    }
}

/// The machine-readable result (written to `reports/serve_perf.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests sent.
    pub requests: usize,
    /// Responses received with status 200.
    pub ok: usize,
    /// Responses received with any non-200 status.
    pub errors: usize,
    /// Requests with no response at all (transport failure). The
    /// acceptance bar: this stays 0 across the mid-run hot-reload.
    pub dropped: usize,
    /// Client connections used.
    pub concurrency: usize,
    /// Wall-clock of the timed phase, seconds.
    pub duration_s: f64,
    /// Completed predictions per second.
    pub throughput_rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Fraction of responses answered from the prediction cache.
    pub cache_hit_rate: f64,
    /// Whether the mid-run `POST /reload` was issued and succeeded.
    pub reload_ok: bool,
    /// Model version reported after the reload (0 if none ran).
    pub model_version_after: u64,
    /// `serve.batch.size` histogram sample count scraped from
    /// `/metrics` after the run (0 if the scrape failed).
    #[serde(default)]
    pub metrics_batch_count: u64,
    /// `serve.arena.allocated_bytes` gauge scraped from `/metrics`
    /// after the run: the scratch-arena high-water mark across the
    /// server's worker tapes.
    #[serde(default)]
    pub arena_allocated_bytes: u64,
    /// `tensor.kernel_isa` scraped from `/metrics`: the SIMD tier the
    /// server's kernels dispatched to (empty if the scrape failed).
    #[serde(default)]
    pub kernel_isa: String,
    /// Sum of the `tensor.dispatch.{avx2,avx512,neon}` gauges —
    /// kernel-level primitive calls that ran on a SIMD path.
    #[serde(default)]
    pub dispatch_simd: u64,
    /// `tensor.dispatch.scalar` gauge: primitive calls that ran the
    /// portable scalar path (including sub-gate streaming products).
    #[serde(default)]
    pub dispatch_scalar: u64,
    /// 99.9th-percentile client-observed latency, microseconds.
    #[serde(default)]
    pub p999_us: u64,
    /// Whether the server ran with request telemetry recording.
    #[serde(default)]
    pub telemetry: bool,
    /// Server-side per-stage rolling percentiles scraped from the
    /// `serve_stage_us` summaries on `/metrics` (pipeline order;
    /// empty if the scrape failed or telemetry was off).
    #[serde(default)]
    pub stages: Vec<StagePercentiles>,
    /// Server-side end-to-end percentiles (`serve_request_total_us`).
    #[serde(default)]
    pub server_total: StagePercentiles,
    /// Sum of the per-stage p50s, microseconds.
    #[serde(default)]
    pub stage_sum_p50_us: f64,
    /// `stage_sum_p50_us / server_total.p50_us` — how much of the
    /// end-to-end median the stage breakdown accounts for. The
    /// acceptance bar is within 10% of 1.0 (0 when unscraped).
    #[serde(default)]
    pub attribution_ratio: f64,
    /// Slowest completed requests from `/debug/tracez` (flight
    /// recorder), slowest first.
    #[serde(default)]
    pub slowest: Vec<SlowTrace>,
}

/// One rolling-percentile summary scraped from `/metrics`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StagePercentiles {
    /// Stage name (`queue_wait` … `write`, or `total`).
    pub stage: String,
    /// Median, microseconds.
    #[serde(default)]
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    #[serde(default)]
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    #[serde(default)]
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    #[serde(default)]
    pub p999_us: f64,
    /// Samples recorded into the window over the whole run.
    #[serde(default)]
    pub count: u64,
}

/// One flight-recorder trace surfaced in the report.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SlowTrace {
    /// Monotonic request id.
    pub id: u64,
    /// Request path.
    pub path: String,
    /// HTTP status.
    #[serde(default)]
    pub status: u64,
    /// Accept-to-write wall time, microseconds.
    pub total_us: f64,
    /// Per-stage breakdown, pipeline order.
    #[serde(default)]
    pub stages: Vec<StageDur>,
}

/// One stage duration inside a [`SlowTrace`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StageDur {
    /// Stage name.
    pub stage: String,
    /// Time spent in the stage, microseconds.
    pub us: f64,
}

/// One keep-alive HTTP/1.1 client connection (shared with the fleet
/// load generator in [`crate::fleetgen`]).
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub(crate) fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// One POST round-trip; returns (status, body).
    pub(crate) fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let (status, _, body) = self.post_full(path, body)?;
        Ok((status, body))
    }

    /// One POST round-trip that also surfaces the `Retry-After`
    /// header (seconds) when the server sent one — the fleet loadgen
    /// asserts throttled tenants receive it.
    pub(crate) fn post_full(
        &mut self,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Option<u64>, String)> {
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    /// One GET round-trip; returns (status, body).
    pub(crate) fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        write!(self.writer, "GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n")?;
        self.writer.flush()?;
        let (status, _, body) = self.read_response()?;
        Ok((status, body))
    }

    fn read_response(&mut self) -> std::io::Result<(u16, Option<u64>, String)> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        let mut retry_after = None;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header)?;
            let trimmed = header.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let lower = trimmed.to_ascii_lowercase();
            if let Some(v) = lower
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                content_length = v;
            }
            if let Some(v) = lower
                .strip_prefix("retry-after:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                retry_after = Some(v);
            }
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut self.reader, &mut body)?;
        Ok((status, retry_after, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The repeating working set. Small on purpose: steady state is all
/// cache hits, which is the serving regime the cache exists for.
fn working_set() -> Vec<String> {
    let mut specs = Vec::new();
    for model in ["LeNet", "AlexNet"] {
        for batch in [1, 2] {
            for device in ["a100", "v100"] {
                specs.push(format!(
                    "{{\"model\": \"{model}\", \"batch\": {batch}, \"device\": \"{device}\"}}"
                ));
            }
        }
    }
    specs
}

struct ThreadTally {
    ok: usize,
    errors: usize,
    dropped: usize,
    cache_hits: usize,
    latencies_us: Vec<u64>,
}

fn client_thread(
    addr: String,
    specs: Vec<String>,
    count: usize,
    offset: usize,
    completed: Arc<AtomicU64>,
) -> ThreadTally {
    let mut tally = ThreadTally {
        ok: 0,
        errors: 0,
        dropped: 0,
        cache_hits: 0,
        latencies_us: Vec::with_capacity(count),
    };
    let mut conn = Conn::open(&addr).ok();
    for i in 0..count {
        let spec = &specs[(offset + i) % specs.len()];
        // One reconnect attempt per request: the server may close an
        // idle keep-alive connection, which is not a dropped request.
        let mut attempt = 0;
        loop {
            if conn.is_none() {
                conn = Conn::open(&addr).ok();
            }
            let Some(c) = conn.as_mut() else {
                tally.dropped += 1;
                break;
            };
            let started = Instant::now();
            match c.post("/predict", spec) {
                Ok((status, body)) => {
                    tally
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                    if status == 200 {
                        tally.ok += 1;
                        if body.contains("\"cached\":true") {
                            tally.cache_hits += 1;
                        }
                    } else {
                        tally.errors += 1;
                    }
                    break;
                }
                Err(_) => {
                    conn = None;
                    attempt += 1;
                    if attempt > 1 {
                        tally.dropped += 1;
                        break;
                    }
                }
            }
        }
        completed.fetch_add(1, Ordering::Relaxed);
    }
    tally
}

/// The `/metrics` series the smoke test and report care about.
#[derive(Default)]
struct ScrapedMetrics {
    batch_count: u64,
    arena_bytes: u64,
    kernel_isa: String,
    dispatch_simd: u64,
    dispatch_scalar: u64,
    /// Per-stage summaries, in exposition (= pipeline) order.
    stages: Vec<StagePercentiles>,
    /// The `serve_request_total_us` end-to-end summary.
    server_total: StagePercentiles,
}

/// Labels of one scraped Prometheus sample, as (name, value) pairs.
type PromLabels<'a> = Vec<(&'a str, &'a str)>;

/// Splits one Prometheus sample line into (name, labels, value).
/// Minimal on purpose: the series scraped here never carry escaped
/// label values. Comment lines return `None`.
fn parse_prom_sample(line: &str) -> Option<(&str, PromLabels<'_>, f64)> {
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let name_end = line.find(|c: char| c == '{' || c.is_ascii_whitespace())?;
    let name = &line[..name_end];
    let rest = &line[name_end..];
    let (labels, value_str) = match rest.strip_prefix('{') {
        Some(inner) => {
            let (label_str, value_str) = inner.split_once('}')?;
            let labels = label_str
                .split(',')
                .filter_map(|pair| {
                    let (k, v) = pair.split_once('=')?;
                    Some((k.trim(), v.trim().trim_matches('"')))
                })
                .collect();
            (labels, value_str)
        }
        None => (Vec::new(), rest),
    };
    let value = match value_str.trim() {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        other => other.parse().ok()?,
    };
    Some((name, labels, value))
}

/// Folds one summary sample (`quantile` row or `_count`) into a
/// [`StagePercentiles`]. NaN quantiles (empty window) stay 0.
fn fold_summary(into: &mut StagePercentiles, labels: &[(&str, &str)], value: f64, count: bool) {
    if count {
        into.count = value as u64;
        return;
    }
    let Some((_, q)) = labels.iter().find(|(k, _)| *k == "quantile") else {
        return;
    };
    let value = if value.is_finite() { value } else { 0.0 };
    match *q {
        "0.5" => into.p50_us = value,
        "0.9" => into.p90_us = value,
        "0.99" => into.p99_us = value,
        "0.999" => into.p999_us = value,
        _ => {}
    }
}

/// Scrapes `/metrics` (Prometheus text exposition) and pulls out the
/// series the smoke test and report gate on: the batcher's size
/// histogram, the scratch-arena high-water gauge, the kernel ISA /
/// dispatch counters, and the per-stage + end-to-end latency
/// summaries. Returns defaults on any scrape or parse failure —
/// loadgen results still stand.
fn scrape_metrics(addr: &str) -> ScrapedMetrics {
    let mut scraped = ScrapedMetrics::default();
    scraped.server_total.stage = "total".to_string();
    let Ok(mut conn) = Conn::open(addr) else {
        return scraped;
    };
    let Ok((200, body)) = conn.get("/metrics") else {
        return scraped;
    };
    for line in body.lines() {
        let Some((name, labels, value)) = parse_prom_sample(line) else {
            continue;
        };
        let stage_entry = |stages: &mut Vec<StagePercentiles>, labels: &[(&str, &str)]| {
            let stage = labels.iter().find(|(k, _)| *k == "stage")?.1;
            if let Some(i) = stages.iter().position(|s| s.stage == stage) {
                return Some(i);
            }
            stages.push(StagePercentiles { stage: stage.to_string(), ..Default::default() });
            Some(stages.len() - 1)
        };
        match name {
            "serve_batch_size_count" => scraped.batch_count = value as u64,
            "serve_arena_allocated_bytes" => scraped.arena_bytes = value as u64,
            "tensor_kernel_isa" => {
                if let Some((_, isa)) = labels.iter().find(|(k, _)| *k == "isa") {
                    scraped.kernel_isa = (*isa).to_string();
                }
            }
            "tensor_dispatch_scalar" => scraped.dispatch_scalar = value as u64,
            n if n.starts_with("tensor_dispatch_") => scraped.dispatch_simd += value as u64,
            "serve_stage_us" => {
                if let Some(i) = stage_entry(&mut scraped.stages, &labels) {
                    fold_summary(&mut scraped.stages[i], &labels, value, false);
                }
            }
            "serve_stage_us_count" => {
                if let Some(i) = stage_entry(&mut scraped.stages, &labels) {
                    fold_summary(&mut scraped.stages[i], &labels, value, true);
                }
            }
            "serve_request_total_us" => {
                fold_summary(&mut scraped.server_total, &labels, value, false)
            }
            "serve_request_total_us_count" => {
                fold_summary(&mut scraped.server_total, &labels, value, true)
            }
            _ => {}
        }
    }
    scraped
}

/// How many flight-recorder traces the report keeps.
const SLOWEST_KEPT: usize = 3;

/// Scrapes `/debug/tracez` and returns the slowest completed
/// requests, slowest first. Empty on any scrape or parse failure.
fn scrape_tracez(addr: &str) -> Vec<SlowTrace> {
    let Ok(mut conn) = Conn::open(addr) else {
        return Vec::new();
    };
    let Ok((200, body)) = conn.get("/debug/tracez") else {
        return Vec::new();
    };
    let Ok(parsed) = serde_json::from_str::<serde_json::Value>(&body) else {
        return Vec::new();
    };
    let mut traces: Vec<SlowTrace> = Vec::new();
    for ring in ["recent", "notable"] {
        let Some(arr) = parsed.get(ring).and_then(|v| v.as_array()) else {
            continue;
        };
        for t in arr {
            let (Some(id), Some(path), Some(total_us)) = (
                t.get("id").and_then(|v| v.as_f64()),
                t.get("path").and_then(|v| v.as_str()),
                t.get("total_us").and_then(|v| v.as_f64()),
            ) else {
                continue;
            };
            let id = id as u64;
            if traces.iter().any(|s| s.id == id) {
                continue;
            }
            let mut stages: Vec<StageDur> = t
                .get("stages")
                .and_then(|v| v.as_object())
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| {
                            Some(StageDur { stage: k.clone(), us: v.as_f64()? })
                        })
                        .collect()
                })
                .unwrap_or_default();
            // JSON objects arrive alphabetized; restore pipeline order.
            let order = |s: &str| {
                occu_serve::STAGE_NAMES.iter().position(|n| *n == s).unwrap_or(usize::MAX)
            };
            stages.sort_by_key(|s| order(&s.stage));
            traces.push(SlowTrace {
                id,
                path: path.to_string(),
                status: t.get("status").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
                total_us,
                stages,
            });
        }
    }
    traces.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    traces.truncate(SLOWEST_KEPT);
    traces
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Runs the load test. When `cfg.url` is `None`, an in-process server
/// (and a temp weights file for its reload) is booted and torn down
/// around the run.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<ServeReport, OccuError> {
    if cfg.requests == 0 || cfg.concurrency == 0 {
        return Err(OccuError::config(
            "loadgen",
            "--requests and --concurrency must be positive",
        ));
    }

    // Boot the local server unless an external one was named.
    let mut local: Option<(Server, std::path::PathBuf)> = None;
    let addr = match &cfg.url {
        Some(url) => url.trim_start_matches("http://").to_string(),
        None => {
            // One directory per run: concurrent runs in one process
            // (parallel tests) must not share or delete each other's
            // weights file.
            static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("occu_loadgen_{}_{run}", std::process::id()));
            std::fs::create_dir_all(&dir).io_context(dir.display().to_string())?;
            let weights = dir.join("model.json");
            let model = DnnOccu::new(DnnOccuConfig::fast(), 17);
            std::fs::write(&weights, model.to_json()).io_context(weights.display().to_string())?;
            let registry = Arc::new(ModelRegistry::load(&weights)?);
            let server = Server::start(
                ServeConfig {
                    workers: cfg.concurrency.clamp(2, 16),
                    record: cfg.telemetry,
                    ..ServeConfig::default()
                },
                registry,
            )?;
            let addr = server.local_addr().to_string();
            local = Some((server, dir));
            addr
        }
    };

    let specs = working_set();

    // Warm phase: drive every spec through once so the timed phase
    // measures the cached steady state.
    {
        let mut warm =
            Conn::open(&addr).map_err(|e| OccuError::io(format!("connect {addr}"), e))?;
        for spec in &specs {
            let (status, body) = warm
                .post("/predict", spec)
                .map_err(|e| OccuError::io("warmup request", e))?;
            if status != 200 {
                return Err(OccuError::data(
                    "loadgen warmup",
                    format!("spec {spec} answered {status}: {body}"),
                ));
            }
        }
    }

    // Timed phase: clients at full throttle, one hot-reload at the
    // halfway mark from a separate control connection.
    let completed = Arc::new(AtomicU64::new(0));
    let per_thread = cfg.requests / cfg.concurrency;
    let total = per_thread * cfg.concurrency;
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..cfg.concurrency {
        let addr = addr.clone();
        let specs = specs.clone();
        let completed = Arc::clone(&completed);
        handles.push(std::thread::spawn(move || {
            client_thread(addr, specs, per_thread, t, completed)
        }));
    }

    let reload_handle = {
        let addr = addr.clone();
        let completed = Arc::clone(&completed);
        let half = (total as u64) / 2;
        std::thread::spawn(move || -> (bool, u64) {
            while completed.load(Ordering::Relaxed) < half {
                std::thread::sleep(Duration::from_millis(2));
            }
            let Ok(mut conn) = Conn::open(&addr) else {
                return (false, 0);
            };
            match conn.post("/reload", "") {
                Ok((200, body)) => {
                    let version = body
                        .split("\"version\":")
                        .nth(1)
                        .and_then(|rest| {
                            rest.trim_start()
                                .split(|c: char| !c.is_ascii_digit())
                                .next()
                                .and_then(|d| d.parse().ok())
                        })
                        .unwrap_or(0);
                    (true, version)
                }
                _ => (false, 0),
            }
        })
    };

    let mut tallies = Vec::new();
    for h in handles {
        tallies.push(
            h.join()
                .map_err(|_| OccuError::data("loadgen", "client thread panicked"))?,
        );
    }
    let duration_s = started.elapsed().as_secs_f64();
    let (reload_ok, model_version_after) = reload_handle
        .join()
        .map_err(|_| OccuError::data("loadgen", "reload thread panicked"))?;

    // Scrape /metrics and /debug/tracez before teardown so the report
    // captures the batcher, scratch-arena, kernel-dispatch, and
    // stage-latency state this run produced.
    let scraped = scrape_metrics(&addr);
    let slowest = scrape_tracez(&addr);

    if let Some((server, dir)) = local {
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut latencies: Vec<u64> = tallies.iter().flat_map(|t| t.latencies_us.clone()).collect();
    latencies.sort_unstable();
    let ok: usize = tallies.iter().map(|t| t.ok).sum();
    let errors: usize = tallies.iter().map(|t| t.errors).sum();
    let dropped: usize = tallies.iter().map(|t| t.dropped).sum();
    let cache_hits: usize = tallies.iter().map(|t| t.cache_hits).sum();

    // Tail attribution: how much of the server-side end-to-end median
    // the per-stage medians account for. Both sides come from the same
    // rolling windows (same sample population, zeros recorded for
    // skipped stages), so the ratio should sit near 1.0.
    let stage_sum_p50_us: f64 = scraped.stages.iter().map(|s| s.p50_us).sum();
    let attribution_ratio = if scraped.server_total.p50_us > 0.0 {
        stage_sum_p50_us / scraped.server_total.p50_us
    } else {
        0.0
    };

    Ok(ServeReport {
        requests: total,
        ok,
        errors,
        dropped,
        concurrency: cfg.concurrency,
        duration_s,
        throughput_rps: if duration_s > 0.0 {
            ok as f64 / duration_s
        } else {
            0.0
        },
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        cache_hit_rate: if ok > 0 {
            cache_hits as f64 / ok as f64
        } else {
            0.0
        },
        reload_ok,
        model_version_after,
        metrics_batch_count: scraped.batch_count,
        arena_allocated_bytes: scraped.arena_bytes,
        kernel_isa: scraped.kernel_isa,
        dispatch_simd: scraped.dispatch_simd,
        dispatch_scalar: scraped.dispatch_scalar,
        telemetry: cfg.telemetry,
        stages: scraped.stages,
        server_total: scraped.server_total,
        stage_sum_p50_us,
        attribution_ratio,
        slowest,
    })
}

/// Console rendering of a [`ServeReport`].
pub fn render_loadgen(rep: &ServeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Serve load test: {} requests over {} connections ==",
        rep.requests, rep.concurrency
    );
    let _ = writeln!(
        out,
        "throughput:     {:>12.0} predictions/sec  ({:.2} s wall)",
        rep.throughput_rps, rep.duration_s
    );
    let _ = writeln!(
        out,
        "latency:        {:>9} us p50   {:>9} us p99   {:>9} us p999  (client-observed)",
        rep.p50_us, rep.p99_us, rep.p999_us
    );
    let _ = writeln!(out, "cache hit rate: {:>12.1}%", rep.cache_hit_rate * 100.0);
    if !rep.stages.is_empty() {
        let _ = writeln!(out, "server stage breakdown (rolling-window percentiles, us):");
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "stage", "p50", "p90", "p99", "p999", "samples"
        );
        for s in &rep.stages {
            let _ = writeln!(
                out,
                "  {:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
                s.stage, s.p50_us, s.p90_us, s.p99_us, s.p999_us, s.count
            );
        }
        let t = &rep.server_total;
        let _ = writeln!(
            out,
            "  {:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
            "total", t.p50_us, t.p90_us, t.p99_us, t.p999_us, t.count
        );
        let _ = writeln!(
            out,
            "  stage-sum p50 {:.1} us / total p50 {:.1} us = {:.3} attribution",
            rep.stage_sum_p50_us, t.p50_us, rep.attribution_ratio
        );
    }
    if !rep.slowest.is_empty() {
        let _ = writeln!(out, "slowest requests (flight recorder):");
        for s in &rep.slowest {
            let breakdown: Vec<String> = s
                .stages
                .iter()
                .filter(|d| d.us > 0.0)
                .map(|d| format!("{} {:.0}", d.stage, d.us))
                .collect();
            let _ = writeln!(
                out,
                "  #{:<8} {:<16} {:>4}  {:>9.0} us  [{}]",
                s.id,
                s.path,
                s.status,
                s.total_us,
                breakdown.join(", ")
            );
        }
    }
    let _ = writeln!(
        out,
        "kernel isa:     {:>12}   dispatch simd/scalar: {}/{}",
        if rep.kernel_isa.is_empty() { "(unscraped)" } else { &rep.kernel_isa },
        rep.dispatch_simd,
        rep.dispatch_scalar
    );
    let _ = writeln!(
        out,
        "ok/errors/dropped: {}/{}/{}   hot-reload: {} (model v{})",
        rep.ok,
        rep.errors,
        rep.dropped,
        if rep.reload_ok { "ok" } else { "FAILED" },
        rep.model_version_after,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        // Nearest-rank on [1, 100]: (99 * 0.5).round() = 50 -> v[50].
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn prom_sample_parsing_handles_labels_and_specials() {
        assert_eq!(parse_prom_sample("# TYPE x counter"), None);
        assert_eq!(parse_prom_sample(""), None);
        let (name, labels, value) = parse_prom_sample("serve_requests 42").expect("bare sample");
        assert_eq!((name, labels.len(), value), ("serve_requests", 0, 42.0));
        let (name, labels, value) =
            parse_prom_sample("serve_stage_us{stage=\"predict\",quantile=\"0.99\"} 12.5")
                .expect("labeled sample");
        assert_eq!(name, "serve_stage_us");
        assert_eq!(labels, vec![("stage", "predict"), ("quantile", "0.99")]);
        assert_eq!(value, 12.5);
        let (_, _, nan) = parse_prom_sample("x{q=\"0.5\"} NaN").expect("NaN sample");
        assert!(nan.is_nan());
    }

    #[test]
    fn fold_summary_collects_quantiles_and_count() {
        let mut s = StagePercentiles { stage: "predict".into(), ..Default::default() };
        fold_summary(&mut s, &[("quantile", "0.5")], 10.0, false);
        fold_summary(&mut s, &[("quantile", "0.99")], 90.0, false);
        fold_summary(&mut s, &[("quantile", "0.999")], f64::NAN, false);
        fold_summary(&mut s, &[], 128.0, true);
        assert_eq!((s.p50_us, s.p99_us, s.p999_us, s.count), (10.0, 90.0, 0.0, 128));
    }

    #[test]
    fn working_set_is_small_and_distinct() {
        let specs = working_set();
        let unique: std::collections::HashSet<_> = specs.iter().collect();
        assert_eq!(unique.len(), specs.len());
        assert!(specs.len() <= 16, "working set must fit any cache");
    }

    // The full in-process round-trip smoke lives in
    // `tests/loadgen_smoke.rs`: booting a server flips the
    // process-global obs switch, which the perf tests in this binary
    // assert against, so it needs its own process.
}
