//! Throughput measurement for the parallel training pipeline, and the
//! cost of observability.
//!
//! `repro perf` times `Trainer::fit` at several worker counts and
//! `predict_all` on the full pool (the median of repeated warm passes),
//! then emits a machine-readable JSON report (train samples/sec,
//! predict graphs/sec, speedup versus the serial run). Because
//! training is bit-deterministic in the worker count, every row of the
//! table reaches the *same* parameters — the report isolates
//! wall-clock effects from model quality.
//!
//! `repro obs-overhead` times the same fit with span/metric recording
//! off and on, and an in-process server with request telemetry
//! (`ServeConfig::record`) off and on under a small keep-alive client
//! driver; the telemetry-on pass must also attribute its end-to-end
//! median to the per-stage medians on `/metrics`.

use occu_core::dataset::{Dataset, SEEN_MODELS};
use occu_core::experiments::ExperimentScale;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::{OccuPredictor, Parallelism, TrainConfig, Trainer};
use occu_error::{IoContext, OccuError};
use occu_gpusim::DeviceSpec;
use occu_serve::{ModelRegistry, ServeConfig, Server};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// One training run at a fixed worker count.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainPerfRow {
    /// Gradient workers used (`Parallelism::fixed`).
    pub workers: usize,
    /// Wall-clock time of the whole `fit` call, milliseconds.
    pub wall_ms: f64,
    /// Sample gradients computed per second (epochs x samples / wall).
    pub samples_per_sec: f64,
    /// Wall-clock speedup versus the `workers = 1` row.
    pub speedup_vs_serial: f64,
}

/// Inference throughput over the evaluation pool.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PredictPerf {
    /// Graphs predicted per pass (one forward pass each).
    pub graphs: usize,
    /// Timed passes over the pool, after one untimed warm-up pass.
    pub passes: usize,
    /// Median wall-clock time of one pass over the pool, milliseconds.
    pub wall_ms: f64,
    /// Forward passes per second in the median pass.
    pub graphs_per_sec: f64,
}

/// Wall time the predict timing keeps repeating passes for: one pass
/// over a quick pool takes about 20 ms, too short to time alone.
const PREDICT_MIN_WALL_S: f64 = 1.0;
/// Fewest timed predict passes, however long one pass takes.
const PREDICT_MIN_PASSES: usize = 5;

/// The full `repro perf` report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Cores the OS reports (`available_parallelism`).
    pub host_cores: usize,
    /// Device whose profiles form the workload.
    pub device: String,
    /// Training-set size (samples).
    pub train_samples: usize,
    /// Epochs each timed run trains for.
    pub epochs: usize,
    /// Hidden width of the timed DNN-occu.
    pub hidden: usize,
    /// One row per worker count, `workers = 1` first.
    pub train: Vec<TrainPerfRow>,
    /// `predict_all` throughput (auto parallelism).
    pub predict: PredictPerf,
}

/// Worker counts worth timing on this host: serial, then powers of
/// two up to the core count (always including the core count itself).
pub fn default_worker_counts() -> Vec<usize> {
    let cores = Parallelism::auto().resolve();
    let mut counts = vec![1];
    let mut w = 2;
    while w < cores {
        counts.push(w);
        w *= 2;
    }
    if cores > 1 {
        counts.push(cores);
    }
    counts
}

/// Runs the throughput study and returns the report.
pub fn perf_study(scale: ExperimentScale, worker_counts: &[usize], seed: u64) -> PerfReport {
    let device = DeviceSpec::a100();
    let data = Dataset::generate(&SEEN_MODELS, scale.configs_per_model, &device, seed);
    let cfg = DnnOccuConfig { hidden: scale.hidden, ..DnnOccuConfig::fast() };

    let mut train_rows = Vec::new();
    let mut serial_ms = f64::NAN;
    for &workers in worker_counts {
        // Fresh model per row so every run does identical work from
        // identical initialization.
        let mut model = DnnOccu::new(cfg, seed);
        let train_cfg = TrainConfig {
            epochs: scale.epochs,
            seed,
            parallelism: Parallelism::fixed(workers),
            ..TrainConfig::default()
        };
        let start = Instant::now();
        Trainer::new(train_cfg).fit(&mut model, &data).expect("perf study uses in-tree config");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if train_rows.is_empty() {
            serial_ms = wall_ms;
        }
        let row = TrainPerfRow {
            workers,
            wall_ms,
            samples_per_sec: (scale.epochs * data.len()) as f64 / (wall_ms / 1e3),
            speedup_vs_serial: serial_ms / wall_ms,
        };
        if occu_obs::enabled() {
            occu_obs::gauge(&format!("perf.train.w{workers}.samples_per_sec")).set(row.samples_per_sec);
            occu_obs::gauge(&format!("perf.train.w{workers}.wall_ms")).set(row.wall_ms);
        }
        train_rows.push(row);
    }

    // Inference throughput on the trained model (any row's parameters
    // are identical; retrain once more at auto parallelism).
    let mut model = DnnOccu::new(cfg, seed);
    Trainer::new(TrainConfig { epochs: scale.epochs, seed, ..TrainConfig::default() })
        .fit(&mut model, &data)
        .expect("perf study uses in-tree config");
    let graphs = model.predict_all(&data).len();
    let mut pass_ms = Vec::new();
    let timing = Instant::now();
    while pass_ms.len() < PREDICT_MIN_PASSES || timing.elapsed().as_secs_f64() < PREDICT_MIN_WALL_S {
        let start = Instant::now();
        std::hint::black_box(model.predict_all(&data));
        pass_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    pass_ms.sort_by(f64::total_cmp);
    let wall_ms = pass_ms[pass_ms.len() / 2];
    let predict = PredictPerf {
        graphs,
        passes: pass_ms.len(),
        wall_ms,
        graphs_per_sec: graphs as f64 / (wall_ms / 1e3),
    };
    if occu_obs::enabled() {
        occu_obs::gauge("perf.predict.graphs_per_sec").set(predict.graphs_per_sec);
    }

    PerfReport {
        host_cores: Parallelism::auto().resolve(),
        device: device.name.clone(),
        train_samples: data.len(),
        epochs: scale.epochs,
        hidden: scale.hidden,
        train: train_rows,
        predict,
    }
}

/// The `repro obs-overhead` report: the same training run timed with
/// observability off and on, proving the instrumentation honors its
/// overhead budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsOverheadReport {
    /// Cores the OS reports (`available_parallelism`).
    pub host_cores: usize,
    /// Training-set size (samples).
    pub train_samples: usize,
    /// Epochs each timed run trains for.
    pub epochs: usize,
    /// Hidden width of the timed DNN-occu.
    pub hidden: usize,
    /// Timed repetitions per mode (best of N is reported).
    pub reps: usize,
    /// Best wall time with recording off, milliseconds.
    pub baseline_ms: f64,
    /// Best wall time with recording on, milliseconds.
    pub instrumented_ms: f64,
    /// `instrumented_ms / baseline_ms`.
    pub overhead_factor: f64,
    /// Spans recorded by one instrumented run.
    pub spans_recorded: usize,
    /// Metric entries recorded by one instrumented run.
    pub metrics_entries: usize,
    /// Largest acceptable `overhead_factor`.
    pub budget_factor: f64,
    /// Requests per serve pass in the serve-telemetry section
    /// (0 = section skipped).
    #[serde(default)]
    pub serve_requests: usize,
    /// Best serve-pass throughput with request telemetry off, pred/s.
    #[serde(default)]
    pub serve_baseline_rps: f64,
    /// Best serve-pass throughput with request telemetry on, pred/s.
    #[serde(default)]
    pub serve_instrumented_rps: f64,
    /// `serve_baseline_rps / serve_instrumented_rps` — the serving
    /// slowdown attributable to per-request telemetry.
    #[serde(default)]
    pub serve_overhead_factor: f64,
    /// Largest acceptable `serve_overhead_factor` (1.05: telemetry
    /// must cost under 5% of serving throughput).
    #[serde(default)]
    pub serve_budget_factor: f64,
    /// Sum of the per-stage p50s (`serve_stage_us`) the best
    /// telemetry-on pass left on `/metrics`, microseconds.
    #[serde(default)]
    pub serve_stage_sum_p50_us: f64,
    /// End-to-end p50 (`serve_request_total_us`) of the same pass,
    /// microseconds.
    #[serde(default)]
    pub serve_total_p50_us: f64,
}

impl ObsOverheadReport {
    /// True when the measured training overhead is inside the budget.
    pub fn within_budget(&self) -> bool {
        self.overhead_factor <= self.budget_factor
    }

    /// True when the serve-telemetry overhead is inside its budget
    /// (vacuously true when the section was skipped).
    pub fn serve_within_budget(&self) -> bool {
        self.serve_requests == 0 || self.serve_overhead_factor <= self.serve_budget_factor
    }

    /// How much of the end-to-end median the stage breakdown accounts
    /// for: `serve_stage_sum_p50_us / serve_total_p50_us`.
    pub fn serve_attribution_ratio(&self) -> f64 {
        self.serve_stage_sum_p50_us / self.serve_total_p50_us
    }

    /// True when the stage p50s sum to within
    /// [`SERVE_ATTRIBUTION_TOLERANCE`] of the end-to-end p50: every
    /// stage recorded, nothing counted twice (vacuously true when the
    /// serve section was skipped).
    pub fn serve_attribution_ok(&self) -> bool {
        self.serve_requests == 0
            || (self.serve_attribution_ratio() - 1.0).abs() <= SERVE_ATTRIBUTION_TOLERANCE
    }
}

/// Acceptable serving slowdown with request telemetry on: the whole
/// point of the wait-free windows/recorder is that recording is
/// effectively free, so the budget is 5%.
pub const SERVE_OVERHEAD_BUDGET: f64 = 1.05;

/// Largest gap, as a fraction of the end-to-end p50, between that p50
/// and the sum of the stage p50s.
pub const SERVE_ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// The serve passes' repeating working set: 8 named specs, so after
/// one warm-up round every request is a prediction-cache hit and a
/// pass times the request path (parse, lookup, telemetry, write), the
/// part request telemetry instruments.
fn serve_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for model in ["LeNet", "AlexNet"] {
        for batch in [1, 2] {
            for device in ["a100", "v100"] {
                specs.push(format!(r#"{{"model": "{model}", "batch": {batch}, "device": "{device}"}}"#));
            }
        }
    }
    specs
}

/// Opens one keep-alive connection to the server at `addr`.
fn connect(addr: SocketAddr) -> Result<BufReader<TcpStream>, OccuError> {
    let stream = TcpStream::connect(addr).io_context(format!("connect {addr}"))?;
    stream.set_nodelay(true).io_context("set_nodelay")?;
    Ok(BufReader::new(stream))
}

/// One request on a keep-alive connection; fails unless it answers
/// 200, and returns the body.
fn http_ok(conn: &mut BufReader<TcpStream>, method: &str, path: &str, body: &str) -> Result<String, OccuError> {
    let mut exchange = || -> std::io::Result<(String, String)> {
        let request = format!("{method} {path} HTTP/1.1\r\nHost: repro\r\nContent-Length: {}\r\n\r\n{body}", body.len());
        conn.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status = line.split_whitespace().nth(1).unwrap_or_default().to_string();
        let mut len = 0;
        loop {
            line.clear();
            conn.read_line(&mut line)?;
            match line.trim_end().split_once(':') {
                Some((name, value)) if name.eq_ignore_ascii_case("content-length") => {
                    len = value.trim().parse().unwrap_or(0);
                }
                Some(_) => {}
                None => break,
            }
        }
        let mut answer = vec![0; len];
        conn.read_exact(&mut answer)?;
        Ok((status, String::from_utf8_lossy(&answer).into_owned()))
    };
    let (status, answer) = exchange().map_err(|e| OccuError::io(format!("{method} {path}"), e))?;
    if status != "200" {
        return Err(OccuError::data(format!("{method} {path} {body}"), format!("answered {status}: {answer}")));
    }
    Ok(answer)
}

/// One serve pass: boots an in-process server (`record` switches its
/// request telemetry), warms the working set, then `concurrency`
/// keep-alive clients send `requests` predictions between them.
/// Returns the pass's predictions per second and, from the
/// `quantile="0.5"` rows of `/metrics`, the sum of the stage p50s and
/// the end-to-end p50 (microseconds).
fn serve_pass(requests: usize, concurrency: usize, record: bool) -> Result<(f64, f64, f64), OccuError> {
    let model = DnnOccu::new(DnnOccuConfig::fast(), 17);
    let registry = Arc::new(ModelRegistry::from_model(model, "obs-overhead.json"));
    let cfg = ServeConfig { workers: concurrency.clamp(2, 16), record, ..ServeConfig::default() };
    let server = Server::start(cfg, registry)?;
    let addr = server.local_addr();
    let specs = serve_specs();
    // A worker serves one connection until it closes, so the warm-up
    // connection is dropped before the clients connect.
    let mut warm = connect(addr)?;
    for spec in &specs {
        http_ok(&mut warm, "POST", "/predict", spec)?;
    }
    drop(warm);
    let per_client = requests / concurrency;
    let started = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..concurrency)
            .map(|c| {
                let specs = &specs;
                s.spawn(move || -> Result<(), OccuError> {
                    let mut conn = connect(addr)?;
                    for i in 0..per_client {
                        http_ok(&mut conn, "POST", "/predict", &specs[(c + i) % specs.len()])?;
                    }
                    Ok(())
                })
            })
            .collect();
        clients.into_iter().try_for_each(|h| {
            h.join().map_err(|_| OccuError::data("serve pass", "client thread panicked"))?
        })
    })?;
    let rps = (per_client * concurrency) as f64 / started.elapsed().as_secs_f64();
    let metrics = http_ok(&mut connect(addr)?, "GET", "/metrics", "")?;
    server.shutdown();
    let (mut stage_sum_us, mut total_us) = (0.0, 0.0);
    for (series, value) in metrics.lines().filter_map(|l| l.rsplit_once(' ')) {
        let value: f64 = value.parse().unwrap_or(f64::NAN);
        if !series.ends_with(r#"quantile="0.5"}"#) {
            continue;
        }
        if series.starts_with("serve_stage_us{") {
            stage_sum_us += value;
        } else if series.starts_with("serve_request_total_us{") {
            total_us = value;
        }
    }
    Ok((rps, stage_sum_us, total_us))
}

/// Measures serving-path telemetry overhead: the same in-process
/// serve pass with request telemetry off and on, interleaved
/// best-of-`reps` per mode, written into `rep`'s serve section with
/// the best telemetry-on pass's stage attribution.
pub fn serve_overhead_study(
    rep: &mut ObsOverheadReport,
    requests: usize,
    concurrency: usize,
    reps: usize,
) -> Result<(), OccuError> {
    let mut baseline_rps = 0.0f64;
    let mut instrumented_rps = 0.0f64;
    for _ in 0..reps.max(1) {
        baseline_rps = baseline_rps.max(serve_pass(requests, concurrency, false)?.0);
        let (rps, stage_sum_us, total_us) = serve_pass(requests, concurrency, true)?;
        if rps > instrumented_rps {
            instrumented_rps = rps;
            rep.serve_stage_sum_p50_us = stage_sum_us;
            rep.serve_total_p50_us = total_us;
        }
    }
    rep.serve_requests = requests;
    rep.serve_baseline_rps = baseline_rps;
    rep.serve_instrumented_rps = instrumented_rps;
    rep.serve_overhead_factor = if instrumented_rps > 0.0 {
        baseline_rps / instrumented_rps
    } else {
        f64::INFINITY
    };
    rep.serve_budget_factor = SERVE_OVERHEAD_BUDGET;
    Ok(())
}

/// Times `Trainer::fit` with recording off and on (best of `reps`
/// each, interleaved) and reports the overhead factor. Restores the
/// recording state it found and leaves the global registry/buffers
/// clean.
pub fn obs_overhead_study(scale: ExperimentScale, reps: usize, seed: u64) -> ObsOverheadReport {
    // Span/metric recording is process-global; remember what we found.
    let was_enabled = occu_obs::enabled();
    let device = DeviceSpec::a100();
    let data = Dataset::generate(&SEEN_MODELS, scale.configs_per_model, &device, seed);
    let cfg = DnnOccuConfig { hidden: scale.hidden, ..DnnOccuConfig::fast() };
    let reps = reps.max(2);

    let time_fit = |enabled: bool| -> f64 {
        if enabled {
            occu_obs::enable();
        } else {
            occu_obs::disable();
        }
        let mut model = DnnOccu::new(cfg, seed);
        let train_cfg =
            TrainConfig { epochs: scale.epochs, seed, ..TrainConfig::default() };
        let start = Instant::now();
        Trainer::new(train_cfg).fit(&mut model, &data).expect("overhead study uses in-tree config");
        start.elapsed().as_secs_f64() * 1e3
    };

    // Warm both paths once (allocator, thread pool, registry lookups),
    // then interleave the timed reps so drift hits both modes equally.
    time_fit(false);
    time_fit(true);
    occu_obs::take_spans();
    occu_obs::clear_metrics();

    let mut baseline_ms = f64::INFINITY;
    let mut instrumented_ms = f64::INFINITY;
    let mut spans_recorded = 0;
    let mut metrics_entries = 0;
    for _ in 0..reps {
        baseline_ms = baseline_ms.min(time_fit(false));
        instrumented_ms = instrumented_ms.min(time_fit(true));
        spans_recorded = occu_obs::take_spans().len();
        metrics_entries = occu_obs::metrics_snapshot().entries.len();
        occu_obs::clear_metrics();
    }
    if was_enabled {
        occu_obs::enable();
    } else {
        occu_obs::disable();
    }

    ObsOverheadReport {
        host_cores: Parallelism::auto().resolve(),
        train_samples: data.len(),
        epochs: scale.epochs,
        hidden: scale.hidden,
        reps,
        baseline_ms,
        instrumented_ms,
        overhead_factor: instrumented_ms / baseline_ms,
        spans_recorded,
        metrics_entries,
        // Per-batch spans + atomics should stay well under 3x even on
        // the quick scale, where batches are tiny and overhead is
        // proportionally largest.
        budget_factor: 3.0,
        // The serve section is filled by `serve_overhead_study`.
        serve_requests: 0,
        serve_baseline_rps: 0.0,
        serve_instrumented_rps: 0.0,
        serve_overhead_factor: 0.0,
        serve_budget_factor: SERVE_OVERHEAD_BUDGET,
        serve_stage_sum_p50_us: 0.0,
        serve_total_p50_us: 0.0,
    }
}

/// Renders the overhead report for the console.
pub fn render_obs_overhead(rep: &ObsOverheadReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Observability overhead: {} samples x {} epochs, hidden {}, {} host cores ==",
        rep.train_samples, rep.epochs, rep.hidden, rep.host_cores
    );
    let _ = writeln!(out, "baseline (obs off):     {:>10.1} ms  (best of {})", rep.baseline_ms, rep.reps);
    let _ = writeln!(out, "instrumented (obs on):  {:>10.1} ms  ({} spans, {} metrics)", rep.instrumented_ms, rep.spans_recorded, rep.metrics_entries);
    let _ = writeln!(
        out,
        "overhead factor:        {:>10.3}x  (budget {:.1}x) {}",
        rep.overhead_factor,
        rep.budget_factor,
        if rep.within_budget() { "OK" } else { "OVER BUDGET" }
    );
    if rep.serve_requests > 0 {
        let _ = writeln!(
            out,
            "serve baseline (telemetry off): {:>10.0} pred/s  ({} requests/pass)",
            rep.serve_baseline_rps, rep.serve_requests
        );
        let _ = writeln!(
            out,
            "serve instrumented (on):        {:>10.0} pred/s",
            rep.serve_instrumented_rps
        );
        let _ = writeln!(
            out,
            "serve overhead factor:          {:>10.3}x  (budget {:.2}x) {}",
            rep.serve_overhead_factor,
            rep.serve_budget_factor,
            if rep.serve_within_budget() { "OK" } else { "OVER BUDGET" }
        );
        let _ = writeln!(
            out,
            "serve stage attribution:        {:>10.3}   (stage-sum p50 {:.1} us / total p50 {:.1} us, gate 1 +/- {:.2}) {}",
            rep.serve_attribution_ratio(),
            rep.serve_stage_sum_p50_us,
            rep.serve_total_p50_us,
            SERVE_ATTRIBUTION_TOLERANCE,
            if rep.serve_attribution_ok() { "OK" } else { "OFF" }
        );
    }
    out
}

/// Guards report output paths *before* a study runs: refuses to
/// clobber anything that is not a JSON report. Regenerating an
/// existing `.json` report is the normal workflow and stays allowed;
/// overwriting a directory or an arbitrary non-JSON file is a typed
/// `Config` error so the mistake costs seconds, not a study plus a
/// file.
pub fn validate_out_path(out: &str) -> Result<(), OccuError> {
    let path = std::path::Path::new(out);
    if !out.to_ascii_lowercase().ends_with(".json") {
        return Err(OccuError::config(
            "--out",
            format!("report path '{out}' must end in .json"),
        ));
    }
    if path.is_dir() {
        return Err(OccuError::config(
            "--out",
            format!("'{out}' is a directory, not a report file"),
        ));
    }
    // A pre-existing file is only overwritten when it actually holds a
    // JSON document (i.e. it is a previous report being regenerated).
    if path.is_file() {
        let head = std::fs::read(path)
            .ok()
            .and_then(|bytes| bytes.iter().find(|b| !b.is_ascii_whitespace()).copied());
        if !matches!(head, None | Some(b'{') | Some(b'[')) {
            return Err(OccuError::config(
                "--out",
                format!("refusing to overwrite '{out}': existing file is not a JSON report"),
            ));
        }
    }
    Ok(())
}

/// Renders the report as an aligned console table.
pub fn render_perf(rep: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Throughput: {} samples x {} epochs, hidden {}, {} host cores ({}) ==",
        rep.train_samples, rep.epochs, rep.hidden, rep.host_cores, rep.device
    );
    let _ = writeln!(out, "{:<9} {:>12} {:>16} {:>10}", "workers", "wall (ms)", "samples/sec", "speedup");
    for r in &rep.train {
        let _ = writeln!(
            out,
            "{:<9} {:>12.1} {:>16.1} {:>9.2}x",
            r.workers, r.wall_ms, r.samples_per_sec, r.speedup_vs_serial
        );
    }
    let _ = writeln!(
        out,
        "predict: {} graphs in {:.1} ms ({:.1} graphs/sec, median of {} passes)",
        rep.predict.graphs, rep.predict.wall_ms, rep.predict.graphs_per_sec, rep.predict.passes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that run `fit` while the global recording
    /// switch may flip (obs state is process-wide).
    static GLOBAL_OBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn perf_study_produces_consistent_report() {
        let _guard = GLOBAL_OBS.lock().unwrap();
        let scale = ExperimentScale { configs_per_model: 1, epochs: 2, hidden: 16 };
        let rep = perf_study(scale, &[1, 2], 3);
        assert_eq!(rep.train.len(), 2);
        assert_eq!(rep.train[0].workers, 1);
        assert!((rep.train[0].speedup_vs_serial - 1.0).abs() < 1e-9);
        for r in &rep.train {
            assert!(r.wall_ms > 0.0 && r.samples_per_sec > 0.0);
        }
        assert_eq!(rep.predict.graphs, rep.train_samples);
        assert!(rep.predict.graphs_per_sec > 0.0);
        assert!(rep.predict.passes >= PREDICT_MIN_PASSES);
        // JSON round-trip through the report type.
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.train.len(), rep.train.len());
        assert_eq!(back.host_cores, rep.host_cores);
    }

    #[test]
    fn obs_overhead_study_measures_both_modes() {
        let _guard = GLOBAL_OBS.lock().unwrap();
        let scale = ExperimentScale { configs_per_model: 1, epochs: 2, hidden: 16 };
        let rep = obs_overhead_study(scale, 2, 7);
        assert!(rep.baseline_ms > 0.0 && rep.baseline_ms.is_finite());
        assert!(rep.instrumented_ms > 0.0 && rep.instrumented_ms.is_finite());
        assert!(rep.overhead_factor > 0.0);
        // The instrumented run must actually have recorded something.
        assert!(rep.spans_recorded > 0, "no spans recorded");
        assert!(rep.metrics_entries > 0, "no metrics recorded");
        // The study must leave the process in its default quiet state.
        assert!(!occu_obs::enabled());
        assert!(occu_obs::take_spans().is_empty());
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: ObsOverheadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reps, rep.reps);
    }

    #[test]
    fn serve_pass_records_stages_only_with_telemetry_on() {
        let _guard = GLOBAL_OBS.lock().unwrap();
        // With telemetry off the stage windows stay empty (the inert
        // baseline the serve budget compares against).
        let (rps, stage_sum_us, total_us) = serve_pass(200, 2, false).unwrap();
        assert!(rps > 0.0);
        assert_eq!((stage_sum_us, total_us), (0.0, 0.0));
        let (rps, stage_sum_us, total_us) = serve_pass(200, 2, true).unwrap();
        assert!(rps > 0.0);
        assert!(stage_sum_us > 0.0 && total_us > 0.0, "{stage_sum_us} / {total_us}");
        // Booting a server switches recording on; leave the process
        // quiet for the other tests.
        occu_obs::disable();
        occu_obs::take_spans();
        occu_obs::clear_metrics();
    }

    #[test]
    fn out_path_guard_rejects_clobber_targets() {
        let dir = std::env::temp_dir().join(format!("occu_outguard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Wrong extension, even for a fresh path.
        let txt = dir.join("notes.txt");
        let err = validate_out_path(txt.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), "config");

        // A directory target (even one named like a report).
        let sub = dir.join("sub.json");
        std::fs::create_dir_all(&sub).unwrap();
        let err = validate_out_path(sub.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), "config");

        // An existing file that is not JSON must not be clobbered.
        let victim = dir.join("victim.json");
        std::fs::write(&victim, "important plaintext, not a report").unwrap();
        let err = validate_out_path(victim.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), "config");
        assert!(err.to_string().contains("refusing to overwrite"));

        // A previous JSON report is fair game, as is a fresh path.
        let report = dir.join("report.json");
        std::fs::write(&report, "{\"ok\": true}").unwrap();
        assert!(validate_out_path(report.to_str().unwrap()).is_ok());
        assert!(validate_out_path(dir.join("fresh.json").to_str().unwrap()).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn worker_counts_start_serial_and_cover_cores() {
        let counts = default_worker_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.contains(&Parallelism::auto().resolve()) || counts == [1]);
    }
}
