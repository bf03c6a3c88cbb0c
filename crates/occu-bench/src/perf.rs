//! Throughput measurement for the parallel training pipeline.
//!
//! `repro perf` times `Trainer::fit` at several worker counts and
//! `predict_all` on the full pool (the median of repeated warm passes),
//! then emits a machine-readable JSON report (train samples/sec,
//! predict graphs/sec, speedup versus the serial run). Because
//! training is bit-deterministic in the worker count, every row of the
//! table reaches the *same* parameters — the report isolates
//! wall-clock effects from model quality.

use occu_core::dataset::{Dataset, SEEN_MODELS};
use occu_core::experiments::ExperimentScale;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::{OccuPredictor, Parallelism, TrainConfig, Trainer};
use occu_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};
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
    /// Requests per loadgen pass in the serve-telemetry section
    /// (0 = section skipped).
    #[serde(default)]
    pub serve_requests: usize,
    /// Best loadgen throughput with request telemetry off, pred/s.
    #[serde(default)]
    pub serve_baseline_rps: f64,
    /// Best loadgen throughput with request telemetry on, pred/s.
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
}

/// Acceptable serving slowdown with request telemetry on: the whole
/// point of the wait-free windows/recorder is that recording is
/// effectively free, so the budget is 5%.
pub const SERVE_OVERHEAD_BUDGET: f64 = 1.05;

/// Measures serving-path telemetry overhead: the same in-process
/// loadgen run with request telemetry off and on, interleaved
/// best-of-`reps` per mode, written into `rep`'s serve section.
pub fn serve_overhead_study(
    rep: &mut ObsOverheadReport,
    requests: usize,
    concurrency: usize,
    reps: usize,
) -> Result<(), occu_error::OccuError> {
    let run = |telemetry: bool| -> Result<f64, occu_error::OccuError> {
        let cfg = crate::LoadgenConfig {
            url: None,
            requests,
            concurrency,
            telemetry,
        };
        Ok(crate::run_loadgen(&cfg)?.throughput_rps)
    };
    let mut baseline_rps = 0.0f64;
    let mut instrumented_rps = 0.0f64;
    for _ in 0..reps.max(1) {
        baseline_rps = baseline_rps.max(run(false)?);
        instrumented_rps = instrumented_rps.max(run(true)?);
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
    }
    out
}

/// Guards report output paths *before* a study runs: refuses to
/// clobber anything that is not a JSON report. Regenerating an
/// existing `.json` report is the normal workflow and stays allowed;
/// overwriting a directory or an arbitrary non-JSON file is a typed
/// `Config` error so the mistake costs seconds, not a study plus a
/// file.
pub fn validate_out_path(out: &str) -> Result<(), occu_error::OccuError> {
    use occu_error::OccuError;
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
