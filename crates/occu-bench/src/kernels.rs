//! GEMM-kernel regression study (`repro kernels`).
//!
//! Times the cache-blocked packed GEMM kernels in `occu-tensor`
//! against the scalar naive oracles at the matrix shapes the DNN-occu
//! model actually multiplies (plus square reference cubes), verifies
//! bit-exact agreement at every shape, and measures the end-to-end
//! effect: one training epoch and `predict_batch` serving throughput.
//! The JSON report (`reports/kernel_perf.json`) is the committed
//! performance baseline; the verify pipeline runs `repro kernels
//! --quick` and fails when the blocked kernel loses to the naive one
//! at any shape with at least `64^3` multiply-adds.

use occu_core::dataset::{Dataset, SEEN_MODELS};
use occu_core::features::{EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM};
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::train::{OccuPredictor, TrainConfig, Trainer};
use occu_gpusim::DeviceSpec;
use occu_tensor::{Isa, Matrix, SeededRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Multiply-add floor above which the blocked kernel must win: the
/// `64^3` gate from the performance acceptance criteria.
pub const GATE_MIN_MULADDS: usize = 64 * 64 * 64;

/// Speedup the dispatched SIMD kernel must reach over the forced-scalar
/// blocked kernel at the `cube:256` reference shape (gated only when an
/// AVX tier actually dispatched).
pub const SIMD_GATE_MIN_SPEEDUP: f64 = 2.0;

/// One timed GEMM shape.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelShapeRow {
    /// Where the shape comes from (model layer or reference cube).
    pub label: String,
    /// Output rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Best-of-reps wall time of the naive scalar kernel, ms.
    pub naive_ms: f64,
    /// Best-of-reps wall time of the blocked packed kernel, ms.
    pub blocked_ms: f64,
    /// Naive throughput, GFLOP/s (2·m·k·n per multiply).
    pub naive_gflops: f64,
    /// Blocked throughput, GFLOP/s.
    pub blocked_gflops: f64,
    /// `naive_ms / blocked_ms`.
    pub speedup: f64,
    /// Blocked output was bit-identical to the naive oracle.
    pub exact_match: bool,
    /// Best-of-reps wall time of the blocked kernel pinned to the
    /// scalar micro-kernel (`Isa::Scalar`), ms — the per-ISA ladder's
    /// baseline rung.
    #[serde(default)]
    pub scalar_ms: f64,
    /// ISA the dispatched (`blocked_ms`) run actually selected.
    #[serde(default)]
    pub isa: String,
    /// `scalar_ms / blocked_ms`: what runtime SIMD dispatch buys over
    /// the scalar blocked kernel at this shape.
    #[serde(default)]
    pub simd_speedup: f64,
    /// Dispatched output was bit-identical to the forced-scalar
    /// blocked output; every dispatched ISA carries that contract.
    /// Absent in pre-SIMD reports; those deserialize as `false` and
    /// must be regenerated before gating.
    #[serde(default)]
    pub simd_exact: bool,
}

impl KernelShapeRow {
    /// Multiply-add count of this shape.
    pub fn muladds(&self) -> usize {
        self.m * self.k * self.n
    }
}

/// The full `repro kernels` report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelPerfReport {
    /// Cores the OS reports (`available_parallelism`).
    pub host_cores: usize,
    /// Quick (smoke) scale was used.
    pub quick: bool,
    /// ISA runtime dispatch selected for this process
    /// (`scalar`/`avx2`/`avx512`/`neon`).
    #[serde(default)]
    pub kernel_isa: String,
    /// One row per timed shape.
    pub shapes: Vec<KernelShapeRow>,
    /// Hidden width of the end-to-end model runs.
    pub hidden: usize,
    /// Training-set size for the epoch timing.
    pub train_samples: usize,
    /// Wall time of one training epoch, ms.
    pub train_epoch_ms: f64,
    /// Sample gradients per second during that epoch.
    pub train_samples_per_sec: f64,
    /// Graphs per `predict_batch` sweep in the serving measurement.
    pub serve_batch_graphs: usize,
    /// Best-of-reps wall time of one `predict_batch` sweep, ms.
    pub serve_batch_ms: f64,
    /// Serving throughput: predictions per second via `predict_batch`.
    pub serve_predict_rps: f64,
}

impl KernelPerfReport {
    /// Regression-gate violations: shapes at or above the `64^3`
    /// multiply-add floor where the blocked kernel was slower than
    /// naive, any shape whose outputs were not bit-identical (against
    /// the naive oracle *and* against the forced-scalar blocked run),
    /// and — when an AVX tier dispatched — a dispatched `cube:256`
    /// slower than [`SIMD_GATE_MIN_SPEEDUP`] times the scalar kernel.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for row in &self.shapes {
            if !row.exact_match {
                failures.push(format!(
                    "{} ({}x{}x{}): blocked result differs from the naive oracle",
                    row.label, row.m, row.k, row.n
                ));
            }
            if !row.simd_exact {
                failures.push(format!(
                    "{} ({}x{}x{}): {} result differs from the forced-scalar blocked kernel",
                    row.label, row.m, row.k, row.n, row.isa
                ));
            }
            if row.muladds() >= GATE_MIN_MULADDS && row.speedup < 1.0 {
                failures.push(format!(
                    "{} ({}x{}x{}): blocked {:.3} ms is slower than naive {:.3} ms ({:.2}x)",
                    row.label, row.m, row.k, row.n, row.blocked_ms, row.naive_ms, row.speedup
                ));
            }
            // The SIMD bar applies only where a wide x86 unit actually
            // dispatched: forced-scalar and NEON runs are exempt.
            if row.label == "cube:256"
                && row.isa.starts_with("avx")
                && row.simd_speedup < SIMD_GATE_MIN_SPEEDUP
            {
                failures.push(format!(
                    "{} ({}x{}x{}): {} kernel is only {:.2}x over the scalar blocked kernel \
                     (needs {:.1}x)",
                    row.label, row.m, row.k, row.n, row.isa, row.simd_speedup,
                    SIMD_GATE_MIN_SPEEDUP
                ));
            }
        }
        failures
    }
}

/// GEMM shapes the study times: every distinct multiply the DNN-occu
/// forward pass issues (ANEE projections, Graphormer QKV/FFN, decoder
/// and head layers) at a representative graph size, plus square
/// reference cubes. `quick` keeps the gate-relevant shapes and drops
/// the paper-width giants.
pub fn study_shapes(quick: bool) -> Vec<(String, usize, usize, usize)> {
    // A mid-size profiled graph: ~48 nodes / ~64 edges (ResNet-scale).
    let nodes = 48;
    let edges = 64;
    let mut shapes = Vec::new();
    for (tag, hidden) in [("fast", DnnOccuConfig::fast().hidden), ("paper", DnnOccuConfig::paper().hidden)] {
        if quick && tag == "paper" {
            continue;
        }
        shapes.push((format!("{tag}:anee.w_u"), nodes, NODE_FEAT_DIM, hidden));
        shapes.push((format!("{tag}:anee.w_e"), edges, EDGE_FEAT_DIM, hidden));
        shapes.push((format!("{tag}:anee.w_m"), edges, hidden, hidden));
        shapes.push((format!("{tag}:graphormer.qkv"), nodes, hidden, hidden));
        shapes.push((format!("{tag}:graphormer.ffn1"), nodes, hidden, 2 * hidden));
        shapes.push((format!("{tag}:head.l0"), 1, hidden + GLOBAL_FEAT_DIM, 2 * hidden));
    }
    shapes.push(("cube:64".into(), 64, 64, 64));
    shapes.push(("cube:128".into(), 128, 128, 128));
    if !quick {
        shapes.push(("cube:256".into(), 256, 256, 256));
    }
    shapes
}

fn best_of_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the kernel study and returns the report.
pub fn kernel_study(quick: bool, seed: u64) -> KernelPerfReport {
    let mut rng = SeededRng::new(seed);
    let reps = if quick { 3 } else { 5 };

    let active = occu_tensor::active_isa();
    let mut rows = Vec::new();
    for (label, m, k, n) in study_shapes(quick) {
        let a = Matrix::randn(m, k, 1.0, &mut rng);
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let blocked = a.matmul(&b);
        let naive = a.naive_matmul(&b);
        let exact_match = blocked == naive;
        // Per-ISA ladder: the same blocked sweep pinned to the scalar
        // micro-kernel, which every tier must reproduce exactly.
        let mut scalar_out = Matrix::zeros(m, n);
        a.matmul_into_isa(&b, &mut scalar_out, Isa::Scalar);
        let simd_exact = blocked == scalar_out;
        let naive_ms = best_of_ms(reps, || {
            std::hint::black_box(a.naive_matmul(std::hint::black_box(&b)));
        });
        // Time the `_into` path (what training/serving hit through the
        // tape) so steady-state allocation wins show up too.
        let mut out = Matrix::zeros(m, n);
        let blocked_ms = best_of_ms(reps, || {
            a.matmul_into(std::hint::black_box(&b), std::hint::black_box(&mut out));
        });
        let scalar_ms = best_of_ms(reps, || {
            a.matmul_into_isa(std::hint::black_box(&b), std::hint::black_box(&mut out), Isa::Scalar);
        });
        let gflops = |ms: f64| (2.0 * (m * k * n) as f64) / (ms * 1e6);
        rows.push(KernelShapeRow {
            label,
            m,
            k,
            n,
            naive_ms,
            blocked_ms,
            naive_gflops: gflops(naive_ms),
            blocked_gflops: gflops(blocked_ms),
            speedup: naive_ms / blocked_ms,
            exact_match,
            scalar_ms,
            isa: active.name().to_string(),
            simd_speedup: scalar_ms / blocked_ms,
            simd_exact,
        });
    }

    // End-to-end: one training epoch and one serving sweep at the
    // fast-config width, on a small fixed dataset.
    let device = DeviceSpec::a100();
    let configs_per_model = if quick { 1 } else { 2 };
    let data = Dataset::generate(&SEEN_MODELS, configs_per_model, &device, seed);
    let cfg = DnnOccuConfig::fast();
    let mut model = DnnOccu::new(cfg, seed);
    let train_cfg = TrainConfig { epochs: 1, seed, ..TrainConfig::default() };
    let start = Instant::now();
    Trainer::new(train_cfg).fit(&mut model, &data).expect("kernel study uses in-tree config");
    let train_epoch_ms = start.elapsed().as_secs_f64() * 1e3;

    let fgs: Vec<_> = data.samples.iter().map(|s| s.features.clone()).collect();
    // Warm the per-thread inference tapes, then take the best sweep.
    let _ = model.predict_batch(&fgs);
    let serve_batch_ms = best_of_ms(reps, || {
        std::hint::black_box(model.predict_batch(std::hint::black_box(&fgs)));
    });
    let serve_predict_rps = fgs.len() as f64 / (serve_batch_ms / 1e3);

    if occu_obs::enabled() {
        occu_obs::gauge("kernels.train_epoch_ms").set(train_epoch_ms);
        occu_obs::gauge("kernels.serve_predict_rps").set(serve_predict_rps);
    }

    KernelPerfReport {
        host_cores: std::thread::available_parallelism().map_or(1, usize::from),
        quick,
        kernel_isa: active.name().to_string(),
        shapes: rows,
        hidden: cfg.hidden,
        train_samples: data.len(),
        train_epoch_ms,
        train_samples_per_sec: data.len() as f64 / (train_epoch_ms / 1e3),
        serve_batch_graphs: fgs.len(),
        serve_batch_ms,
        serve_predict_rps,
    }
}

/// Renders the report as an aligned console table.
pub fn render_kernels(rep: &KernelPerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== GEMM kernels: blocked/packed vs naive oracle ({} host cores, isa {}{}) ==",
        rep.host_cores,
        if rep.kernel_isa.is_empty() { "?" } else { &rep.kernel_isa },
        if rep.quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>11} {:>12} {:>11} {:>10} {:>9} {:>8} {:>7}",
        "shape", "m x k x n", "naive(ms)", "scalar(ms)", "simd(ms)", "GFLOP/s", "speedup", "simd-x", "exact"
    );
    for r in &rep.shapes {
        let _ = writeln!(
            out,
            "{:<22} {:>14} {:>11.3} {:>12.3} {:>11.3} {:>10.2} {:>8.2}x {:>7.2}x {:>7}",
            r.label,
            format!("{}x{}x{}", r.m, r.k, r.n),
            r.naive_ms,
            r.scalar_ms,
            r.blocked_ms,
            r.blocked_gflops,
            r.speedup,
            r.simd_speedup,
            if r.exact_match && r.simd_exact { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "train: {} samples, 1 epoch in {:.1} ms ({:.1} samples/sec, hidden {})",
        rep.train_samples, rep.train_epoch_ms, rep.train_samples_per_sec, rep.hidden
    );
    let _ = writeln!(
        out,
        "serve: {} graphs per batch sweep in {:.2} ms ({:.1} predictions/sec)",
        rep.serve_batch_graphs, rep.serve_batch_ms, rep.serve_predict_rps
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cover_the_gate_floor() {
        for quick in [true, false] {
            let shapes = study_shapes(quick);
            assert!(
                shapes.iter().any(|&(_, m, k, n)| m * k * n >= GATE_MIN_MULADDS),
                "study must include at least one gate-relevant shape (quick={quick})"
            );
            // Labels are unique so report rows are unambiguous.
            let mut labels: Vec<_> = shapes.iter().map(|s| s.0.clone()).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), shapes.len());
        }
    }

    #[test]
    fn quick_study_passes_its_own_gate() {
        let rep = kernel_study(true, 91);
        assert!(!rep.shapes.is_empty());
        assert!(rep.shapes.iter().all(|r| r.exact_match), "blocked must match naive bitwise");
        assert!(
            rep.shapes.iter().all(|r| r.simd_exact),
            "dispatched kernel must match the forced-scalar blocked kernel bitwise"
        );
        assert!(!rep.kernel_isa.is_empty());
        assert!(rep.shapes.iter().all(|r| r.isa == rep.kernel_isa));
        assert!(rep.train_epoch_ms > 0.0 && rep.serve_predict_rps > 0.0);
        let json = serde_json::to_string_pretty(&rep).unwrap();
        let back: KernelPerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shapes.len(), rep.shapes.len());
        assert_eq!(back.kernel_isa, rep.kernel_isa);
    }

    #[test]
    fn gate_flags_slow_and_inexact_rows() {
        // Gate logic only, on forged rows: timing itself is checked by
        // `repro kernels`, never inside `cargo test`.
        let template = KernelShapeRow {
            label: "forged".into(),
            m: 64,
            k: 64,
            n: 64,
            naive_ms: 1.0,
            blocked_ms: 2.0,
            naive_gflops: 1.0,
            blocked_gflops: 0.5,
            speedup: 0.5,
            exact_match: true,
            scalar_ms: 2.0,
            isa: "avx2".into(),
            simd_speedup: 1.0,
            simd_exact: true,
        };
        let mut rep = KernelPerfReport {
            host_cores: 1,
            quick: true,
            kernel_isa: "avx2".into(),
            shapes: Vec::new(),
            hidden: 8,
            train_samples: 1,
            train_epoch_ms: 1.0,
            train_samples_per_sec: 1.0,
            serve_batch_graphs: 1,
            serve_batch_ms: 1.0,
            serve_predict_rps: 1.0,
        };
        // Healthy rows pass: a fast gated cube, and a small shape below
        // the multiply-add floor, which may lose to naive.
        rep.shapes.push(KernelShapeRow {
            label: "cube:256".into(),
            m: 256,
            k: 256,
            n: 256,
            speedup: 5.0,
            simd_speedup: 2.5,
            ..template.clone()
        });
        rep.shapes.push(KernelShapeRow { label: "tiny".into(), m: 4, k: 4, n: 4, ..template.clone() });
        assert!(rep.gate_failures().is_empty(), "{:?}", rep.gate_failures());
        // Forge regressions: a big shape where blocked lost, an
        // inexact row, and a cube:256 where SIMD missed its bar.
        rep.shapes.push(template.clone());
        rep.shapes.push(KernelShapeRow {
            label: "forged-inexact".into(),
            m: 4,
            k: 4,
            n: 4,
            naive_ms: 1.0,
            blocked_ms: 0.5,
            naive_gflops: 1.0,
            blocked_gflops: 2.0,
            speedup: 2.0,
            exact_match: false,
            simd_exact: false,
            ..template.clone()
        });
        rep.shapes.push(KernelShapeRow {
            label: "cube:256".into(),
            m: 256,
            k: 256,
            n: 256,
            speedup: 5.0,
            simd_speedup: 1.4,
            ..template.clone()
        });
        // A forced-scalar (or NEON) run is exempt from the SIMD bar.
        rep.shapes.push(KernelShapeRow {
            label: "cube:256".into(),
            isa: "scalar".into(),
            speedup: 5.0,
            simd_speedup: 1.0,
            ..template
        });
        let failures = rep.gate_failures();
        assert!(failures.iter().any(|f| f.contains("forged (") && f.contains("slower than naive")));
        assert!(failures.iter().any(|f| f.contains("forged-inexact") && f.contains("naive oracle")));
        assert!(failures.iter().any(|f| f.contains("forged-inexact") && f.contains("forced-scalar")));
        assert!(!failures.iter().any(|f| f.contains("tiny")), "{failures:?}");
        assert_eq!(
            failures.iter().filter(|f| f.contains("needs 2.0x")).count(),
            1,
            "exactly the avx cube:256 row trips the SIMD bar: {failures:?}"
        );
    }
}
