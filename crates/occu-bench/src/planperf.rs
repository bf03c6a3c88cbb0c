//! `repro plan` — the compiled-plan acceptance gate.
//!
//! Two promises are checked, both directly at the model level (no
//! HTTP in the loop, so the numbers isolate the executor change):
//!
//! 1. **Exactness** — for every zoo model, the compiled plan's
//!    `predict_target` must be *bitwise* equal to the tape
//!    interpreter's. Any mismatch fails the gate.
//! 2. **Throughput** — executing a cached plan must beat re-recording
//!    the interpreter tape by at least [`PLAN_SPEEDUP_GATE`] on
//!    aggregate predictions/sec across the zoo. The timing alternates
//!    one interpreter call and one plan call per model, so host drift
//!    hits both executors alike, and repeats whole zoo passes until at
//!    least 1 s and 5 passes have run; the gate reads the median
//!    pass.
//!
//! The report is written to `reports/plan_perf.json`.

use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::OccuPredictor;
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Minimum aggregate plan-vs-interpreter speedup the gate accepts.
/// The plan path skips tape re-recording and per-request allocation
/// and runs pre-packed GEMM panels, so 1.15x is a conservative floor
/// for this container.
pub const PLAN_SPEEDUP_GATE: f64 = 1.15;

/// Wall time the timing keeps repeating zoo passes for.
const PLAN_MIN_WALL_S: f64 = 1.0;
/// Fewest timed zoo passes, however long one pass takes.
const PLAN_MIN_PASSES: usize = 5;

/// Per-model timing and exactness row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlanModelRow {
    /// Zoo model name.
    pub model: String,
    /// Graph size the plan was specialized to.
    pub n_nodes: usize,
    /// Edge count (post-featurization, ≥ 1).
    pub n_edges: usize,
    /// Median interpreter forward over the passes, microseconds.
    pub interp_us: f64,
    /// Median compiled-plan forward over the passes, microseconds.
    pub plan_us: f64,
    /// `interp_us / plan_us`.
    pub speedup: f64,
    /// One-time plan compilation cost, microseconds.
    pub compile_us: f64,
    /// Bitwise `predict_target` agreement.
    pub exact: bool,
}

/// The machine-readable result (written to `reports/plan_perf.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlanPerfReport {
    /// Models checked (the whole zoo).
    pub models: usize,
    /// Models whose plan diverged from the interpreter (must be empty).
    pub mismatches: Vec<String>,
    /// Interpreter throughput over one zoo pass (the median pass),
    /// predictions/sec.
    pub interp_pred_s: f64,
    /// Compiled-plan throughput over one zoo pass (the median pass),
    /// predictions/sec.
    pub plan_pred_s: f64,
    /// Median over the passes of one pass's interpreter time over its
    /// plan time: the gated speedup.
    pub speedup: f64,
    /// The gate this run was held to.
    pub speedup_gate: f64,
    /// Zoo passes timed; each times every model once per executor.
    pub passes: usize,
    /// Per-model breakdown.
    pub rows: Vec<PlanModelRow>,
}

impl PlanPerfReport {
    /// Gate failures, empty when the run is acceptable. Quick runs
    /// still check exactness but their timings are advisory.
    pub fn gate_failures(&self, gate_speed: bool) -> Vec<String> {
        let mut failures = Vec::new();
        if !self.mismatches.is_empty() {
            failures.push(format!(
                "plan diverged from interpreter on: {}",
                self.mismatches.join(", ")
            ));
        }
        if gate_speed && self.speedup < self.speedup_gate {
            failures.push(format!(
                "plan speedup {:.3}x below the {:.2}x gate ({:.0} vs {:.0} pred/s)",
                self.speedup, self.speedup_gate, self.plan_pred_s, self.interp_pred_s
            ));
        }
        failures
    }
}

/// Median of `xs` (the upper one for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Microseconds one call of `f` takes.
fn time_us(f: impl FnOnce() -> f32) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_secs_f64() * 1e6
}

/// Runs the exactness sweep and the throughput comparison across the
/// whole zoo with a fast-config model.
pub fn plan_study(seed: u64) -> PlanPerfReport {
    let model = DnnOccu::new(DnnOccuConfig::fast(), seed);
    let device = DeviceSpec::a100();

    let mut cases = Vec::new();
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for &id in ModelId::ALL {
        let fg = occu_core::dataset::make_sample(id, id.default_config(), &device).features;
        let compile_started = Instant::now();
        let plan = model.compile_plan_for(&fg);
        let compile_us = compile_started.elapsed().as_secs_f64() * 1e6;

        let exact = plan.predict_target(&fg).to_bits() == model.predict_target(&fg).to_bits();
        if !exact {
            mismatches.push(id.name().to_string());
        }
        rows.push(PlanModelRow {
            model: id.name().to_string(),
            n_nodes: fg.num_nodes(),
            n_edges: fg.edge_src.len(),
            interp_us: 0.0,
            plan_us: 0.0,
            speedup: 0.0,
            compile_us,
            exact,
        });
        cases.push((fg, plan));
    }

    // The exactness calls above warmed both paths (thread-local
    // tape/executor arenas); every pass now times the steady state.
    let mut interp_us: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut plan_us: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut pass_totals = Vec::new();
    let timing = Instant::now();
    while pass_totals.len() < PLAN_MIN_PASSES || timing.elapsed().as_secs_f64() < PLAN_MIN_WALL_S {
        let (mut interp_total, mut plan_total) = (0.0, 0.0);
        for (i, (fg, plan)) in cases.iter().enumerate() {
            let t = time_us(|| model.predict_target(fg));
            interp_us[i].push(t);
            interp_total += t;
            let t = time_us(|| plan.predict_target(fg));
            plan_us[i].push(t);
            plan_total += t;
        }
        pass_totals.push((interp_total, plan_total));
    }
    for ((row, interp), plan) in rows.iter_mut().zip(interp_us).zip(plan_us) {
        row.interp_us = median(interp);
        row.plan_us = median(plan);
        row.speedup = row.interp_us / row.plan_us.max(1e-9);
    }

    let models = rows.len() as f64;
    PlanPerfReport {
        models: rows.len(),
        mismatches,
        interp_pred_s: models / (median(pass_totals.iter().map(|p| p.0).collect()) / 1e6),
        plan_pred_s: models / (median(pass_totals.iter().map(|p| p.1).collect()) / 1e6),
        speedup: median(pass_totals.iter().map(|(i, p)| i / p.max(1e-9)).collect()),
        speedup_gate: PLAN_SPEEDUP_GATE,
        passes: pass_totals.len(),
        rows,
    }
}

/// Console rendering of a [`PlanPerfReport`].
pub fn render_plan(rep: &PlanPerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Compiled-plan gate: {} zoo models, median of {} alternating passes ==",
        rep.models, rep.passes
    );
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>7} {:>12} {:>12} {:>9} {:>12} {:>6}",
        "model", "nodes", "edges", "interp(us)", "plan(us)", "speedup", "compile(us)", "exact"
    );
    for r in &rep.rows {
        let _ = writeln!(
            out,
            "{:<14} {:>7} {:>7} {:>12.1} {:>12.1} {:>8.2}x {:>12.1} {:>6}",
            r.model,
            r.n_nodes,
            r.n_edges,
            r.interp_us,
            r.plan_us,
            r.speedup,
            r.compile_us,
            if r.exact { "yes" } else { "NO" }
        );
    }
    let _ = writeln!(
        out,
        "median pass: {:.0} -> {:.0} pred/s ({:.2}x, gate {:.2}x), {} bitwise mismatches",
        rep.interp_pred_s,
        rep.plan_pred_s,
        rep.speedup,
        rep.speedup_gate,
        rep.mismatches.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_failures_flag_mismatch_and_slow_runs() {
        let rep = PlanPerfReport {
            models: 2,
            mismatches: vec!["LeNet".into()],
            interp_pred_s: 100.0,
            plan_pred_s: 105.0,
            speedup: 1.05,
            speedup_gate: PLAN_SPEEDUP_GATE,
            passes: 5,
            rows: Vec::new(),
        };
        let failures = rep.gate_failures(true);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("LeNet"));
        assert!(failures[1].contains("below the"));
        // Speed is advisory when not gated; exactness never is.
        assert_eq!(rep.gate_failures(false).len(), 1);
    }

    #[test]
    fn clean_report_passes() {
        let rep = PlanPerfReport {
            models: 20,
            mismatches: Vec::new(),
            interp_pred_s: 100.0,
            plan_pred_s: 130.0,
            speedup: 1.3,
            speedup_gate: PLAN_SPEEDUP_GATE,
            passes: 5,
            rows: Vec::new(),
        };
        assert!(rep.gate_failures(true).is_empty());
    }
}
