//! Plan-vs-interpreter exactness across the whole model zoo.
//!
//! The compiled plan path ([`occu_core::plan`]) promises *bitwise*
//! equality with the tape interpreter: same kernels, same operation
//! order, weights snapshotted verbatim. These tests pin that promise
//! on every zoo architecture, on ragged hidden widths that straddle
//! SIMD register boundaries, and on random graphs outside the zoo
//! with every parameter perturbed away from its initial value, so a
//! drift in either executor (or in the GEMM packing) fails loudly.
//!
//! The suite must also pass with `OCCU_FORCE_SCALAR=1` (the scalar
//! GEMM fallback): both paths call the same dispatched kernels, so
//! the ISA choice cancels out of the comparison. The zoo test reruns
//! that way in a child process, which also checks that the f32 and
//! int8 plans predict the same bits on the scalar kernels as on the
//! dispatched ones.

use occu_core::dataset::make_sample;
use occu_core::features::{DEGREE_BUCKETS, EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM, SPD_CAP};
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::{FeaturizedGraph, OccuPredictor, Precision};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use occu_tensor::{Matrix, SeededRng};
use rayon::prelude::*;
use std::sync::OnceLock;

fn graph(id: ModelId) -> FeaturizedGraph {
    make_sample(id, id.default_config(), &DeviceSpec::a100()).features
}

/// Every zoo model, fast config: `predict_target` must agree to the
/// last mantissa bit between the compiled plan and the interpreter.
#[test]
fn plan_matches_interpreter_bitwise_on_every_zoo_model() {
    let model = DnnOccu::new(DnnOccuConfig::fast(), 42);
    for &id in ModelId::ALL {
        let fg = graph(id);
        let plan = model.compile_plan_for(&fg);
        assert_eq!(
            plan.predict_target(&fg).to_bits(),
            model.predict_target(&fg).to_bits(),
            "plan diverged from interpreter on {id:?}"
        );
        assert_eq!(
            plan.predict(&fg).to_bits(),
            model.predict(&fg).to_bits(),
            "occupancy mapping diverged on {id:?}"
        );
    }
}

/// One zoo model's profiled occupancy and its f32 and int8 plan
/// predictions.
struct PlanPredictions {
    id: ModelId,
    truth: f32,
    f32_pred: f32,
    i8_pred: f32,
}

impl PlanPredictions {
    /// The line the forced-scalar child prints and the parent compares.
    fn bits_line(&self) -> String {
        format!("plan-bits {} f32 {:#010x} int8 {:#010x}", self.id.name(), self.f32_pred.to_bits(), self.i8_pred.to_bits())
    }
}

/// Every zoo model through f32 and int8 plans at paper width (hidden
/// 256, the regime the int8 tier is for), seed 55, computed once per
/// process, one model per parallel item.
fn paper_width_plan_predictions() -> &'static [PlanPredictions] {
    static PREDICTIONS: OnceLock<Vec<PlanPredictions>> = OnceLock::new();
    PREDICTIONS.get_or_init(|| {
        let model = DnnOccu::new(DnnOccuConfig::paper(), 55);
        let device = DeviceSpec::a100();
        ModelId::ALL
            .par_iter()
            .map(|&id| {
                let sample = make_sample(id, id.default_config(), &device);
                let fg = &sample.features;
                PlanPredictions {
                    id,
                    truth: sample.occupancy,
                    f32_pred: model.compile_plan_for_with(fg, Precision::F32).predict(fg),
                    i8_pred: model.compile_plan_for_with(fg, Precision::Int8).predict(fg),
                }
            })
            .collect()
    })
}

/// Quantization may round, not wander: per zoo model, the int8 plan's
/// absolute error against the profiled occupancy stays within half an
/// occupancy point (0.005) of the f32 plan's. Absolute rather than
/// relative error, because the small RNN models' truths sit near the
/// MRE floor, where a tiny shift reads as tens of relative points.
#[test]
fn int8_error_stays_within_half_a_point_of_f32_on_every_zoo_model() {
    const MAX_DRIFT_PP: f64 = 0.5;
    let mut drifted = Vec::new();
    for p in paper_width_plan_predictions() {
        eprintln!("{}", p.bits_line());
        let error = |pred: f32| f64::from((pred - p.truth).abs());
        let drift_pp = (error(p.i8_pred) - error(p.f32_pred)) * 100.0;
        if drift_pp.abs() > MAX_DRIFT_PP {
            drifted.push(format!("{:?}: {drift_pp:+.3} pp (truth {}, f32 {}, int8 {})", p.id, p.truth, p.f32_pred, p.i8_pred));
        }
    }
    assert!(drifted.is_empty(), "int8 drifted more than {MAX_DRIFT_PP} pp from f32:\n{}", drifted.join("\n"));
}

/// The scalar kernels are the oracle every SIMD tier must reproduce.
/// A child process with `OCCU_FORCE_SCALAR=1` (read once per process)
/// reruns the zoo plan-vs-tape test and the int8 test above, whose
/// printed prediction bits must equal this process's.
#[test]
fn forced_scalar_rerun_matches_bitwise() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "--exact",
            "plan_matches_interpreter_bitwise_on_every_zoo_model",
            "int8_error_stays_within_half_a_point_of_f32_on_every_zoo_model",
            "--nocapture",
        ])
        .env("OCCU_FORCE_SCALAR", "1")
        .output()
        .expect("rerun the test binary");
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success() && stdout.contains("2 passed"), "forced-scalar rerun:\n{stdout}\n{stderr}");
    let scalar: Vec<&str> = stderr.lines().filter(|l| l.starts_with("plan-bits ")).collect();
    let own: Vec<String> = paper_width_plan_predictions().iter().map(PlanPredictions::bits_line).collect();
    assert_eq!(scalar, own, "plan predictions differ between forced-scalar and {}", occu_tensor::active_isa().name());
}

/// Ragged hidden widths that do not fill SIMD registers evenly —
/// odd head dims and widths straddling the 8- and 16-lane boundaries
/// — exercise the GEMM and attention tail paths in both executors; the
/// served width (hidden 32, head_dim 8) and the paper width (hidden
/// 256, head_dim 64, on the three largest zoo graphs and the probes)
/// exercise the attention kernel's full lanes.
#[test]
fn plan_stays_bitwise_equal_at_ragged_hidden_sizes() {
    let cases = [
        // (hidden, heads): head_dim 7/9/17 plus single-head odd widths.
        (7usize, 1usize),
        (9, 1),
        (17, 1),
        (33, 1),
        (20, 4),
        (36, 4),
        (68, 4),
        // The served width.
        (32, 4),
    ];
    let probes = [ModelId::LeNet, ModelId::Gpt2];
    let check = |hidden: usize, heads: usize, ids: &[ModelId]| {
        let cfg = DnnOccuConfig {
            hidden,
            heads,
            ..DnnOccuConfig::fast()
        };
        let model = DnnOccu::new(cfg, 1000 + hidden as u64);
        for &id in ids {
            let fg = graph(id);
            let plan = model.compile_plan_for(&fg);
            assert_eq!(
                plan.predict_target(&fg).to_bits(),
                model.predict_target(&fg).to_bits(),
                "plan diverged at hidden={hidden} heads={heads} on {id:?}"
            );
        }
    };
    for (hidden, heads) in cases {
        check(hidden, heads, &probes);
    }
    let mut by_size: Vec<(usize, ModelId)> =
        ModelId::ALL.iter().map(|&id| (graph(id).node_feats.rows(), id)).collect();
    by_size.sort_by_key(|&(n, _)| std::cmp::Reverse(n));
    let largest: Vec<ModelId> = by_size.iter().take(3).map(|&(_, id)| id).collect();
    let paper: Vec<ModelId> =
        largest.iter().chain(probes.iter().filter(|id| !largest.contains(id))).copied().collect();
    check(256, 4, &paper);
}

/// A plan compiled for one graph shape keeps working across many
/// executions and distinct inputs of that shape — the executor's
/// register recycling must not leak state between runs.
#[test]
fn repeated_executions_are_deterministic() {
    let model = DnnOccu::new(DnnOccuConfig::fast(), 3);
    let fg = graph(ModelId::ResNet18);
    let plan = model.compile_plan_for(&fg);
    let first = plan.predict_target(&fg).to_bits();
    for _ in 0..5 {
        assert_eq!(plan.predict_target(&fg).to_bits(), first);
    }
}

/// A random graph built field by field, outside anything the zoo or
/// the featurizer produces: `n` nodes, random edges (self-loops and
/// repeated edges included), a random SPD map with a zero diagonal and
/// random degree buckets. Edgeless graphs get the featurizer's single
/// zero `0 -> 0` padding row.
fn random_graph(rng: &mut SeededRng, n: usize) -> FeaturizedGraph {
    let e = rng.index(2 * n + 3);
    let mut edge_src: Vec<usize> = (0..e).map(|_| rng.index(n)).collect();
    let mut edge_dst: Vec<usize> = (0..e).map(|_| rng.index(n)).collect();
    if e >= 2 {
        edge_src[1] = edge_src[0];
        edge_dst[1] = edge_dst[0];
    }
    if e >= 3 {
        edge_dst[2] = edge_src[2];
    }
    let edge_feats = if e == 0 {
        edge_src.push(0);
        edge_dst.push(0);
        Matrix::zeros(1, EDGE_FEAT_DIM)
    } else {
        Matrix::randn(e, EDGE_FEAT_DIM, 1.0, rng)
    };
    let spd = (0..n * n)
        .map(|k| if k / n == k % n { 0 } else { 1 + rng.index(SPD_CAP) as u8 })
        .collect();
    FeaturizedGraph {
        node_feats: Matrix::randn(n, NODE_FEAT_DIM, 1.0, rng),
        edge_feats,
        edge_src,
        edge_dst,
        spd,
        degree_bucket: (0..n).map(|_| rng.index(DEGREE_BUCKETS)).collect(),
        topo_order: (0..n).collect(),
        global_feats: Matrix::randn(1, GLOBAL_FEAT_DIM, 1.0, rng),
    }
}

/// Differential test beyond the zoo, on non-zero parameters. A freshly
/// initialised model has all-zero SPD thetas, biases and LayerNorm
/// shifts, so the zoo tests above cannot tell a plan that mishandles
/// any of them from a correct one. Here every parameter is perturbed
/// by `0.1 * N(0, 1)` and 48 random graphs per config (1 to 40 nodes,
/// `n = 1` included) must give bit-identical `predict_target` on the
/// plan and the tape.
#[test]
fn plan_matches_interpreter_bitwise_on_random_graphs_with_perturbed_weights() {
    let configs = [
        DnnOccuConfig::fast(),
        DnnOccuConfig { hidden: 20, heads: 4, ..DnnOccuConfig::fast() },
    ];
    let mut mismatches = Vec::new();
    let mut total = 0;
    for (ci, cfg) in configs.into_iter().enumerate() {
        let mut rng = SeededRng::new(0xD1FF + ci as u64);
        let mut model = DnnOccu::new(cfg, 500 + ci as u64);
        let store = model.store_mut();
        for id in store.ids().collect::<Vec<_>>() {
            let (r, c) = store.value(id).shape();
            let noise = Matrix::randn(r, c, 0.1, &mut rng);
            store.value_mut(id).add_assign(&noise);
        }
        for g in 0..48 {
            let n = if g % 8 == 0 { 1 } else { 1 + rng.index(40) };
            let fg = random_graph(&mut rng, n);
            let planned = model.compile_plan_for(&fg).predict_target(&fg);
            let taped = model.predict_target(&fg);
            total += 1;
            if planned.to_bits() != taped.to_bits() {
                mismatches.push(format!("config {ci} graph {g} (n={n}): plan {planned} vs tape {taped}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {total} random graphs diverged:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
