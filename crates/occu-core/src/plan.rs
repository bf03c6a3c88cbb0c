//! Compiled plans: a [`DnnOccu`] forward pass recorded as a flat
//! `occu-plan` [`Program`] specialized to one graph shape.
//!
//! The tape interpreter re-records the computation graph, re-copies
//! every weight into the tape arena, and re-packs every matmul
//! right-hand side on *each* request. Compiling once per
//! `(model version, n_nodes, n_edges)` hoists all of that to compile
//! time. [`DnnOccu::compile_plan_with`] runs the model's one generic
//! forward pass with a [`ProgramBuilder`] as its `occu_nn::Recorder`,
//! which emits one instruction per op the tape would record — same
//! operations, same operand order — so the compiled program is
//! bitwise-equal to [`crate::OccuPredictor::predict_target`] by
//! construction.
//!
//! Weight *values* are snapshot into the program; a reloaded model
//! must therefore be given fresh plans. `occu-serve` guarantees this
//! by keying its plan cache on the registry's model version.

use crate::features::{FeaturizedGraph, EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM};
use crate::gnn::{DnnOccu, GraphInputs};
use crate::train::target_to_occupancy;
use occu_plan::{
    Executor, IdxRef, InputRef, InputShapes, PlanInputs, Precision, Program, ProgramBuilder, ProgramStats, SpdRef,
    Src,
};
use std::sync::{Mutex, MutexGuard};

/// Idle plan executors, shared by the whole process. An execution
/// takes one (or makes one when every executor is busy) and puts it
/// back when done, so scratch memory follows the number of executions
/// running at once rather than the number of threads, and a freshly
/// spawned thread runs on a warm arena. The lock is held only to take
/// or return an executor, never while a plan runs.
static PLAN_EXECUTORS: Mutex<Vec<Executor>> = Mutex::new(Vec::new());

fn idle_executors() -> MutexGuard<'static, Vec<Executor>> {
    // A panic cannot leave the list half-updated: push and pop are
    // the only operations under the lock.
    PLAN_EXECUTORS.lock().unwrap_or_else(|p| p.into_inner())
}

/// A [`DnnOccu`] forward pass compiled to a flat instruction program
/// for one graph shape. Cheap to share (`Arc`) and safe to execute
/// from many threads concurrently.
pub struct CompiledPlan {
    program: Program,
}

impl CompiledPlan {
    /// The `(n_nodes, n_edges)` shape this plan is specialized to.
    pub fn shape(&self) -> (usize, usize) {
        let s = self.program.input_shapes();
        (s.n_nodes, s.n_edges)
    }

    /// Program counters for telemetry.
    pub fn stats(&self) -> ProgramStats {
        self.program.stats()
    }

    /// The numeric tier this plan's weight matmuls run at.
    pub fn precision(&self) -> Precision {
        self.program.precision()
    }

    /// Predicts the raw log-scale target — the plan-compiled
    /// equivalent of [`crate::OccuPredictor::predict_target`].
    ///
    /// # Panics
    /// If `fg` has a different shape than the plan was compiled for.
    pub fn predict_target(&self, fg: &FeaturizedGraph) -> f32 {
        let inputs = PlanInputs {
            node_feats: &fg.node_feats,
            edge_feats: &fg.edge_feats,
            global_feats: &fg.global_feats,
            edge_src: &fg.edge_src,
            edge_dst: &fg.edge_dst,
            degree_bucket: &fg.degree_bucket,
            spd: &fg.spd,
        };
        let mut executor = idle_executors().pop().unwrap_or_default();
        // A panicking execution drops its executor instead of
        // returning it to the pool.
        let out = executor.run_scalar(&self.program, &inputs);
        idle_executors().push(executor);
        out
    }

    /// Predicts the occupancy — the plan-compiled equivalent of
    /// [`crate::OccuPredictor::predict`].
    pub fn predict(&self, fg: &FeaturizedGraph) -> f32 {
        target_to_occupancy(self.predict_target(fg))
    }
}

impl DnnOccu {
    /// Compiles the forward pass for graphs with `n_nodes` nodes and
    /// `n_edges` edge rows (the featurizer pads empty graphs to one
    /// zero edge, so `n_edges` is `max(edges, 1)`).
    pub fn compile_plan(&self, n_nodes: usize, n_edges: usize) -> CompiledPlan {
        self.compile_plan_with(n_nodes, n_edges, Precision::F32)
    }

    /// [`Self::compile_plan`] with the weight matmuls lowered to the
    /// given numeric tier. `Precision::F32` keeps the bitwise
    /// plan-vs-interpreter contract; `Int8` is an accuracy-budgeted
    /// tier (see the int8 drift test in `tests/plan_equivalence.rs`).
    pub fn compile_plan_with(
        &self,
        n_nodes: usize,
        n_edges: usize,
        precision: Precision,
    ) -> CompiledPlan {
        assert!(n_nodes > 0, "compile_plan: graphs have at least one node");
        assert!(n_edges > 0, "compile_plan: the featurizer pads to at least one edge row");
        let shapes = InputShapes {
            n_nodes,
            n_edges,
            node_feat_dim: NODE_FEAT_DIM,
            edge_feat_dim: EDGE_FEAT_DIM,
            global_feat_dim: GLOBAL_FEAT_DIM,
        };
        let mut b = ProgramBuilder::new(shapes);
        b.set_precision(precision);
        let inputs = GraphInputs {
            nodes: Src::Input(InputRef::NodeFeats),
            edges: Src::Input(InputRef::EdgeFeats),
            global: Src::Input(InputRef::GlobalFeats),
            edge_src: IdxRef::EdgeSrc,
            edge_dst: IdxRef::EdgeDst,
            degree_bucket: IdxRef::DegreeBucket,
            spd: SpdRef,
        };
        let out = self.record(&mut b, inputs);
        CompiledPlan { program: b.finish(out) }
    }

    /// Compiles a plan matching the shape of one featurized graph.
    pub fn compile_plan_for(&self, fg: &FeaturizedGraph) -> CompiledPlan {
        self.compile_plan(fg.num_nodes(), fg.edge_src.len())
    }

    /// [`Self::compile_plan_for`] at a chosen numeric tier.
    pub fn compile_plan_for_with(&self, fg: &FeaturizedGraph, precision: Precision) -> CompiledPlan {
        self.compile_plan_with(fg.num_nodes(), fg.edge_src.len(), precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnn::DnnOccuConfig;
    use crate::train::OccuPredictor;

    fn sample_graph(seed: u64) -> FeaturizedGraph {
        let id = occu_models::ModelId::ALL[seed as usize % occu_models::ModelId::ALL.len()];
        crate::dataset::make_sample(id, id.default_config(), &occu_gpusim::DeviceSpec::a100())
            .features
    }

    #[test]
    fn compiled_plan_matches_interpreter_bitwise_on_fast_config() {
        let model = DnnOccu::new(DnnOccuConfig::fast(), 17);
        let fg = sample_graph(0);
        let plan = model.compile_plan_for(&fg);
        let interp = model.predict_target(&fg);
        let planned = plan.predict_target(&fg);
        assert_eq!(
            interp.to_bits(),
            planned.to_bits(),
            "plan {planned} diverged from interpreter {interp}"
        );
        assert_eq!(target_to_occupancy(planned).to_bits(), model.predict(&fg).to_bits());
    }

    #[test]
    fn ablated_configs_compile_and_stay_bitwise_equal() {
        // Exercise every conditional branch of the forward pass: no degree
        // encoding, no spatial bias, no set decoder, no graphormer.
        let fg = sample_graph(1);
        let mut cfgs = Vec::new();
        for (deg, spat, dec, layers) in
            [(false, true, true, 2), (true, false, true, 2), (true, true, false, 2), (true, true, true, 0)]
        {
            let mut cfg = DnnOccuConfig::fast();
            cfg.use_degree_encoding = deg;
            cfg.use_spatial_bias = spat;
            cfg.use_set_decoder = dec;
            cfg.graphormer_layers = layers;
            cfgs.push(cfg);
        }
        for (i, cfg) in cfgs.into_iter().enumerate() {
            let model = DnnOccu::new(cfg, 23 + i as u64);
            let plan = model.compile_plan_for(&fg);
            assert_eq!(
                model.predict_target(&fg).to_bits(),
                plan.predict_target(&fg).to_bits(),
                "ablation {i} diverged"
            );
        }
    }

    #[test]
    fn quantized_plans_track_the_f32_plan_closely_but_not_bitwise() {
        let model = DnnOccu::new(DnnOccuConfig::fast(), 41);
        let fg = sample_graph(3);
        let f32_plan = model.compile_plan_for(&fg);
        let base = f32_plan.predict(&fg);
        assert_eq!(f32_plan.precision(), Precision::F32);
        let i8_plan = model.compile_plan_for_with(&fg, Precision::Int8);
        assert_eq!(i8_plan.precision(), Precision::Int8);
        let got = i8_plan.predict(&fg);
        // Occupancy is in (0, 1]; the quantized tier must stay within
        // a small absolute budget of the f32 plan.
        assert!((got - base).abs() < 0.05, "int8 plan drifted: {got} vs f32 {base}");
        // The int8 tier snapshots different weights: identical output
        // bits would mean the lowering silently fell back to f32.
        assert_eq!(i8_plan.stats().packed_i8_weights, f32_plan.stats().packed_weights);
        assert_eq!(i8_plan.stats().packed_weights, 0);
    }

    #[test]
    fn int8_plan_is_bitwise_reproducible_across_runs() {
        let model = DnnOccu::new(DnnOccuConfig::fast(), 43);
        let fg = sample_graph(4);
        let plan = model.compile_plan_for_with(&fg, Precision::Int8);
        let first = plan.predict_target(&fg);
        for _ in 0..3 {
            assert_eq!(plan.predict_target(&fg).to_bits(), first.to_bits());
        }
        let recompiled = model.compile_plan_for_with(&fg, Precision::Int8);
        assert_eq!(recompiled.predict_target(&fg).to_bits(), first.to_bits());
    }

    #[test]
    fn plan_rejects_wrong_shape() {
        let model = DnnOccu::new(DnnOccuConfig::fast(), 3);
        let fg = sample_graph(2);
        let plan = model.compile_plan(fg.num_nodes() + 1, fg.edge_src.len());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.predict_target(&fg)));
        assert!(res.is_err(), "shape-mismatched execution must panic, not mispredict");
    }
}
