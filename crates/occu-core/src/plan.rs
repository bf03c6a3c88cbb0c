//! Plan compiler: lowers a [`DnnOccu`] forward pass into a flat
//! `occu-plan` [`Program`] specialized to one graph shape.
//!
//! The tape interpreter re-records the computation graph, re-copies
//! every weight into the tape arena, and re-packs every matmul
//! right-hand side on *each* request. Compiling once per
//! `(model version, n_nodes, n_edges)` hoists all of that to compile
//! time: the compiler walks the exact same layer methods the
//! interpreter executes — same operations, same operand order — and
//! emits one instruction per tape op, so the compiled program is
//! bitwise-equal to [`OccuPredictor::predict_target`] by construction
//! (see `occu-plan`'s crate docs for the single signed-zero caveat in
//! the SPD bias).
//!
//! Weight *values* are snapshot into the program; a reloaded model
//! must therefore be given fresh plans. `occu-serve` guarantees this
//! by keying its plan cache on the registry's model version.

use crate::features::{FeaturizedGraph, EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM};
use crate::gnn::{AneeLayer, DnnOccu, GraphormerLayer, Mab, SetTransformerDecoder, StructuralEncoding};
use crate::train::{target_to_occupancy, OccuPredictor};
use occu_nn::{Activation, FeedForward, LayerNorm, Linear, Mlp, MultiHeadAttention, ParamStore};
use occu_plan::{
    Executor, IdxRef, InputRef, InputShapes, PlanInputs, Precision, Program, ProgramBuilder,
    ProgramStats, Src, UnaryOp,
};

thread_local! {
    /// One plan executor per thread, mirroring the interpreter's
    /// `PREDICT_TAPE`: after the first execution at a given shape the
    /// arena serves every register from recycled buffers.
    static PLAN_EXECUTOR: std::cell::RefCell<Executor> = std::cell::RefCell::new(Executor::new());
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
    /// equivalent of [`OccuPredictor::predict_target`].
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
        PLAN_EXECUTOR.with(|e| e.borrow_mut().run_scalar(&self.program, &inputs))
    }

    /// Predicts the occupancy — the plan-compiled equivalent of
    /// [`OccuPredictor::predict`].
    pub fn predict(&self, fg: &FeaturizedGraph) -> f32 {
        target_to_occupancy(self.predict_target(fg))
    }
}

/// Walks the model layer by layer, emitting one plan instruction per
/// tape op the interpreter would record.
struct PlanCompiler<'m> {
    b: ProgramBuilder,
    store: &'m ParamStore,
    precision: Precision,
}

impl PlanCompiler<'_> {
    /// The precision-lowering hook: every `Linear` weight (the only
    /// compile-time matmul right-hand sides) is snapshot at the
    /// compiler's precision. Activation-by-activation products
    /// (attention scores/values) have no compile-time operand and
    /// stay f32 at every tier.
    fn linear(&mut self, l: &Linear, x: Src) -> Src {
        let wm = self.store.value(l.weight_id());
        let bias = l.bias_id().map(|id| self.b.plain_weight(self.store.value(id).clone()));
        match self.precision {
            Precision::F32 => {
                let w = self.b.packed_weight(wm);
                self.b.matmul_packed(x, w, bias)
            }
            Precision::Int8 => {
                let w = self.b.packed_weight_i8(wm);
                self.b.matmul_packed_i8(x, w, bias)
            }
        }
    }

    fn activation(&mut self, act: Activation, x: Src) -> Src {
        match act {
            Activation::None => x,
            Activation::Relu => self.b.unary(x, UnaryOp::Relu),
            Activation::LeakyRelu(a) => self.b.unary(x, UnaryOp::LeakyRelu(a)),
            Activation::Gelu => self.b.unary(x, UnaryOp::Gelu),
            Activation::Sigmoid => self.b.unary(x, UnaryOp::Sigmoid),
            Activation::Tanh => self.b.unary(x, UnaryOp::Tanh),
        }
    }

    fn layer_norm(&mut self, ln: &LayerNorm, x: Src) -> Src {
        let gamma = self.b.plain_weight(self.store.value(ln.gamma_id()).clone());
        let beta = self.b.plain_weight(self.store.value(ln.beta_id()).clone());
        self.b.layer_norm_affine(x, gamma, beta)
    }

    fn feed_forward(&mut self, ff: &FeedForward, x: Src) -> Src {
        let h = self.linear(ff.linear1(), x);
        let h = self.activation(ff.activation(), h);
        self.linear(ff.linear2(), h)
    }

    fn mha(&mut self, mha: &MultiHeadAttention, x: Src, y: Src, attn_bias: Option<Src>) -> Src {
        let q = self.linear(mha.wq(), x);
        let k = self.linear(mha.wk(), y);
        let v = self.linear(mha.wv(), y);
        let scale = 1.0 / (mha.head_dim() as f32).sqrt();
        let mut merged: Option<Src> = None;
        for h in 0..mha.heads() {
            let lo = h * mha.head_dim();
            let hi = lo + mha.head_dim();
            let qh = self.b.slice_cols(q, lo, hi);
            let kh = self.b.slice_cols(k, lo, hi);
            let vh = self.b.slice_cols(v, lo, hi);
            let scores = self.b.matmul_transb(qh, kh);
            let scores = self.b.unary(scores, UnaryOp::Scale(scale));
            let scores = match attn_bias {
                Some(bias) => self.b.add(scores, bias),
                None => scores,
            };
            let attn = self.b.softmax_rows(scores);
            let out_h = self.b.matmul(attn, vh);
            merged = Some(match merged {
                Some(acc) => self.b.hcat(acc, out_h),
                None => out_h,
            });
        }
        let concat = merged.expect("at least one head");
        self.linear(mha.wo(), concat)
    }

    fn mlp(&mut self, mlp: &Mlp, x: Src) -> Src {
        let last = mlp.layers().len() - 1;
        let mut h = x;
        for (i, layer) in mlp.layers().iter().enumerate() {
            h = self.linear(layer, h);
            h = if i == last {
                self.activation(mlp.output_activation(), h)
            } else {
                self.activation(mlp.hidden_activation(), h)
            };
        }
        h
    }

    fn anee(&mut self, anee: &AneeLayer, nodes: Src, edges: Src, n_nodes: usize) -> Src {
        let h_bar = self.linear(&anee.w_u, nodes);
        let h_bar = self.b.unary(h_bar, UnaryOp::LeakyRelu(anee.slope));
        let hs = self.b.gather_rows(h_bar, IdxRef::EdgeSrc);
        let hd = self.b.gather_rows(h_bar, IdxRef::EdgeDst);
        let cat = self.b.hcat(hs, hd);
        let a = self.b.plain_weight(self.store.value(anee.a).clone());
        let alpha = self.b.matmul(cat, Src::Weight(a));
        let e_trans = self.linear(&anee.w_e, edges);
        let gated = self.b.mul_col_broadcast(e_trans, alpha);
        let e_new = self.b.unary(gated, UnaryOp::Sigmoid);
        let gate = self.linear(&anee.w_m, e_new);
        let gate = self.b.softmax_rows(gate);
        let msg = self.b.mul(gate, hs);
        let agg = self.b.scatter_add_rows(msg, IdxRef::EdgeDst, n_nodes);
        let agg = self.b.add(agg, h_bar);
        self.b.unary(agg, UnaryOp::LeakyRelu(anee.slope))
    }

    fn graphormer(&mut self, layer: &GraphormerLayer, h: Src, attn_bias: Option<Src>) -> Src {
        let normed = self.layer_norm(&layer.ln1, h);
        let att = self.mha(&layer.mha, normed, normed, attn_bias);
        let h_bar = self.b.add(att, h);
        let normed2 = self.layer_norm(&layer.ln2, h_bar);
        let ff = self.feed_forward(&layer.ffn, normed2);
        self.b.add(ff, h_bar)
    }

    fn mab(&mut self, mab: &Mab, x: Src, y: Src) -> Src {
        let att = self.mha(&mab.mha, x, y, None);
        let sum = self.b.add(x, att);
        let h_bar = self.layer_norm(&mab.ln1, sum);
        let ff = self.feed_forward(&mab.ffn, h_bar);
        let sum2 = self.b.add(h_bar, ff);
        self.layer_norm(&mab.ln2, sum2)
    }

    fn decoder(&mut self, dec: &SetTransformerDecoder, h: Src) -> Src {
        let ffn_h = self.feed_forward(&dec.pre_ffn, h);
        let seeds = self.b.plain_weight(self.store.value(dec.seeds).clone());
        let mut cur = self.mab(&dec.pma, Src::Weight(seeds), ffn_h);
        for sab in &dec.sabs {
            cur = self.mab(sab, cur, cur);
        }
        self.feed_forward(&dec.post_ffn, cur)
    }

    fn spd_bias(&mut self, structural: &StructuralEncoding) -> Src {
        let thetas: Vec<f32> =
            structural.spd_theta.iter().map(|&id| self.store.value(id).get(0, 0)).collect();
        self.b.spd_bias(thetas)
    }

    fn add_degree(&mut self, structural: &StructuralEncoding, h: Src) -> Src {
        let table = self.b.plain_weight(self.store.value(structural.degree_embed).clone());
        let rows = self.b.gather_rows(Src::Weight(table), IdxRef::DegreeBucket);
        self.b.add(h, rows)
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
    /// tier (see `repro quant`).
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
        let mut builder = ProgramBuilder::new(shapes);
        builder.set_precision(precision);
        let mut c = PlanCompiler { b: builder, store: self.store(), precision };
        let nodes = Src::Input(InputRef::NodeFeats);
        let edges = Src::Input(InputRef::EdgeFeats);
        let mut h = c.anee(&self.anee, nodes, edges, n_nodes);
        if self.cfg.use_degree_encoding {
            h = c.add_degree(&self.structural, h);
        }
        let bias = if self.cfg.use_spatial_bias && !self.graphormer.is_empty() {
            Some(c.spd_bias(&self.structural))
        } else {
            None
        };
        for layer in &self.graphormer {
            h = c.graphormer(layer, h, bias);
        }
        let pooled = if self.cfg.use_set_decoder {
            let slots = c.decoder(&self.decoder, h);
            c.b.mean_rows(slots)
        } else {
            c.b.mean_rows(h)
        };
        let head_in = c.b.hcat(pooled, Src::Input(InputRef::GlobalFeats));
        let out = c.mlp(&self.head, head_in);
        CompiledPlan { program: c.b.finish(out) }
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
        // Exercise every conditional branch of the compiler: no degree
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
