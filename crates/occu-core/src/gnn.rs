//! The DNN-occu architecture (§III-D): ANEE layer, Graphormer layers
//! with structural encodings, Set Transformer decoder, MLP head.

use crate::features::{FeaturizedGraph, DEGREE_BUCKETS, EDGE_FEAT_DIM, GLOBAL_FEAT_DIM, NODE_FEAT_DIM, SPD_CAP};
use crate::train::OccuPredictor;
use occu_nn::{
    Activation, FeedForward, LayerNorm, Linear, Mlp, MultiHeadAttention, ParamId, ParamStore, Recorder, Tape, Var,
};
use occu_tensor::{Matrix, SeededRng};

/// Hyperparameters of the DNN-occu network.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize, PartialEq)]
pub struct DnnOccuConfig {
    /// Hidden width of every layer (paper: 256).
    pub hidden: usize,
    /// Attention heads in Graphormer / decoder blocks.
    pub heads: usize,
    /// Number of Graphormer layers (paper: 2).
    pub graphormer_layers: usize,
    /// Number of SAB layers in the Set Transformer decoder (paper
    /// uses two decoder layers).
    pub decoder_sab_layers: usize,
    /// Learnable seed vectors `k` in PMA.
    pub pma_seeds: usize,
    /// LeakyReLU negative slope in the ANEE layer.
    pub leaky_slope: f32,
    /// Enable Graphormer's shortest-path spatial attention bias.
    pub use_spatial_bias: bool,
    /// Enable the degree (centrality) encoding.
    pub use_degree_encoding: bool,
    /// Use the Set Transformer decoder; `false` falls back to mean
    /// pooling (ablation).
    pub use_set_decoder: bool,
}

impl DnnOccuConfig {
    /// Paper configuration: hidden 256, one ANEE layer, two
    /// Graphormer layers, two decoder layers (§V).
    pub fn paper() -> Self {
        Self {
            hidden: 256,
            heads: 4,
            graphormer_layers: 2,
            decoder_sab_layers: 2,
            pma_seeds: 4,
            leaky_slope: 0.1,
            use_spatial_bias: true,
            use_degree_encoding: true,
            use_set_decoder: true,
        }
    }

    /// Reduced width for CPU-bound experiments; same topology.
    pub fn fast() -> Self {
        Self { hidden: 64, ..Self::paper() }
    }
}

impl Default for DnnOccuConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// The attention-based node-edge encoder of §III-D (after DNNPerf).
///
/// One round computes, with `W_u`, `W_e`, `W_m` and attention vector
/// `a`:
///
/// ```text
/// h̄_u  = LeakyReLU(W_u h_u)
/// e_l  = σ(aᵀ(h̄_s ‖ h̄_d) · W_e e_l)          (per edge l=(s,d))
/// f    = Softmax(W_m e_l) ⊙ h̄_s               (message on edge l)
/// h_u  = LeakyReLU(Σ_{l=(u',u)} f(u', l))      (aggregate at target)
/// ```
pub struct AneeLayer {
    w_u: Linear,
    w_e: Linear,
    w_m: Linear,
    a: ParamId,
    slope: f32,
}

impl AneeLayer {
    /// Creates an ANEE round mapping `node_in`/`edge_in` features to
    /// `hidden`-wide embeddings.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        node_in: usize,
        edge_in: usize,
        hidden: usize,
        slope: f32,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            w_u: Linear::new_no_bias(store, &format!("{name}.w_u"), node_in, hidden, rng),
            w_e: Linear::new_no_bias(store, &format!("{name}.w_e"), edge_in, hidden, rng),
            w_m: Linear::new_no_bias(store, &format!("{name}.w_m"), hidden, hidden, rng),
            a: store.register_xavier(format!("{name}.a"), 2 * hidden, 1, rng),
            slope,
        }
    }

    /// One message-passing round. Returns `(node_embed, edge_embed)`.
    pub fn forward<R: Recorder>(
        &self,
        r: &mut R,
        store: &ParamStore,
        nodes: R::V,
        edges: R::V,
        src: R::Idx<'_>,
        dst: R::Idx<'_>,
    ) -> (R::V, R::V) {
        let n = r.shape(nodes).0;
        let leaky = Activation::LeakyRelu(self.slope);
        // h̄ = LeakyReLU(W_u h)
        let h_bar = self.w_u.forward(r, store, nodes);
        let h_bar = r.activation(leaky, h_bar);
        // Per-edge attention scalar aᵀ(h̄_s ‖ h̄_d).
        let hs = r.gather_rows(h_bar, src);
        let hd = r.gather_rows(h_bar, dst);
        let cat = r.hcat(hs, hd);
        let a = r.param(store, self.a);
        let alpha = r.matmul(cat, a); // E x 1
        // e' = σ(α ⊙ (W_e e)) — the per-edge scalar gates each row
        // directly, without materializing an E x hidden broadcast of α.
        let e_trans = self.w_e.forward(r, store, edges);
        let gated = r.mul_col_broadcast(e_trans, alpha);
        let e_new = r.activation(Activation::Sigmoid, gated);
        // f = Softmax(W_m e') ⊙ h̄_src ; aggregate at dst.
        let gate = self.w_m.forward(r, store, e_new);
        let gate = r.softmax_rows(gate);
        let msg = r.mul(gate, hs);
        let agg = r.scatter_add_rows(msg, dst, n);
        // Self term: the paper's equation aggregates incoming messages
        // only, which would zero out source (in-degree-0) nodes and
        // discard every node's own transformed features; including
        // h̄_u in the sum (equivalent to a self-loop edge) fixes both
        // without changing the messages.
        let agg = r.add(agg, h_bar);
        let h_new = r.activation(leaky, agg);
        (h_new, e_new)
    }
}

/// One Graphormer layer (§III-D): pre-norm MHA and FFN with residual
/// connections, plus the shortest-path spatial bias hook.
pub struct GraphormerLayer {
    ln1: LayerNorm,
    mha: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
}

impl GraphormerLayer {
    /// Creates one layer of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, heads: usize, rng: &mut SeededRng) -> Self {
        Self {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            mha: MultiHeadAttention::new(store, &format!("{name}.mha"), dim, heads, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, dim * 2, Activation::Gelu, rng),
        }
    }

    /// `h̄ = MHA(LN(h)) + h ; h' = FFN(LN(h̄)) + h̄`.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, h: R::V, attn_bias: Option<R::V>) -> R::V {
        let normed = self.ln1.forward(r, store, h);
        let att = self.mha.forward(r, store, normed, normed, attn_bias);
        let h_bar = r.add(att, h);
        let normed2 = self.ln2.forward(r, store, h_bar);
        let ff = self.ffn.forward(r, store, normed2);
        r.add(ff, h_bar)
    }
}

/// Graphormer structural encodings: learnable scalar per
/// shortest-path bucket (attention bias) and learnable vector per
/// degree bucket (added to node embeddings).
pub struct StructuralEncoding {
    /// `SPD_CAP + 1` scalars θ_b.
    spd_theta: Vec<ParamId>,
    /// `DEGREE_BUCKETS x hidden` centrality table.
    degree_embed: ParamId,
}

impl StructuralEncoding {
    /// Registers the encoding parameters.
    pub fn new(store: &mut ParamStore, name: &str, hidden: usize, rng: &mut SeededRng) -> Self {
        let spd_theta = (0..=SPD_CAP)
            .map(|b| store.register(format!("{name}.spd_theta{b}"), Matrix::zeros(1, 1)))
            .collect();
        let degree_embed = store.register(
            format!("{name}.degree_embed"),
            Matrix::randn(DEGREE_BUCKETS, hidden, 0.02, rng),
        );
        Self { spd_theta, degree_embed }
    }

    /// Records the `n x n` spatial attention bias `θ[spd[i][j]]`.
    pub fn spatial_bias<R: Recorder>(&self, r: &mut R, store: &ParamStore, spd: R::Spd<'_>) -> R::V {
        r.spd_bias(store, &self.spd_theta, spd)
    }

    /// Adds the degree (centrality) embedding to node embeddings.
    pub fn add_degree<R: Recorder>(&self, r: &mut R, store: &ParamStore, h: R::V, degree_bucket: R::Idx<'_>) -> R::V {
        let table = r.param(store, self.degree_embed);
        let rows = r.gather_rows(table, degree_bucket);
        r.add(h, rows)
    }
}

/// Multihead Attention Block: `MAB(X, Y) = LN(H̄ + FFN(H̄))` with
/// `H̄ = LN(X + MHA(X, Y, Y))` (§III-D).
pub struct Mab {
    mha: MultiHeadAttention,
    ln1: LayerNorm,
    ffn: FeedForward,
    ln2: LayerNorm,
}

impl Mab {
    /// Creates a MAB of width `dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, heads: usize, rng: &mut SeededRng) -> Self {
        Self {
            mha: MultiHeadAttention::new(store, &format!("{name}.mha"), dim, heads, rng),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            ffn: FeedForward::new(store, &format!("{name}.ffn"), dim, dim * 2, Activation::Gelu, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
        }
    }

    /// Applies the block.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V, y: R::V) -> R::V {
        let att = self.mha.forward(r, store, x, y, None);
        let sum = r.add(x, att);
        let h_bar = self.ln1.forward(r, store, sum);
        let ff = self.ffn.forward(r, store, h_bar);
        let sum2 = r.add(h_bar, ff);
        self.ln2.forward(r, store, sum2)
    }
}

/// Set Transformer decoder (§III-D):
/// `Decoder(H) = FFN(SAB(PMA_k(H)))` with
/// `PMA_k(H) = MAB(S, FFN(H))` over `k` learnable seeds `S`.
pub struct SetTransformerDecoder {
    seeds: ParamId,
    pre_ffn: FeedForward,
    pma: Mab,
    sabs: Vec<Mab>,
    post_ffn: FeedForward,
}

impl SetTransformerDecoder {
    /// Creates a decoder with `k` seeds and `sab_layers` SAB blocks.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        k: usize,
        sab_layers: usize,
        rng: &mut SeededRng,
    ) -> Self {
        Self {
            seeds: store.register(format!("{name}.seeds"), Matrix::randn(k, dim, 0.1, rng)),
            pre_ffn: FeedForward::new(store, &format!("{name}.pre_ffn"), dim, dim * 2, Activation::Gelu, rng),
            pma: Mab::new(store, &format!("{name}.pma"), dim, heads, rng),
            sabs: (0..sab_layers)
                .map(|i| Mab::new(store, &format!("{name}.sab{i}"), dim, heads, rng))
                .collect(),
            post_ffn: FeedForward::new(store, &format!("{name}.post_ffn"), dim, dim * 2, Activation::Gelu, rng),
        }
    }

    /// Pools `n x dim` node embeddings into `k x dim` decoded slots.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, h: R::V) -> R::V {
        let ffn_h = self.pre_ffn.forward(r, store, h);
        let seeds = r.param(store, self.seeds);
        let mut cur = self.pma.forward(r, store, seeds, ffn_h);
        for sab in &self.sabs {
            cur = sab.forward(r, store, cur, cur);
        }
        self.post_ffn.forward(r, store, cur)
    }
}

/// One graph's inputs as a [`Recorder`] sees them: tape constants
/// and index slices, or a plan's per-request input operands.
pub(crate) struct GraphInputs<'a, R: Recorder> {
    pub(crate) nodes: R::V,
    pub(crate) edges: R::V,
    pub(crate) global: R::V,
    pub(crate) edge_src: R::Idx<'a>,
    pub(crate) edge_dst: R::Idx<'a>,
    pub(crate) degree_bucket: R::Idx<'a>,
    pub(crate) spd: R::Spd<'a>,
}

/// The full DNN-occu predictor.
pub struct DnnOccu {
    cfg: DnnOccuConfig,
    store: ParamStore,
    anee: AneeLayer,
    structural: StructuralEncoding,
    graphormer: Vec<GraphormerLayer>,
    decoder: SetTransformerDecoder,
    head: Mlp,
}

impl DnnOccu {
    /// Builds the network with freshly initialized parameters.
    pub fn new(cfg: DnnOccuConfig, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        let d = cfg.hidden;
        let anee = AneeLayer::new(&mut store, "anee", NODE_FEAT_DIM, EDGE_FEAT_DIM, d, cfg.leaky_slope, &mut rng);
        let structural = StructuralEncoding::new(&mut store, "structural", d, &mut rng);
        let graphormer = (0..cfg.graphormer_layers)
            .map(|i| GraphormerLayer::new(&mut store, &format!("graphormer{i}"), d, cfg.heads, &mut rng))
            .collect();
        let decoder = SetTransformerDecoder::new(
            &mut store,
            "decoder",
            d,
            cfg.heads,
            cfg.pma_seeds,
            cfg.decoder_sab_layers,
            &mut rng,
        );
        let head = Mlp::new(
            &mut store,
            "head",
            &[d + GLOBAL_FEAT_DIM, 2 * d, 64, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        Self { cfg, store, anee, structural, graphormer, decoder, head }
    }

    /// Network configuration.
    pub fn config(&self) -> &DnnOccuConfig {
        &self.cfg
    }

    /// Number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The forward pass, written once for every [`Recorder`]: the tape
    /// ([`OccuPredictor::forward`]) and the plan builder
    /// ([`DnnOccu::compile_plan`]) both record exactly this op
    /// sequence.
    pub(crate) fn record<R: Recorder>(&self, r: &mut R, inputs: GraphInputs<'_, R>) -> R::V {
        let store = &self.store;
        let (mut h, _e) =
            self.anee.forward(r, store, inputs.nodes, inputs.edges, inputs.edge_src, inputs.edge_dst);
        if self.cfg.use_degree_encoding {
            h = self.structural.add_degree(r, store, h, inputs.degree_bucket);
        }
        let bias = if self.cfg.use_spatial_bias && !self.graphormer.is_empty() {
            Some(self.structural.spatial_bias(r, store, inputs.spd))
        } else {
            None
        };
        for layer in &self.graphormer {
            h = layer.forward(r, store, h, bias);
        }
        let pooled = if self.cfg.use_set_decoder {
            let slots = self.decoder.forward(r, store, h);
            r.mean_rows(slots)
        } else {
            r.mean_rows(h)
        };
        let head_in = r.hcat(pooled, inputs.global);
        self.head.forward(r, store, head_in)
    }

    /// Serializes the model (architecture config + trained weights)
    /// to a single JSON document.
    pub fn to_json(&self) -> String {
        let doc = serde_json::json!({
            "config": self.cfg,
            "params": serde_json::from_str::<serde_json::Value>(&self.store.to_json())
                .expect("store JSON is valid"),
        });
        doc.to_string()
    }

    /// Restores a model saved with [`DnnOccu::to_json`].
    ///
    /// Layer wiring is reconstructed from the config (parameter
    /// registration order is deterministic), then the stored values
    /// replace the fresh initialization. Truncated or non-JSON bytes
    /// are `Parse` errors; a well-formed document whose parameter
    /// count disagrees with its own architecture config is a `Data`
    /// error (the file was edited or mixed from two saves).
    pub fn from_json(s: &str) -> occu_error::Result<DnnOccu> {
        #[derive(serde::Deserialize)]
        struct Doc {
            config: DnnOccuConfig,
            params: serde_json::Value,
        }
        let ctx = "model JSON";
        let doc: Doc = serde_json::from_str(s).map_err(|e| occu_error::OccuError::parse(ctx, e.to_string()))?;
        let mut model = DnnOccu::new(doc.config, 0);
        let store: ParamStore = serde_json::from_value(doc.params)
            .map_err(|e| occu_error::OccuError::parse(ctx, e.to_string()))?;
        if store.num_scalars() != model.store.num_scalars() {
            return Err(occu_error::OccuError::data(
                ctx,
                format!(
                    "saved parameter count {} does not match the saved architecture config (expects {})",
                    store.num_scalars(),
                    model.store.num_scalars()
                ),
            ));
        }
        model.store = store;
        Ok(model)
    }
}

impl OccuPredictor for DnnOccu {
    fn name(&self) -> &'static str {
        "DNN-occu"
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let inputs = GraphInputs::<Tape> {
            nodes: tape.constant_ref(&fg.node_feats),
            edges: tape.constant_ref(&fg.edge_feats),
            global: tape.constant_ref(&fg.global_feats),
            edge_src: &fg.edge_src,
            edge_dst: &fg.edge_dst,
            degree_bucket: &fg.degree_bucket,
            spd: &fg.spd,
        };
        self.record(tape, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::make_sample;
    use occu_gpusim::DeviceSpec;
    use occu_models::{ModelConfig, ModelId};
    use occu_nn::{GradBuffer, Optimizer};

    fn tiny_sample() -> crate::dataset::Sample {
        make_sample(
            ModelId::LeNet,
            ModelConfig { batch_size: 8, ..Default::default() },
            &DeviceSpec::a100(),
        )
    }

    #[test]
    fn forward_produces_unit_interval_scalar() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 1);
        let s = tiny_sample();
        let mut tape = Tape::new();
        let y = model.forward(&mut tape, &s.features);
        assert_eq!(tape.shape(y), (1, 1));
        let v = tape.value(y).get(0, 0);
        assert!((0.0..=1.0).contains(&v), "prediction {v}");
    }

    #[test]
    fn backward_populates_all_parameter_grads() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 2);
        let s = tiny_sample();
        let mut tape = Tape::new();
        let y = model.forward(&mut tape, &s.features);
        let t = tape.constant(Matrix::from_vec(1, 1, vec![s.occupancy]));
        let loss = tape.mse_loss(y, t);
        let mut grads = GradBuffer::for_store(model.store());
        tape.backward_into(loss, model.store(), &mut grads);
        // Most parameters should receive gradient signal (spatial
        // thetas for unused distance buckets may stay zero).
        let ids: Vec<_> = model.store().ids().collect();
        let with_grad = ids.iter().filter(|&&id| grads.grad(id).norm() > 0.0).count();
        assert!(
            with_grad * 10 >= ids.len() * 8,
            "only {with_grad}/{} params got gradients",
            ids.len()
        );
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 3);
        let s = tiny_sample();
        let loss_val = |m: &DnnOccu| {
            let mut tape = Tape::new();
            let y = m.forward(&mut tape, &s.features);
            let t = tape.constant(Matrix::from_vec(1, 1, vec![s.occupancy]));
            let l = tape.mse_loss(y, t);
            (tape.value(l).get(0, 0), tape, l)
        };
        let (before, tape, l) = loss_val(&model);
        let mut grads = GradBuffer::for_store(model.store());
        tape.backward_into(l, model.store(), &mut grads);
        // SGD's step is proportional to the gradient, so a small step
        // is guaranteed to descend; Adam's first step moves every
        // element by ~lr regardless of gradient scale and can climb
        // from some init basins.
        let mut opt = occu_nn::Sgd { lr: 0.01 };
        opt.step(model.store_mut(), &mut grads);
        let (after, _, _) = loss_val(&model);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn ablation_flags_change_behaviour() {
        let s = tiny_sample();
        let full = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 4);
        let no_decoder = DnnOccu::new(
            DnnOccuConfig { hidden: 16, use_set_decoder: false, ..DnnOccuConfig::fast() },
            4,
        );
        let mut t1 = Tape::new();
        let y1 = full.forward(&mut t1, &s.features);
        let mut t2 = Tape::new();
        let y2 = no_decoder.forward(&mut t2, &s.features);
        assert_ne!(t1.value(y1).get(0, 0), t2.value(y2).get(0, 0));
        // The decoder-free network records fewer tape ops.
        assert!(t2.len() < t1.len());
    }

    #[test]
    fn paper_config_has_more_parameters_than_fast() {
        let paper = DnnOccu::new(DnnOccuConfig::paper(), 5);
        let fast = DnnOccu::new(DnnOccuConfig::fast(), 5);
        assert!(paper.num_parameters() > 10 * fast.num_parameters() / 4);
        assert!(fast.num_parameters() > 10_000);
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 7);
        let s = tiny_sample();
        let expected = model.predict(&s.features);
        let restored = DnnOccu::from_json(&model.to_json()).expect("valid doc");
        assert_eq!(restored.predict(&s.features), expected);
        assert_eq!(restored.config(), model.config());
    }

    #[test]
    fn weights_saved_with_a_grads_field_still_load() {
        // Written by an earlier `occu train --hidden 4`, whose parameter
        // store also serialized a zero gradient per parameter.
        let old = include_str!("../tests/data/weights_with_grads.json");
        let doc: serde_json::Value = serde_json::from_str(old).unwrap();
        let params = doc.get("params").unwrap();
        assert!(params.get("grads").is_some(), "fixture carries the old field");
        let model = DnnOccu::from_json(old).expect("old weights load");
        assert_eq!(model.config().hidden, 4);
        let want: ParamStore = serde_json::from_value(params.clone()).unwrap();
        for id in model.store().ids() {
            assert_eq!(model.store().value(id).data(), want.value(id).data());
        }
        let s = tiny_sample();
        // The answer the writing version's `occu predict --model LeNet
        // --batch 8` printed for this file.
        let served = model.compile_plan_for(&s.features).predict(&s.features);
        assert!((served - 0.026_939_858).abs() < 1e-8, "{served}");
        let resaved = model.to_json();
        assert!(!resaved.contains("grads"), "weights are saved without gradients");
        let again = DnnOccu::from_json(&resaved).unwrap();
        assert_eq!(again.predict(&s.features).to_bits(), model.predict(&s.features).to_bits());
    }

    #[test]
    fn steady_state_forward_is_arena_allocation_free() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 9);
        let s = tiny_sample();
        let mut tape = Tape::new();
        // Two warm-up passes populate the arena free lists with every
        // buffer shape the full network needs.
        for _ in 0..2 {
            tape.clear();
            let _ = model.forward(&mut tape, &s.features);
        }
        let (_, fresh_before, bytes_before) = tape.arena_stats();
        for _ in 0..4 {
            tape.clear();
            let _ = model.forward(&mut tape, &s.features);
        }
        let (_, fresh_after, bytes_after) = tape.arena_stats();
        assert_eq!(
            fresh_before, fresh_after,
            "steady-state DnnOccu forward must not take fresh arena buffers"
        );
        assert_eq!(bytes_before, bytes_after, "arena high-water mark must stay flat");
    }

    #[test]
    fn spatial_bias_shapes() {
        let model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 6);
        let s = tiny_sample();
        let mut tape = Tape::new();
        let bias = model.structural.spatial_bias(&mut tape, &model.store, &s.features.spd);
        let n = s.features.num_nodes();
        assert_eq!(tape.shape(bias), (n, n));
        // θ initialized to zero -> zero bias at init.
        assert_eq!(tape.value(bias).norm(), 0.0);
    }
}
