//! The five comparison baselines of §IV-D.
//!
//! * [`MlpBaseline`] — four dense layers (512/512/256) over mean node
//!   features; bounded (sigmoid) output.
//! * [`LstmBaseline`] — two LSTM layers over the topologically
//!   ordered node-feature sequence.
//! * [`TransformerBaseline`] — a three-layer, four-head transformer
//!   encoder over the node sequence.
//! * [`DnnPerfBaseline`] — ANEE-layer GNN as in DNNPerf; designed for
//!   unbounded latency regression, so its head is linear — which is
//!   exactly why it extrapolates catastrophically on unseen model
//!   families (Tables IV/V).
//! * [`BrpNasBaseline`] — a GCN over the graph structure and operator
//!   one-hots only, "overlooking runtime factors associated with
//!   nodes and edges"; also a linear head.

use crate::features::{FeaturizedGraph, EDGE_FEAT_DIM, NODE_FEAT_DIM};
use crate::gnn::AneeLayer;
use crate::train::OccuPredictor;
use occu_graph::OpKind;
use occu_nn::{Activation, LayerNorm, Linear, LstmCell, Mlp, MultiHeadAttention, ParamStore, Recorder, Tape, Var};
use occu_tensor::{Matrix, SeededRng};

/// Longest node sequence the sequential baselines consume; longer
/// graphs are evenly subsampled (framework exports feed LSTMs fixed
/// windows for the same tractability reason).
const MAX_SEQ: usize = 96;

/// Evenly subsamples `indices` down to at most `max` entries.
fn subsample(indices: &[usize], max: usize) -> Vec<usize> {
    if indices.len() <= max {
        return indices.to_vec();
    }
    (0..max)
        .map(|i| indices[i * indices.len() / max])
        .collect()
}

// ---------------------------------------------------------------- MLP

/// The MLP baseline: §IV-D uses four layers of widths 80/512/512/256;
/// the input width here is the Table I feature dimension, mean-pooled
/// over nodes.
pub struct MlpBaseline {
    store: ParamStore,
    mlp: Mlp,
}

impl MlpBaseline {
    /// Creates the baseline with the paper's layer widths.
    pub fn new(seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[NODE_FEAT_DIM, 512, 512, 256, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        Self { store, mlp }
    }
}

impl OccuPredictor for MlpBaseline {
    fn name(&self) -> &'static str {
        "MLP"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let nodes = tape.constant_ref(&fg.node_feats);
        let pooled = tape.mean_rows(nodes);
        self.mlp.forward(tape, &self.store, pooled)
    }
}

// --------------------------------------------------------------- LSTM

/// The LSTM baseline: two layers of `hidden` channels (paper: 256)
/// consuming node features in topological order.
pub struct LstmBaseline {
    store: ParamStore,
    proj: Linear,
    cell1: LstmCell,
    cell2: LstmCell,
    head: Linear,
    hidden: usize,
}

impl LstmBaseline {
    /// Creates the baseline; `hidden` trades fidelity (256 in the
    /// paper) against CPU time.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        Self {
            proj: Linear::new(&mut store, "proj", NODE_FEAT_DIM, hidden, &mut rng),
            cell1: LstmCell::new(&mut store, "lstm1", hidden, hidden, &mut rng),
            cell2: LstmCell::new(&mut store, "lstm2", hidden, hidden, &mut rng),
            head: Linear::new(&mut store, "head", hidden, 1, &mut rng),
            hidden,
            store,
        }
    }
}

impl OccuPredictor for LstmBaseline {
    fn name(&self) -> &'static str {
        "LSTM"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let order = subsample(&fg.topo_order, MAX_SEQ);
        let seq = tape.constant(fg.node_feats.gather_rows(&order));
        let seq = self.proj.forward(tape, &self.store, seq);
        let seq = tape.tanh(seq);
        let (mut h1, mut c1) = self.cell1.zero_state(tape, 1);
        let (mut h2, mut c2) = self.cell2.zero_state(tape, 1);
        for t in 0..order.len() {
            let x_t = tape.gather_rows(seq, &[t]);
            let (nh1, nc1) = self.cell1.step(tape, &self.store, x_t, h1, c1);
            h1 = nh1;
            c1 = nc1;
            let (nh2, nc2) = self.cell2.step(tape, &self.store, h1, h2, c2);
            h2 = nh2;
            c2 = nc2;
        }
        debug_assert_eq!(tape.shape(h2), (1, self.hidden));
        let y = self.head.forward(tape, &self.store, h2);
        tape.sigmoid(y)
    }
}

// -------------------------------------------------------- Transformer

/// The Transformer baseline: encoder-only, three layers, four heads,
/// 512-wide FFN (§IV-D), mean-pooled readout.
pub struct TransformerBaseline {
    store: ParamStore,
    proj: Linear,
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
    head: Linear,
}

struct EncoderLayer {
    ln1: LayerNorm,
    mha: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    fc2: Linear,
}

impl TransformerBaseline {
    /// Creates the baseline with model width `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        let proj = Linear::new(&mut store, "proj", NODE_FEAT_DIM, dim, &mut rng);
        let layers = (0..3)
            .map(|i| EncoderLayer {
                ln1: LayerNorm::new(&mut store, &format!("enc{i}.ln1"), dim),
                mha: MultiHeadAttention::new(&mut store, &format!("enc{i}.mha"), dim, 4, &mut rng),
                ln2: LayerNorm::new(&mut store, &format!("enc{i}.ln2"), dim),
                fc1: Linear::new(&mut store, &format!("enc{i}.fc1"), dim, 512, &mut rng),
                fc2: Linear::new(&mut store, &format!("enc{i}.fc2"), 512, dim, &mut rng),
            })
            .collect();
        // Final LayerNorm keeps the pooled representation (and hence
        // the head logit) bounded — without it the residual stream
        // grows layer by layer and the sigmoid head saturates dead.
        let final_ln = LayerNorm::new(&mut store, "final_ln", dim);
        let head = Linear::new(&mut store, "head", dim, 1, &mut rng);
        Self { store, proj, layers, final_ln, head }
    }
}

impl OccuPredictor for TransformerBaseline {
    fn name(&self) -> &'static str {
        "Transformer"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let order = subsample(&fg.topo_order, MAX_SEQ);
        let seq = tape.constant(fg.node_feats.gather_rows(&order));
        let mut h = self.proj.forward(tape, &self.store, seq);
        for layer in &self.layers {
            let n1 = layer.ln1.forward(tape, &self.store, h);
            let att = layer.mha.forward_self(tape, &self.store, n1);
            h = tape.add(h, att);
            let n2 = layer.ln2.forward(tape, &self.store, h);
            let f1 = layer.fc1.forward(tape, &self.store, n2);
            let a = tape.gelu(f1);
            let f2 = layer.fc2.forward(tape, &self.store, a);
            h = tape.add(h, f2);
        }
        let h = self.final_ln.forward(tape, &self.store, h);
        let pooled = tape.mean_rows(h);
        let y = self.head.forward(tape, &self.store, pooled);
        tape.sigmoid(y)
    }
}

// ------------------------------------------------------------ DNNPerf

/// DNNPerf: two ANEE message-passing rounds and an MLP head with a
/// linear (unbounded) output, as fits its original latency-regression
/// target.
pub struct DnnPerfBaseline {
    store: ParamStore,
    round1: AneeLayer,
    round2: AneeLayer,
    head: Mlp,
}

impl DnnPerfBaseline {
    /// Creates the baseline with embedding width `hidden`.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        let round1 = AneeLayer::new(&mut store, "anee1", NODE_FEAT_DIM, EDGE_FEAT_DIM, hidden, 0.1, &mut rng);
        let round2 = AneeLayer::new(&mut store, "anee2", hidden, hidden, hidden, 0.1, &mut rng);
        let head = Mlp::new(
            &mut store,
            "head",
            &[hidden, 128, 1],
            Activation::Relu,
            Activation::None,
            &mut rng,
        );
        Self { store, round1, round2, head }
    }
}

impl OccuPredictor for DnnPerfBaseline {
    fn name(&self) -> &'static str {
        "DNNPerf"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let nodes = tape.constant_ref(&fg.node_feats);
        let edges = tape.constant_ref(&fg.edge_feats);
        let (h1, e1) = self.round1.forward(tape, &self.store, nodes, edges, &fg.edge_src, &fg.edge_dst);
        let (h2, _e2) = self.round2.forward(tape, &self.store, h1, e1, &fg.edge_src, &fg.edge_dst);
        let pooled = tape.mean_rows(h2);
        self.head.forward(tape, &self.store, pooled)
    }
}

// ------------------------------------------------------------ BRP-NAS

/// BRP-NAS: a four-layer GCN on operator one-hots and the adjacency
/// structure only (no tensor-size or runtime features), linear head.
pub struct BrpNasBaseline {
    store: ParamStore,
    layers: Vec<Linear>,
    head: Linear,
}

impl BrpNasBaseline {
    /// Creates the baseline with GCN width `hidden`.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut rng = SeededRng::new(seed);
        let mut store = ParamStore::new();
        let mut layers = Vec::new();
        let mut in_dim = OpKind::COUNT;
        for i in 0..4 {
            layers.push(Linear::new(&mut store, &format!("gcn{i}"), in_dim, hidden, &mut rng));
            in_dim = hidden;
        }
        let head = Linear::new(&mut store, "head", hidden, 1, &mut rng);
        Self { store, layers, head }
    }

    /// Symmetric-normalized adjacency `D^-1/2 (A + I) D^-1/2`.
    fn normalized_adjacency(fg: &FeaturizedGraph) -> Matrix {
        let n = fg.num_nodes();
        let mut a = Matrix::eye(n);
        for (&s, &d) in fg.edge_src.iter().zip(fg.edge_dst.iter()) {
            a.set(s, d, 1.0);
            a.set(d, s, 1.0);
        }
        let deg: Vec<f32> = (0..n)
            .map(|i| (0..n).map(|j| a.get(i, j)).sum::<f32>().max(1.0))
            .collect();
        for i in 0..n {
            for j in 0..n {
                let v = a.get(i, j);
                if v != 0.0 {
                    a.set(i, j, v / (deg[i] * deg[j]).sqrt());
                }
            }
        }
        a
    }
}

impl OccuPredictor for BrpNasBaseline {
    fn name(&self) -> &'static str {
        "BRP-NAS"
    }
    fn store(&self) -> &ParamStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
    fn forward(&self, tape: &mut Tape, fg: &FeaturizedGraph) -> Var {
        let nodes = tape.constant_ref(&fg.node_feats);
        // Structure focus: only the operator-type one-hot block.
        let mut h = tape.slice_cols(nodes, 0, OpKind::COUNT);
        let a_hat = tape.constant(Self::normalized_adjacency(fg));
        for layer in &self.layers {
            let mixed = tape.matmul(a_hat, h);
            let lin = layer.forward(tape, &self.store, mixed);
            h = tape.relu(lin);
        }
        let pooled = tape.mean_rows(h);
        self.head.forward(tape, &self.store, pooled)
    }
}

/// Constructs the full §IV-D baseline suite with one embedding width.
pub fn all_baselines(hidden: usize, seed: u64) -> Vec<Box<dyn OccuPredictor>> {
    vec![
        Box::new(MlpBaseline::new(seed)),
        Box::new(LstmBaseline::new(hidden, seed + 1)),
        Box::new(TransformerBaseline::new(hidden, seed + 2)),
        Box::new(DnnPerfBaseline::new(hidden, seed + 3)),
        Box::new(BrpNasBaseline::new(hidden, seed + 4)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{make_sample, Dataset};
    use crate::train::{TrainConfig, Trainer};
    use occu_gpusim::DeviceSpec;
    use occu_models::{ModelConfig, ModelId};

    fn sample() -> crate::dataset::Sample {
        make_sample(
            ModelId::LeNet,
            ModelConfig { batch_size: 8, ..Default::default() },
            &DeviceSpec::a100(),
        )
    }

    #[test]
    fn every_baseline_produces_scalar() {
        let s = sample();
        for model in all_baselines(16, 1) {
            let mut tape = Tape::new();
            let y = model.forward(&mut tape, &s.features);
            assert_eq!(tape.shape(y), (1, 1), "{}", model.name());
            assert!(tape.value(y).get(0, 0).is_finite(), "{}", model.name());
        }
    }

    #[test]
    fn bounded_heads_stay_in_unit_interval() {
        let s = sample();
        for model in [
            Box::new(MlpBaseline::new(2)) as Box<dyn OccuPredictor>,
            Box::new(LstmBaseline::new(16, 2)),
            Box::new(TransformerBaseline::new(16, 2)),
        ] {
            let v = model.predict(&s.features);
            assert!((0.0..=1.0).contains(&v), "{}: {v}", model.name());
        }
    }

    #[test]
    fn baselines_are_trainable() {
        let dev = DeviceSpec::a100();
        let data = Dataset {
            samples: vec![
                make_sample(ModelId::LeNet, ModelConfig { batch_size: 8, ..Default::default() }, &dev),
                make_sample(ModelId::LeNet, ModelConfig { batch_size: 96, ..Default::default() }, &dev),
            ],
        };
        let trainer = Trainer::new(TrainConfig { epochs: 6, lr: 5e-3, batch_size: 2, ..Default::default() });
        for mut model in all_baselines(16, 3) {
            let hist = trainer.fit(model.as_mut(), &data).unwrap();
            let first = hist.first().unwrap().train_loss;
            let last = hist.last().unwrap().train_loss;
            assert!(
                last <= first * 1.5,
                "{} diverged: {first} -> {last}",
                model.name()
            );
        }
    }

    #[test]
    fn subsample_respects_cap_and_order() {
        let long: Vec<usize> = (0..500).collect();
        let s = subsample(&long, 96);
        assert_eq!(s.len(), 96);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "order preserved");
        let short: Vec<usize> = (0..10).collect();
        assert_eq!(subsample(&short, 96), short);
    }

    #[test]
    fn normalized_adjacency_is_symmetric_stochasticish() {
        let s = sample();
        let a = BrpNasBaseline::normalized_adjacency(&s.features);
        let n = a.rows();
        for i in 0..n {
            assert!(a.get(i, i) > 0.0, "self-loop present");
            for j in 0..n {
                assert!((a.get(i, j) - a.get(j, i)).abs() < 1e-6);
                assert!(a.get(i, j) >= 0.0 && a.get(i, j) <= 1.0);
            }
        }
    }

    #[test]
    fn brp_nas_ignores_runtime_features() {
        // Device-only feature changes must not move BRP-NAS output.
        let model = BrpNasBaseline::new(16, 4);
        let cfg = ModelConfig { batch_size: 8, ..Default::default() };
        let s1 = make_sample(ModelId::LeNet, cfg, &DeviceSpec::a100());
        let s2 = make_sample(ModelId::LeNet, cfg, &DeviceSpec::p40());
        let p1 = model.predict(&s1.features);
        let p2 = model.predict(&s2.features);
        assert!((p1 - p2).abs() < 1e-6, "structure-only model must be device-blind");
    }
}
