//! Neural layers built from [`Recorder`] operations.
//!
//! Layers own no matrices — only [`ParamId`] handles into a
//! [`ParamStore`] — so a model is (layer structs + store), and the
//! store alone is what gets serialized. Each forward pass is generic
//! over the recorder, so the same code records a tape for training
//! and a plan for inference.

use crate::params::{ParamId, ParamStore};
use crate::record::Recorder;
use crate::tape::{Tape, Var};
use occu_tensor::{Matrix, SeededRng};

/// Pointwise nonlinearity selector used by [`Mlp`] and [`FeedForward`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// Identity.
    None,
    /// max(0, x)
    Relu,
    /// LeakyReLU with the given negative slope.
    LeakyRelu(f32),
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// Affine layer `y = x W + b` mapping `n x in` to `n x out`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer with bias.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        let w = store.register_xavier(format!("{name}.w"), in_dim, out_dim, rng);
        let b = Some(store.register_zeros(format!("{name}.b"), 1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// Creates a linear layer without bias (used where the paper's
    /// equations are pure matrix products, e.g. ANEE's `W_u`, `W_e`).
    pub fn new_no_bias(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        let w = store.register_xavier(format!("{name}.w"), in_dim, out_dim, rng);
        Self { w, b: None, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Records `x W (+ b)`.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V) -> R::V {
        assert_eq!(
            r.shape(x).1,
            self.in_dim,
            "Linear::forward: input width {} != layer in_dim {}",
            r.shape(x).1, self.in_dim
        );
        r.linear(store, self.w, self.b, x)
    }
}

/// Row-wise layer normalization with learnable gain and bias.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    dim: usize,
}

impl LayerNorm {
    /// Creates a LayerNorm over feature width `dim` (gamma=1, beta=0).
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.register(format!("{name}.gamma"), Matrix::ones(1, dim));
        let beta = store.register_zeros(format!("{name}.beta"), 1, dim);
        Self { gamma, beta, dim }
    }

    /// Normalized feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Records `LN(x) * gamma + beta` as one fused op.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V) -> R::V {
        assert_eq!(r.shape(x).1, self.dim, "LayerNorm::forward: width mismatch");
        r.layer_norm(store, self.gamma, self.beta, x)
    }
}

/// Transformer feed-forward block: `Linear -> activation -> Linear`.
#[derive(Clone, Debug)]
pub struct FeedForward {
    l1: Linear,
    l2: Linear,
    act: Activation,
}

impl FeedForward {
    /// Creates an FFN `dim -> hidden -> dim`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, hidden: usize, act: Activation, rng: &mut SeededRng) -> Self {
        Self {
            l1: Linear::new(store, &format!("{name}.ff1"), dim, hidden, rng),
            l2: Linear::new(store, &format!("{name}.ff2"), hidden, dim, rng),
            act,
        }
    }

    /// Records the block.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V) -> R::V {
        let h = self.l1.forward(r, store, x);
        let h = r.activation(self.act, h);
        self.l2.forward(r, store, h)
    }
}

/// Multi-head scaled dot-product attention.
///
/// Supports cross-attention `MHA(X, Y, Y)` (queries from `X`, keys and
/// values from `Y`) as required by the Set Transformer's MAB
/// (§III-D), plus an optional additive attention bias shared across
/// heads — the hook used by the Graphormer layer's structural
/// (shortest-path) encoding. Between the Q/K/V projections and the
/// output projection, all heads are one [`Recorder::attention`] call:
/// one fused-kernel node on the tape (a fused backward included) and
/// one instruction in a plan.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an MHA block over model width `dim` with `heads` heads.
    ///
    /// # Panics
    /// If `dim` is not divisible by `heads`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, heads: usize, rng: &mut SeededRng) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "MHA: dim {} must divide into {} heads", dim, heads);
        Self {
            wq: Linear::new(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            dim,
            head_dim: dim / heads,
        }
    }

    /// Self-attention: `MHA(x, x, x)`.
    pub fn forward_self<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V) -> R::V {
        self.forward(r, store, x, x, None)
    }

    /// Cross-attention with an optional additive `n x m` score bias.
    pub fn forward<R: Recorder>(
        &self,
        r: &mut R,
        store: &ParamStore,
        x: R::V,
        y: R::V,
        attn_bias: Option<R::V>,
    ) -> R::V {
        assert_eq!(r.shape(x).1, self.dim, "MHA: query width mismatch");
        assert_eq!(r.shape(y).1, self.dim, "MHA: key/value width mismatch");
        let q = self.wq.forward(r, store, x);
        let k = self.wk.forward(r, store, y);
        let v = self.wv.forward(r, store, y);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let concat = r.attention(q, k, v, self.heads, scale, attn_bias);
        self.wo.forward(r, store, concat)
    }
}

/// A plain multilayer perceptron (the paper's MLP baseline and the
/// final DNN-occu prediction head).
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `[80, 512,
    /// 512, 256, 1]` builds four affine layers (matching §IV-D's MLP
    /// baseline plus a scalar head).
    ///
    /// # Panics
    /// If fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        widths: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(widths.len() >= 2, "Mlp: need at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.l{i}"), w[0], w[1], rng))
            .collect();
        Self { layers, hidden_act, output_act }
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Records the full MLP.
    pub fn forward<R: Recorder>(&self, r: &mut R, store: &ParamStore, x: R::V) -> R::V {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(r, store, h);
            let act = if i == last { self.output_act } else { self.hidden_act };
            h = r.activation(act, h);
        }
        h
    }
}

/// A single LSTM cell with fused gate weights (the LSTM baseline of
/// §IV-D processes node-feature sequences through two of these).
#[derive(Clone, Debug)]
pub struct LstmCell {
    /// `in_dim x 4*hidden` input-to-gates weights, gate order i,f,g,o.
    w_x: ParamId,
    /// `hidden x 4*hidden` hidden-to-gates weights.
    w_h: ParamId,
    /// `1 x 4*hidden` bias.
    b: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl LstmCell {
    /// Creates an LSTM cell. The forget-gate bias is initialized to 1,
    /// the standard trick for gradient flow early in training.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, hidden: usize, rng: &mut SeededRng) -> Self {
        let w_x = store.register_xavier(format!("{name}.w_x"), in_dim, 4 * hidden, rng);
        let w_h = store.register_xavier(format!("{name}.w_h"), hidden, 4 * hidden, rng);
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = store.register(format!("{name}.b"), bias);
        Self { w_x, w_h, b, in_dim, hidden }
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Fresh zero state for a batch of `batch` sequences.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> (Var, Var) {
        let h = tape.constant_zeros(batch, self.hidden);
        let c = tape.constant_zeros(batch, self.hidden);
        (h, c)
    }

    /// One time step: consumes `x` (`batch x in_dim`) and state, returns
    /// the next `(h, c)`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var, c: Var) -> (Var, Var) {
        assert_eq!(tape.shape(x).1, self.in_dim, "LstmCell::step: input width mismatch");
        let wx = tape.param(store, self.w_x);
        let wh = tape.param(store, self.w_h);
        let b = tape.param(store, self.b);
        let gx = tape.matmul(x, wx);
        let gh = tape.matmul(h, wh);
        let gates = tape.add(gx, gh);
        let gates = tape.add_row_broadcast(gates, b);
        let hsz = self.hidden;
        let i_g = tape.slice_cols(gates, 0, hsz);
        let f_g = tape.slice_cols(gates, hsz, 2 * hsz);
        let g_g = tape.slice_cols(gates, 2 * hsz, 3 * hsz);
        let o_g = tape.slice_cols(gates, 3 * hsz, 4 * hsz);
        let i_s = tape.sigmoid(i_g);
        let f_s = tape.sigmoid(f_g);
        let g_t = tape.tanh(g_g);
        let o_s = tape.sigmoid(o_g);
        let fc = tape.mul(f_s, c);
        let ig = tape.mul(i_s, g_t);
        let c_next = tape.add(fc, ig);
        let c_tanh = tape.tanh(c_next);
        let h_next = tape.mul(o_s, c_tanh);
        (h_next, c_next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ParamStore, SeededRng) {
        (ParamStore::new(), SeededRng::new(42))
    }

    #[test]
    fn linear_shapes_and_bias() {
        let (mut store, mut rng) = setup();
        let l = Linear::new(&mut store, "l", 4, 3, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 4));
        let y = l.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 3));
        // Zero input => output equals bias (zeros at init).
        assert_eq!(tape.value(y).sum(), 0.0);
    }

    #[test]
    fn layer_norm_affine_identity_at_init() {
        let (mut store, _) = setup();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, 4, vec![2.0, 4.0, 6.0, 8.0]));
        let y = ln.forward(&mut tape, &store, x);
        // gamma=1, beta=0 => plain normalization: mean 0.
        let mean: f32 = tape.value(y).row(0).iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn mha_self_attention_shape_preserving() {
        let (mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "mha", 8, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::randn(5, 8, 1.0, &mut rng));
        let y = mha.forward_self(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 8));
    }

    #[test]
    fn mha_cross_attention_uses_query_rows() {
        let (mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "mha", 8, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::randn(3, 8, 1.0, &mut rng)); // 3 queries
        let y = tape.constant(Matrix::randn(7, 8, 1.0, &mut rng)); // 7 keys/values
        let out = mha.forward(&mut tape, &store, x, y, None);
        assert_eq!(tape.shape(out), (3, 8));
    }

    #[test]
    fn mha_bias_shifts_attention() {
        let (mut store, mut rng) = setup();
        let mha = MultiHeadAttention::new(&mut store, "mha", 4, 1, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::randn(2, 4, 1.0, &mut rng));
        let no_bias = mha.forward(&mut tape, &store, x, x, None);
        // A huge negative bias on column 1 forces attention to key 0.
        let bias = tape.constant(Matrix::from_vec(2, 2, vec![0.0, -1e9, 0.0, -1e9]));
        let with_bias = mha.forward(&mut tape, &store, x, x, Some(bias));
        assert_ne!(tape.value(no_bias), tape.value(with_bias));
    }

    #[test]
    fn mlp_paper_baseline_dims() {
        // §IV-D: MLP baseline uses four layers 80, 512, 512, 256.
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(
            &mut store,
            "mlp",
            &[80, 512, 512, 256, 1],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 80);
        assert_eq!(mlp.out_dim(), 1);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::randn(2, 80, 1.0, &mut rng));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (2, 1));
        // Sigmoid output stays in (0, 1) — occupancy range.
        assert!(tape.value(y).data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn lstm_step_shapes_and_state_evolution() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, "lstm", 6, 10, &mut rng);
        let mut tape = Tape::new();
        let (h0, c0) = cell.zero_state(&mut tape, 3);
        let x = tape.constant(Matrix::randn(3, 6, 1.0, &mut rng));
        let (h1, c1) = cell.step(&mut tape, &store, x, h0, c0);
        assert_eq!(tape.shape(h1), (3, 10));
        assert_eq!(tape.shape(c1), (3, 10));
        // Non-zero input must move the state.
        assert!(tape.value(h1).norm() > 0.0);
        let (h2, _) = cell.step(&mut tape, &store, x, h1, c1);
        assert_ne!(tape.value(h1), tape.value(h2));
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step on a fixed input must reduce the loss —
        // the minimal end-to-end check that forward+backward agree.
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(&mut store, "m", &[3, 8, 1], Activation::Tanh, Activation::None, &mut rng);
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let t = Matrix::from_vec(4, 1, vec![0.5, -0.5, 0.25, 0.0]);

        let loss_of = |store: &ParamStore| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let tv = tape.constant(t.clone());
            let y = mlp.forward(&mut tape, store, xv);
            let l = tape.mse_loss(y, tv);
            (tape, l)
        };

        let (tape, l) = loss_of(&store);
        let before = tape.value(l).get(0, 0);
        let mut grads = crate::GradBuffer::for_store(&store);
        tape.backward_into(l, &store, &mut grads);
        // Manual SGD step.
        let lr = 0.05;
        for id in store.ids() {
            store.value_mut(id).add_scaled_assign(grads.grad(id), -lr);
        }
        let (tape2, l2) = loss_of(&store);
        let after = tape2.value(l2).get(0, 0);
        assert!(after < before, "loss should drop: {before} -> {after}");
    }
}
