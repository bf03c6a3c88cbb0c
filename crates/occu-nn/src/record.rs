//! The operations a model forward pass is written in.
//!
//! Every layer's forward pass is generic over [`Recorder`], so the
//! network is defined once and recorded two ways: eagerly on a
//! [`crate::Tape`] (values plus autodiff, for training and as the test
//! oracle) or as plan instructions by `occu-plan`'s `ProgramBuilder`
//! (shape-specialized inference): one tape node and one instruction
//! per call, each running the same `occu-tensor` kernel (multi-head
//! [`Recorder::attention`] included). Agreement between the two comes
//! from sharing this code, not from a hand-kept mirror.

use crate::layers::Activation;
use crate::params::{ParamId, ParamStore};

/// A sink for forward-pass operations. `V` is a handle to a recorded
/// value; `Idx` names a per-graph index array (gather/scatter rows);
/// `Spd` names a graph's shortest-path bucket map.
pub trait Recorder {
    /// Handle to a recorded value.
    type V: Copy;
    /// Handle to an index array.
    type Idx<'a>: Copy;
    /// Handle to an `n x n` row-major shortest-path bucket map.
    type Spd<'a>: Copy;

    /// `(rows, cols)` of a recorded value.
    fn shape(&self, x: Self::V) -> (usize, usize);
    /// A trainable parameter's current value.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Self::V;
    /// Affine layer `x W (+ b)`.
    fn linear(&mut self, store: &ParamStore, w: ParamId, b: Option<ParamId>, x: Self::V) -> Self::V;
    /// Row-wise `layernorm(x) * gamma + beta`.
    fn layer_norm(&mut self, store: &ParamStore, gamma: ParamId, beta: ParamId, x: Self::V) -> Self::V;
    /// Pointwise nonlinearity ([`Activation::None`] records nothing).
    fn activation(&mut self, act: Activation, x: Self::V) -> Self::V;
    /// Elementwise sum.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// `y[i][j] = x[i][j] * col[i][0]`: gates each row of `x` by the
    /// matching entry of a `rows x 1` column.
    fn mul_col_broadcast(&mut self, x: Self::V, col: Self::V) -> Self::V;
    /// Matrix product.
    fn matmul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Numerically stable softmax over each row.
    fn softmax_rows(&mut self, x: Self::V) -> Self::V;
    /// Multi-head scaled dot-product attention of queries `q` over
    /// keys `k` and values `v` (all `dim` wide, split into `heads`
    /// column blocks): per head, `softmax(q_h k_h^T * scale + bias)
    /// v_h`, with the optional `n x m` `bias` shared by every head, and
    /// the heads' outputs side by side in column order.
    fn attention(&mut self, q: Self::V, k: Self::V, v: Self::V, heads: usize, scale: f32, bias: Option<Self::V>) -> Self::V;
    /// Column-wise mean, producing a `1 x cols` row.
    fn mean_rows(&mut self, x: Self::V) -> Self::V;
    /// Horizontal concatenation `[a | b]`.
    fn hcat(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// `y[i] = x[idx[i]]`.
    fn gather_rows(&mut self, x: Self::V, idx: Self::Idx<'_>) -> Self::V;
    /// `y[idx[i]] += x[i]` into `out_rows` zeroed rows — the GNN
    /// message-aggregation primitive.
    fn scatter_add_rows(&mut self, x: Self::V, idx: Self::Idx<'_>, out_rows: usize) -> Self::V;
    /// Shortest-path attention bias `y[i][j] = thetas[spd[i * n + j]]`,
    /// one learnable `1 x 1` parameter per bucket; each theta's
    /// gradient is the sum of the incoming gradient over its bucket.
    fn spd_bias(&mut self, store: &ParamStore, thetas: &[ParamId], spd: Self::Spd<'_>) -> Self::V;
}
