//! # occu-nn
//!
//! A self-contained neural-network substrate: tape-based reverse-mode
//! automatic differentiation over [`occu_tensor::Matrix`] values, the
//! layers required by the DNN-occu predictor of the paper (§III-D) and
//! its baselines, and an Adam optimizer (§V uses Adam with default
//! hyperparameters).
//!
//! ## Architecture
//!
//! * [`ParamStore`] owns every trainable parameter (value, gradient,
//!   Adam moments). Layers hold [`ParamId`] handles, never matrices.
//! * [`Tape`] records a fresh computation graph per forward pass.
//!   Operations are methods on `Tape` that take and return [`Var`]
//!   handles; [`Tape::backward`] walks the tape in reverse and
//!   accumulates parameter gradients back into the store.
//! * [`layers`] builds Linear / LayerNorm / multi-head attention /
//!   feed-forward / LSTM blocks from those primitives — everything
//!   needed for the ANEE layer, Graphormer layer, and Set Transformer
//!   decoder implemented in `occu-core`.
//!
//! The design favours clarity and determinism over peak throughput:
//! graphs in the dataset have at most a few thousand nodes, and the
//! heavy lifting (matmuls) is delegated to the single-threaded blocked
//! kernels in `occu-tensor`; parallelism happens across samples, in
//! the trainer, not inside a product.

pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;

pub use layers::{Activation, Dropout, FeedForward, GruCell, LayerNorm, Linear, LstmCell, Mlp, MultiHeadAttention};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use tape::{GradBuffer, Tape, Var};
