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
//! * [`ParamStore`] owns every trainable parameter's value. Layers
//!   hold [`ParamId`] handles, never matrices. Gradients live in a
//!   [`GradBuffer`] shaped like the store, and [`Adam`] keeps its own
//!   moments; an [`Optimizer`] step applies a buffer and zeroes it.
//! * [`Recorder`] is the set of operations a model forward pass is
//!   written in. Layers are generic over it, so one definition of the
//!   network serves two recorders: [`Tape`] and `occu-plan`'s
//!   `ProgramBuilder`, which emits one shape-specialized inference
//!   instruction per call.
//! * [`Tape`] records a fresh computation graph per forward pass,
//!   computing every value eagerly and keeping [`Var`] handles;
//!   [`Tape::backward_into`] walks the tape in reverse and adds the
//!   parameter gradients into a [`GradBuffer`], reading the store only. Ops only training or
//!   the baselines need (losses, `sub`, `tanh`, row broadcasts) are
//!   inherent `Tape` methods.
//! * [`layers`] builds Linear / LayerNorm / multi-head attention /
//!   feed-forward / MLP blocks from those operations — everything
//!   needed for the ANEE layer, Graphormer layer, and Set Transformer
//!   decoder implemented in `occu-core` — plus the tape-only LSTM cell
//!   of the sequence baseline.
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
pub mod record;
pub mod tape;

pub use layers::{Activation, FeedForward, LayerNorm, Linear, LstmCell, Mlp, MultiHeadAttention};
pub use optim::{Adam, AdamConfig, AdamUpdate, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use record::Recorder;
pub use tape::{GradBuffer, Tape, Var};
