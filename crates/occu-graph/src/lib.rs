//! # occu-graph
//!
//! The computation-graph intermediate representation used throughout
//! the DNN-occu reproduction. This is the stand-in for the paper's
//! ONNX export path (§III-B workflow stage 1): a deep-learning model
//! is a directed acyclic graph whose nodes are tensor operators and
//! whose edges carry tensors between them.
//!
//! The IR provides exactly what the downstream stages consume:
//!
//! * [`OpKind`] — a closed set of >50 operator types (the paper's
//!   dataset spans >30), each with a stable index for one-hot feature
//!   encoding.
//! * [`shape`] — shape inference so node input/output tensor sizes
//!   (Table I features) are derived, not hand-entered.
//! * FLOPs accounting per operator following §III-C (e.g. `Conv2d`
//!   FLOPs = `2·K·C·R·S·N·P·Q`).
//! * [`CompGraph`] — DAG construction, validation, topological order,
//!   degrees and FLOP totals; serializable with serde for dataset
//!   caching.

#![warn(clippy::unwrap_used)]

pub mod fingerprint;
pub mod graph;
pub mod op;
pub mod shape;
pub mod training;

pub use fingerprint::GraphFingerprint;
pub use graph::{CompGraph, Edge, EdgeKind, GraphBuilder, GraphMeta, ModelFamily, Node, NodeId};
pub use op::{op_flops, OpCategory, OpKind};
pub use shape::{conv_out_dim, infer_output_shape, Hyper, TensorShape};
pub use training::to_training_graph;
