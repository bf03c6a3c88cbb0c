//! # occu-tensor
//!
//! Dense, row-major `f32` matrix kernels used by the rest of the
//! DNN-occu reproduction. The crate deliberately exposes a small,
//! allocation-conscious surface:
//!
//! * [`Matrix`] — the only data type; a 2-D dense array.
//! * Blocked, cache-friendly matrix multiplication
//!   ([`Matrix::matmul`], [`Matrix::matmul_transb`],
//!   [`Matrix::matmul_transa`]) that runs on the calling thread:
//!   callers parallelize across requests or training samples, never
//!   inside one product.
//! * Elementwise and row-wise primitives (softmax, GELU and its
//!   gradient, sigmoid and tanh on one polynomial exp, layer-norm
//!   statistics, reductions)
//!   needed by the neural-network layers in `occu-nn` and by
//!   `occu-plan`'s compiled plans.
//! * Runtime CPU-feature dispatch ([`active_isa`], [`dispatch_counts`])
//!   selecting explicit AVX2/AVX-512 micro-kernels for the GEMM inner
//!   loop and the fused row primitives, with `OCCU_FORCE_SCALAR=1`
//!   pinning the bitwise scalar oracle.
//!
//! Everything is pure CPU code; determinism is preserved by using
//! explicitly seeded RNGs ([`Matrix::randn`]) so that experiments in
//! the paper reproduction are repeatable bit-for-bit on one machine.

mod arena;
mod attention;
mod dispatch;
mod gemm;
mod matrix;
mod ops;
mod quant;
mod random;
mod simd;

pub use attention::{attention_backward_into, attention_into};
pub use arena::{
    arena_total_allocated_bytes, arena_total_fresh_allocs, arena_total_takes, ScratchArena,
};
pub use dispatch::{
    active_isa, dispatch_counts, quant_dispatch_counts, quant_isa, DispatchCounts,
    Isa, QuantDispatchCounts, QuantIsa,
};
pub use gemm::{use_blocked, PackedB, BLOCKED_MIN_MULADDS, KC, MC, MR, NC, NR};
pub use matrix::Matrix;
pub use ops::{add_into, axpy_into, softmax_in_place};
pub use quant::{
    matmul_i8_into, matmul_i8_into_isa, PackedI8, QuantizedMatrix, QMAX_A, QMAX_W,
};
pub use random::{xavier_uniform, he_normal, SeededRng};

/// Numerical tolerance used across the workspace for float comparisons
/// in tests and gradient checks.
pub const EPS: f32 = 1e-5;

/// Asserts that two matrices are elementwise close within `tol`.
///
/// Intended for tests; panics with a descriptive message on mismatch.
pub fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch: {:?} vs {:?}", a.shape(), b.shape());
    for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        let diff = (x - y).abs();
        let scale = 1.0_f32.max(x.abs()).max(y.abs());
        assert!(
            diff <= tol * scale,
            "element {} differs: {} vs {} (|diff|={}, tol={})",
            i, x, y, diff, tol
        );
    }
}
