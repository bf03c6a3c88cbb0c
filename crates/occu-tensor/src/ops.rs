//! Arithmetic, reductions, and the GEMM entry points.
//!
//! The three matmul variants dispatch between a streaming loop (small
//! products, where packing overhead dominates) and the cache-blocked
//! packed kernel in [`crate::gemm`] (everything else); both run on the
//! calling thread. Both paths, and the `naive_*` oracles kept for
//! benchmarking and equivalence tests, accumulate every output element
//! in ascending-`k` order through a single chain, so all of them
//! produce bit-identical results.
//!
//! # SIMD dispatch and the lane-sum contract
//!
//! The fused row-wise primitives (`add_bias_rowwise`, `axpy`,
//! `softmax_rows_into`, `layernorm_rows_into`) and the blocked GEMM
//! route through the runtime [`crate::dispatch`] table: explicit AVX2
//! kernels from [`crate::simd`] where the CPU has them, the scalar
//! code below otherwise, with `OCCU_FORCE_SCALAR=1` pinning the
//! scalar oracle. To keep the two paths bitwise-equal, every row
//! reduction uses the same *lane-structured* summation on both sides:
//! eight partial sums where lane `j` accumulates elements
//! `j, j+8, j+16, ...`, combined by the fixed [`combine_lanes`] tree.
//! The scalar code spells that structure out by hand; the AVX2 code
//! holds the eight lanes in one register. Elementwise passes map one
//! scalar op to one SIMD lane, so they are trivially identical.
//!
//! Softmax, GELU and its gradient, sigmoid and tanh share one
//! polynomial exp ([`exp_scalar`] and its AVX2 lanes): libm's `expf`
//! has no vector twin, so a transcendental per element would otherwise
//! be a scalar call on every rung.

use crate::dispatch::{self, Isa};
use crate::gemm::{self, View};
use crate::Matrix;

/// Fixed pairwise tree that folds the eight lane partials into one
/// value. Every reduction — scalar or SIMD — funnels through this
/// exact expression, which is what makes the paths bitwise-equal.
#[inline]
pub(crate) fn combine_lanes(l: &[f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Lane-structured sum (see the module docs): the scalar side of the
/// contract shared with `simd::x86::lane_sum_avx2`.
#[inline]
fn lane_sum_scalar(xs: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut it = xs.chunks_exact(8);
    for c in &mut it {
        for (lane, &x) in lanes.iter_mut().zip(c.iter()) {
            *lane += x;
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(it.remainder().iter()) {
        *lane += x;
    }
    combine_lanes(&lanes)
}

/// Lane-structured `sum((x - mean)^2)`; scalar side of
/// `simd::x86::lane_sumsq_dev_avx2`.
#[inline]
fn lane_sumsq_dev_scalar(xs: &[f32], mean: f32) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut it = xs.chunks_exact(8);
    for c in &mut it {
        for (lane, &x) in lanes.iter_mut().zip(c.iter()) {
            let d = x - mean;
            *lane += d * d;
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(it.remainder().iter()) {
        let d = x - mean;
        *lane += d * d;
    }
    combine_lanes(&lanes)
}

/// The ISA the row-wise primitives run on.
#[inline]
pub(crate) fn rowwise_isa() -> Isa {
    match dispatch::active_isa() {
        // AVX-512 hosts also run the row passes on the AVX2 code: the
        // fused row primitives are memory-bound, so wider lanes buy
        // little there (only the GEMM micro-kernel is 512-bit); the
        // exp-based passes keep one 8-lane twin of the scalar code.
        Isa::Avx2 | Isa::Avx512 => Isa::Avx2,
        Isa::Scalar => Isa::Scalar,
    }
}

/// `dst[i] += src[i]` through the dispatched kernel. Free-function
/// form so `occu-nn`'s tape can route gradient row accumulations
/// through the same SIMD path the matrix methods use.
pub fn add_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_into: length mismatch");
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    add_slice(dst, src, isa);
}

/// `dst[i] += src[i]` on an already-resolved ISA.
#[inline]
pub(crate) fn add_slice(dst: &mut [f32], src: &[f32], isa: Isa) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `rowwise_isa` returns Avx2 only after runtime
        // feature detection succeeded.
        Isa::Avx2 => unsafe { crate::simd::x86::add_slices_avx2(dst, src) },
        _ => {
            for (a, b) in dst.iter_mut().zip(src.iter()) {
                *a += *b;
            }
        }
    }
}

/// `dst[i] += s * src[i]` (axpy) through the dispatched kernel; the
/// SIMD lane performs the same mul-then-add as the scalar loop, so
/// both paths are bitwise-equal.
pub fn axpy_into(dst: &mut [f32], s: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy_into: length mismatch");
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe { crate::simd::x86::axpy_avx2(dst, s, src) },
        _ => {
            for (a, b) in dst.iter_mut().zip(src.iter()) {
                *a += s * *b;
            }
        }
    }
}

impl Matrix {
    /// Elementwise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Elementwise quotient (`other` must be zero-free; debug builds
    /// assert this).
    pub fn div(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| {
            debug_assert!(b != 0.0, "div: zero divisor");
            a / b
        })
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Matrix {
        assert!(lo <= hi, "clamp: lo > hi");
        self.map(|x| x.clamp(lo, hi))
    }

    /// In-place `self += other`, through the dispatched SIMD kernel.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        add_into(self.data_mut(), other.data());
    }

    /// In-place `self += s * other` (axpy), through the dispatched
    /// SIMD kernel.
    pub fn add_scaled_assign(&mut self, other: &Matrix, s: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign: shape mismatch");
        axpy_into(self.data_mut(), s, other.data());
    }

    /// In-place `self += s * other` under its BLAS name.
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        self.add_scaled_assign(other, s);
    }

    /// Adds a 1 x cols row vector to every row (broadcast add).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_bias_rowwise(row);
        out
    }

    /// In-place broadcast add of a 1 x cols bias row to every row —
    /// the fused form of `add_row_broadcast` that materializes no
    /// intermediate. Rows go through the dispatched SIMD add.
    pub fn add_bias_rowwise(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows(), 1, "add_bias_rowwise: expected row vector");
        assert_eq!(bias.cols(), self.cols(), "add_bias_rowwise: width mismatch");
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        for r in 0..self.rows() {
            match isa {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: Avx2 implies runtime detection succeeded.
                Isa::Avx2 => unsafe {
                    crate::simd::x86::add_slices_avx2(self.row_mut(r), bias.row(0))
                },
                _ => {
                    for (a, b) in self.row_mut(r).iter_mut().zip(bias.row(0).iter()) {
                        *a += *b;
                    }
                }
            }
        }
    }

    /// Matrix product `self * other`.
    ///
    /// Small products take a streaming i-k-j loop; larger ones route
    /// through the cache-blocked packed kernel; both run on the calling
    /// thread. All paths accumulate each output element in
    /// ascending-`k` order, so the result is bit-identical regardless
    /// of the path.
    ///
    /// # Panics
    /// If `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// `matmul` writing into a caller-provided (e.g. arena-recycled)
    /// output matrix, which must already have shape
    /// `self.rows() x other.cols()`. Previous contents are discarded.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_isa(other, out, dispatch::active_isa());
    }

    /// `matmul_into` with the blocked kernel's ISA pinned instead of
    /// taken from the runtime dispatch table. Bench/test hook: lets
    /// the speed floors time the scalar oracle and the SIMD kernel in
    /// one process, and lets the proptests compare them bitwise. An
    /// ISA the host lacks degrades to scalar.
    pub fn matmul_into_isa(&self, other: &Matrix, out: &mut Matrix, isa: Isa) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(), self.cols(), other.rows(), other.cols()
        );
        let (m, k) = self.shape();
        let n = other.cols();
        assert_eq!(out.shape(), (m, n), "matmul_into: bad output shape");
        out.data_mut().fill(0.0);
        if gemm::use_blocked(m, k, n) {
            let sel = gemm::micro_kernel_for(isa);
            dispatch::note_dispatch(sel.isa);
            gemm::gemm_into(
                View::normal(self.data(), k),
                View::normal(other.data(), n),
                m, k, n,
                out.data_mut(),
                sel,
            );
        } else {
            dispatch::note_dispatch(Isa::Scalar);
            for r in 0..m {
                let a_row = self.row(r);
                let out_row = &mut out.data_mut()[r * n..(r + 1) * n];
                for (kk, &a) in a_row.iter().enumerate() {
                    let b_row = &other.data()[kk * n..kk * n + n];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Packs `self` once as the `B` operand of future products (the
    /// `(jc, pc)` slab sequence the blocked kernel consumes, plus a
    /// raw copy for the streaming path). Compiled plans hold one per
    /// weight matrix; see [`Matrix::matmul_prepacked_into`].
    pub fn prepack_b(&self) -> gemm::PackedB {
        gemm::PackedB::pack(
            View::normal(self.data(), self.cols()),
            self.rows(),
            self.cols(),
            self.data().to_vec(),
        )
    }

    /// [`Matrix::matmul_into`] against a prepacked `B`: bit-identical
    /// output (same dispatch gate, same micro-kernels, same summation
    /// order), with the per-call `B` packing already paid for.
    pub fn matmul_prepacked_into(&self, packed: &gemm::PackedB, out: &mut Matrix) {
        self.matmul_prepacked_into_isa(packed, out, dispatch::active_isa());
    }

    /// `matmul_prepacked_into` with the kernel ISA pinned (bench/test
    /// hook; see [`Matrix::matmul_into_isa`]).
    pub fn matmul_prepacked_into_isa(
        &self,
        packed: &gemm::PackedB,
        out: &mut Matrix,
        isa: Isa,
    ) {
        let (kb, n) = packed.shape();
        assert_eq!(
            self.cols(),
            kb,
            "matmul_prepacked: inner dimensions differ ({}x{} * {}x{})",
            self.rows(), self.cols(), kb, n
        );
        let (m, k) = self.shape();
        assert_eq!(out.shape(), (m, n), "matmul_prepacked_into: bad output shape");
        out.data_mut().fill(0.0);
        if gemm::use_blocked(m, k, n) {
            let sel = gemm::micro_kernel_for(isa);
            dispatch::note_dispatch(sel.isa);
            gemm::gemm_prepacked_into(
                View::normal(self.data(), k),
                packed,
                m,
                out.data_mut(),
                sel,
            );
        } else {
            dispatch::note_dispatch(Isa::Scalar);
            for r in 0..m {
                let a_row = self.row(r);
                let out_row = &mut out.data_mut()[r * n..(r + 1) * n];
                for (kk, &a) in a_row.iter().enumerate() {
                    let b_row = &packed.raw[kk * n..kk * n + n];
                    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Computes `self * other^T` without materializing the transpose.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_transb_into(other, &mut out);
        out
    }

    /// `matmul_transb` writing into a caller-provided output matrix of
    /// shape `self.rows() x other.rows()`. Previous contents are
    /// discarded.
    pub fn matmul_transb_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transb_into_isa(other, out, dispatch::active_isa());
    }

    /// `matmul_transb_into` with the kernel ISA pinned (bench/test
    /// hook; see [`Matrix::matmul_into_isa`]).
    pub fn matmul_transb_into_isa(&self, other: &Matrix, out: &mut Matrix, isa: Isa) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_transb: inner dimensions differ ({}x{} * ({}x{})^T)",
            self.rows(), self.cols(), other.rows(), other.cols()
        );
        let m = self.rows();
        let k = self.cols();
        let n = other.rows();
        assert_eq!(out.shape(), (m, n), "matmul_transb_into: bad output shape");
        out.data_mut().fill(0.0);
        if gemm::use_blocked(m, k, n) {
            let sel = gemm::micro_kernel_for(isa);
            dispatch::note_dispatch(sel.isa);
            gemm::gemm_into(
                View::normal(self.data(), k),
                View::transposed(other.data(), k),
                m, k, n,
                out.data_mut(),
                sel,
            );
        } else {
            dispatch::note_dispatch(Isa::Scalar);
            for r in 0..m {
                let a_row = self.row(r);
                let out_row = &mut out.data_mut()[r * n..(r + 1) * n];
                for (c, o) in out_row.iter_mut().enumerate() {
                    *o = dot(a_row, other.row(c));
                }
            }
        }
    }

    /// Computes `self^T * other` without materializing the transpose.
    pub fn matmul_transa(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.matmul_transa_into(other, &mut out);
        out
    }

    /// `matmul_transa` writing into a caller-provided output matrix of
    /// shape `self.cols() x other.cols()`. Previous contents are
    /// discarded.
    pub fn matmul_transa_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_transa_into_isa(other, out, dispatch::active_isa());
    }

    /// `matmul_transa_into` with the kernel ISA pinned (bench/test
    /// hook; see [`Matrix::matmul_into_isa`]).
    pub fn matmul_transa_into_isa(&self, other: &Matrix, out: &mut Matrix, isa: Isa) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_transa: inner dimensions differ (({}x{})^T * {}x{})",
            self.rows(), self.cols(), other.rows(), other.cols()
        );
        let m = self.cols();
        let n = other.cols();
        let k = self.rows();
        assert_eq!(out.shape(), (m, n), "matmul_transa_into: bad output shape");
        out.data_mut().fill(0.0);
        if gemm::use_blocked(m, k, n) {
            let sel = gemm::micro_kernel_for(isa);
            dispatch::note_dispatch(sel.isa);
            gemm::gemm_into(
                View::transposed(self.data(), self.cols()),
                View::normal(other.data(), n),
                m, k, n,
                out.data_mut(),
                sel,
            );
        } else {
            dispatch::note_dispatch(Isa::Scalar);
            // out[i][j] = sum_k self[k][i] * other[k][j]; accumulate
            // row by row of the inputs so both reads stream. The k
            // loop is outermost, so each element still sums in
            // ascending-k order.
            for kk in 0..k {
                let a_row = self.row(kk);
                for (i, &a) in a_row.iter().enumerate() {
                    let out_row = &mut out.data_mut()[i * n..i * n + n];
                    for (o, &b) in out_row.iter_mut().zip(other.row(kk).iter()) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// Reference `self * other`: scalar i-j-k triple loop with strided
    /// column reads of `B`. Kept as the correctness oracle and the
    /// benchmark baseline for the blocked kernel; bit-identical to
    /// [`Matrix::matmul`] because both sum in ascending-`k` order.
    pub fn naive_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "naive_matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(), self.cols(), other.rows(), other.cols()
        );
        let mut out = Matrix::zeros(self.rows(), other.cols());
        for i in 0..self.rows() {
            for j in 0..other.cols() {
                let mut s = 0.0;
                for kk in 0..self.cols() {
                    s += self.get(i, kk) * other.get(kk, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    /// Reference `self * other^T` triple loop (oracle/baseline).
    pub fn naive_matmul_transb(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols(), other.cols(), "naive_matmul_transb: inner dimensions differ");
        let mut out = Matrix::zeros(self.rows(), other.rows());
        for i in 0..self.rows() {
            for j in 0..other.rows() {
                let mut s = 0.0;
                for kk in 0..self.cols() {
                    s += self.get(i, kk) * other.get(j, kk);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    /// Reference `self^T * other` triple loop (oracle/baseline).
    pub fn naive_matmul_transa(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows(), other.rows(), "naive_matmul_transa: inner dimensions differ");
        let mut out = Matrix::zeros(self.cols(), other.cols());
        for i in 0..self.cols() {
            for j in 0..other.cols() {
                let mut s = 0.0;
                for kk in 0..self.rows() {
                    s += self.get(kk, i) * other.get(kk, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sum, producing a 1 x cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        for r in 0..self.rows() {
            for (o, &x) in out.row_mut(0).iter_mut().zip(self.row(r).iter()) {
                *o += x;
            }
        }
        out
    }

    /// Column-wise mean, producing a 1 x cols row vector.
    pub fn mean_rows(&self) -> Matrix {
        assert!(self.rows() > 0, "mean_rows: empty matrix");
        self.sum_rows().scale(1.0 / self.rows() as f32)
    }

    /// Row-wise sum, producing an n x 1 column vector.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), 1);
        for r in 0..self.rows() {
            out.set(r, 0, self.row(r).iter().sum());
        }
        out
    }

    /// Row-wise mean, producing an n x 1 column vector.
    pub fn mean_cols(&self) -> Matrix {
        assert!(self.cols() > 0, "mean_cols: empty matrix");
        self.sum_cols().scale(1.0 / self.cols() as f32)
    }

    /// Maximum element (NaN-free input assumed); `-inf` for empty.
    pub fn max(&self) -> f32 {
        self.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` for empty.
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Numerically stable softmax applied independently to each row.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        for r in 0..out.rows() {
            softmax_row(out.row_mut(r), isa);
        }
        out
    }

    /// `softmax_rows` writing into a caller-provided output matrix of
    /// the same shape. Previous contents are discarded. The max
    /// reduction, the fused exp-and-sum pass (the shared polynomial
    /// exp, see [`exp_scalar`]) and the divide run on the dispatched
    /// SIMD kernel.
    pub fn softmax_rows_into(&self, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "softmax_rows_into: shape mismatch");
        out.data_mut().copy_from_slice(self.data());
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        for r in 0..out.rows() {
            softmax_row(out.row_mut(r), isa);
        }
    }

    /// Row-wise layer normalization: each row is centred on its mean
    /// and scaled by `1 / sqrt(var + eps)` (population variance), in
    /// one fused pass with no materialized mean/variance intermediates.
    pub fn layernorm_rows(&self, eps: f32) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols());
        self.layernorm_rows_into(eps, &mut out);
        out
    }

    /// `layernorm_rows` writing into a caller-provided output matrix
    /// of the same shape. Previous contents are discarded. The mean
    /// and variance reductions use the lane-structured sum (see the
    /// module docs) and the normalize pass is elementwise, so the
    /// scalar and SIMD paths agree bit for bit.
    pub fn layernorm_rows_into(&self, eps: f32, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "layernorm_rows_into: shape mismatch");
        let n = self.cols();
        if n == 0 {
            return;
        }
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        for r in 0..self.rows() {
            let x = self.row(r);
            match isa {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: Avx2 implies runtime detection succeeded.
                Isa::Avx2 => unsafe {
                    let mean = crate::simd::x86::lane_sum_avx2(x) / n as f32;
                    let var = crate::simd::x86::lane_sumsq_dev_avx2(x, mean) / n as f32;
                    let inv_std = 1.0 / (var + eps).sqrt();
                    crate::simd::x86::normalize_avx2(x, out.row_mut(r), mean, inv_std);
                },
                _ => {
                    let mean = lane_sum_scalar(x) / n as f32;
                    let var = lane_sumsq_dev_scalar(x, mean) / n as f32;
                    let inv_std = 1.0 / (var + eps).sqrt();
                    for (o, &v) in out.row_mut(r).iter_mut().zip(x.iter()) {
                        *o = (v - mean) * inv_std;
                    }
                }
            }
        }
    }

    /// Index of the largest element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Dot product of two equal-length slices: one chain of separate
/// multiplies and adds in ascending order, starting from `-0.0` (std's
/// float `Sum`), which the compiler may neither reassociate nor fuse
/// into FMA. The blocked GEMM's chains start from `+0.0`; the two
/// differ only in the sign of a sum whose every product is `-0.0`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Numerically stable in-place softmax over a slice, through the
/// dispatched kernel.
pub fn softmax_in_place(xs: &mut [f32]) {
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    softmax_row(xs, isa);
}

/// One softmax row on an already-resolved ISA: shift by the row max,
/// exponentiate with [`exp_scalar`] (or its AVX2 lanes) while
/// accumulating the lane-structured sum, divide. The SIMD and scalar
/// paths produce bitwise-identical output; the only value that may
/// differ is the sign of a zero row max, which `exp` erases.
pub(crate) fn softmax_row(xs: &mut [f32], isa: Isa) {
    if xs.is_empty() {
        return;
    }
    let sum = match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe {
            let max = crate::simd::x86::max_avx2(xs);
            crate::simd::x86::exp_shift_sum_avx2(xs, max)
        },
        _ => {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            exp_shift_sum_scalar(xs, max)
        }
    };
    if sum > 0.0 {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Avx2 implies runtime detection succeeded.
            Isa::Avx2 => unsafe { crate::simd::x86::div_scalar_avx2(xs, sum) },
            _ => {
                for x in xs.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }
}

// --- exp and the activations built on it ---
//
// One polynomial `exp` (Cephes `expf`) serves softmax, GELU, sigmoid
// and tanh. `exp_scalar` below is the scalar twin of the AVX2 lanes in
// `simd::x86::exp_ps`: both run the same IEEE operations in the same
// order (separate mul and add, never FMA), so every ISA rung returns
// the same bits, and the tape and the plan, which both call these
// kernels, share each activation by construction.

/// Inputs below this return 0: `exp(-87)` is the smallest result the
/// kernel forms, and it never produces subnormals.
pub(crate) const EXP_LO: f32 = -87.0;
/// Inputs above this return `+inf`.
pub(crate) const EXP_HI: f32 = 88.0;
/// `1.5 * 2^23`: `(t + ROUND_MAGIC) - ROUND_MAGIC` rounds `t` to an
/// integer, ties to even, for `|t| < 2^22` (two IEEE ops on every
/// rung, where `round_ties_even` would be a libm call on baseline
/// x86-64).
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split for the two-step Cody–Waite reduction: `LN2_HI`
/// (0.693359375) has 9 significant bits, so `n * LN2_HI` is exact for
/// every `|n| <= 127`.
pub(crate) const LN2_HI: f32 = 355.0 / 512.0;
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` coefficients, highest degree first (1.9875691500e-4,
/// 1.3981999507e-3, 8.3334519073e-3, 4.1665795894e-2, 1.6666665459e-1,
/// 5.0000001201e-1, each written as the shortest literal of its f32).
pub(crate) const EXP_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];
/// `sqrt(2 / pi)` and the cubic coefficient of the tanh-approximation
/// GELU.
pub(crate) const GELU_C: f32 = 0.797_884_6;
pub(crate) const GELU_K: f32 = 0.044715;
/// `3 K`, from the slope of the GELU's inner argument.
pub(crate) const GELU_3K: f32 = 3.0 * GELU_K;

/// `e^x` in single precision, scalar twin of `simd::x86::exp_ps`:
///
/// 1. `n = round_ties_even(x * log2 e)`, via [`ROUND_MAGIC`];
/// 2. `r = x - n * LN2_HI`, then `r -= n * LN2_LO`;
/// 3. `p` = degree-5 Horner over [`EXP_POLY`] in `r`;
/// 4. `y = p * r^2 + r + 1`;
/// 5. `y * 2^n`, with `2^n` built from exponent bits.
///
/// Worst relative error on `[-87, 88]` is 7.9e-8 (libm `expf`:
/// 5.9e-8). Outside that range the result is 0 below [`EXP_LO`] (no
/// subnormals: `exp(-87.5)` is 0, not 1.0e-38) and `+inf` above
/// [`EXP_HI`]; NaN in gives the same NaN out.
#[inline]
pub(crate) fn exp_scalar(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x < EXP_LO {
        return 0.0;
    }
    if x > EXP_HI {
        return f32::INFINITY;
    }
    let n = (x * std::f32::consts::LOG2_E + ROUND_MAGIC) - ROUND_MAGIC;
    let mut r = x - n * LN2_HI;
    r -= n * LN2_LO;
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p * r + c;
    }
    let y = p * (r * r) + r + 1.0;
    // n is in [-126, 127] here, so the biased exponent is normal.
    y * f32::from_bits(((n as i32 + 127) as u32) << 23)
}

/// `sign(u) * (1 - e) / (1 + e)` with `e = exp(-2|u|)`: tanh through
/// the shared exp. Absolute error about 1e-7; relative accuracy fades
/// below `|u|` of about 1e-3, where `1 - e` cancels.
#[inline]
pub(crate) fn tanh_scalar(u: f32) -> f32 {
    let e = exp_scalar(-2.0 * u.abs());
    ((1.0 - e) / (1.0 + e)).copysign(u)
}

/// Tanh-approximation GELU: `0.5 x (1 + tanh(C (x + K x^3)))`.
#[inline]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_K * x * x * x);
    0.5 * x * (1.0 + tanh_scalar(u))
}

/// Slope of the tanh-approximation GELU,
/// `0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3K x^2)` with
/// `t = tanh(C (x + K x^3))` from the forward's [`tanh_scalar`].
#[inline]
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_K * x * x * x);
    let t = tanh_scalar(u);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + GELU_3K * x * x)
}

/// Logistic sigmoid `1 / (1 + exp(-x))`.
#[inline]
pub(crate) fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + exp_scalar(-x))
}

/// `xs[i] = exp(xs[i] - shift)`, returning the lane-structured sum of
/// the results (scalar side of `simd::x86::exp_shift_sum_avx2`).
fn exp_shift_sum_scalar(xs: &mut [f32], shift: f32) -> f32 {
    let mut lanes = [0.0f32; 8];
    for c in xs.chunks_mut(8) {
        for (lane, x) in lanes.iter_mut().zip(c.iter_mut()) {
            *x = exp_scalar(*x - shift);
            *lane += *x;
        }
    }
    combine_lanes(&lanes)
}

/// The elementwise activations built on the shared exp.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ExpAct {
    Gelu,
    Sigmoid,
    Tanh,
}

/// `out[i] = act(x[i])` on an already-resolved ISA.
pub(crate) fn exp_act_slice(act: ExpAct, x: &[f32], out: &mut [f32], isa: Isa) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe { crate::simd::x86::exp_act_avx2(act, x, out) },
        _ => {
            let f = match act {
                ExpAct::Gelu => gelu_scalar,
                ExpAct::Sigmoid => sigmoid_scalar,
                ExpAct::Tanh => tanh_scalar,
            };
            for (o, &v) in out.iter_mut().zip(x) {
                *o = f(v);
            }
        }
    }
}

/// `g[i] *= gelu'(x[i])` on an already-resolved ISA.
pub(crate) fn gelu_grad_mul_slice(x: &[f32], g: &mut [f32], isa: Isa) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe { crate::simd::x86::gelu_grad_mul_avx2(x, g) },
        _ => {
            for (gi, &xi) in g.iter_mut().zip(x) {
                *gi *= gelu_grad_scalar(xi);
            }
        }
    }
}

impl Matrix {
    fn exp_act_into(&self, act: ExpAct, out: &mut Matrix) {
        assert_eq!(self.shape(), out.shape(), "activation: shape mismatch");
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        exp_act_slice(act, self.data(), out.data_mut(), isa);
    }

    /// Tanh-approximation GELU, `0.5 x (1 + tanh(sqrt(2/pi) (x +
    /// 0.044715 x^3)))`, written into `out` (same shape), with tanh
    /// through the shared polynomial exp. Bitwise-equal on every ISA.
    pub fn gelu_into(&self, out: &mut Matrix) {
        self.exp_act_into(ExpAct::Gelu, out);
    }

    /// GELU backward: multiplies each element of `g` (same shape) by
    /// the slope of [`Self::gelu_into`] at the matching element of
    /// `self`, `0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 *
    /// 0.044715 x^2)`, with `t` from the forward's tanh. Absolute
    /// error about 1e-6; bitwise-equal on every ISA.
    pub fn gelu_grad_mul_into(&self, g: &mut Matrix) {
        assert_eq!(self.shape(), g.shape(), "gelu_grad_mul_into: shape mismatch");
        let isa = rowwise_isa();
        dispatch::note_dispatch(isa);
        gelu_grad_mul_slice(self.data(), g.data_mut(), isa);
    }

    /// Logistic sigmoid `1 / (1 + exp(-x))` written into `out` (same
    /// shape); saturates to exactly 0 below `x = -88`.
    pub fn sigmoid_into(&self, out: &mut Matrix) {
        self.exp_act_into(ExpAct::Sigmoid, out);
    }

    /// Hyperbolic tangent `sign(x) (1 - e) / (1 + e)`, `e = exp(-2|x|)`,
    /// written into `out` (same shape).
    pub fn tanh_into(&self, out: &mut Matrix) {
        self.exp_act_into(ExpAct::Tanh, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn matmul_matches_naive_exactly() {
        // Small product: streaming path.
        let a = Matrix::from_fn(7, 5, |r, c| ((r * 31 + c * 7) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(5, 9, |r, c| ((r * 13 + c * 3) % 7) as f32 - 3.0);
        assert_eq!(a.matmul(&b), a.naive_matmul(&b));
    }

    #[test]
    fn blocked_path_matches_naive_exactly() {
        // 41*35*39 multiply-adds > BLOCKED_MIN_MULADDS: packed kernel,
        // with ragged edge tiles in every dimension. Ascending-k
        // accumulation makes the result bit-identical to the scalar
        // triple loop.
        let a = Matrix::from_fn(41, 35, |r, c| ((r + 2 * c) % 17) as f32 * 0.25 - 1.0);
        let b = Matrix::from_fn(35, 39, |r, c| ((3 * r + c) % 13) as f32 * 0.5 - 2.0);
        assert!(a.rows() * a.cols() * b.cols() >= crate::gemm::BLOCKED_MIN_MULADDS);
        assert_eq!(a.matmul(&b), a.naive_matmul(&b));
    }

    #[test]
    fn blocked_path_spans_multiple_panels() {
        // k and n beyond KC/NC force multiple packed panels per
        // element; the summation chain must still match the oracle
        // bit for bit.
        let a = Matrix::from_fn(9, 300, |r, c| ((r * 7 + c) % 23) as f32 * 0.125 - 1.0);
        let b = Matrix::from_fn(300, 270, |r, c| ((r + 5 * c) % 19) as f32 * 0.25 - 2.0);
        assert_eq!(a.matmul(&b), a.naive_matmul(&b));
    }

    #[test]
    fn every_isa_path_matches_the_scalar_oracle_bitwise() {
        // Ragged in all three dimensions so the SIMD kernel sweeps
        // partial strips and partial panels. Unavailable ISAs degrade
        // to scalar, so this test is meaningful exactly where a SIMD
        // unit exists and trivially true elsewhere.
        let a = Matrix::from_fn(41, 83, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.25 - 2.0);
        let b = Matrix::from_fn(83, 51, |r, c| ((r * 7 + c * 11) % 19) as f32 * 0.5 - 4.0);
        assert!(crate::gemm::use_blocked(41, 83, 51));
        let mut scalar = Matrix::zeros(41, 51);
        a.matmul_into_isa(&b, &mut scalar, Isa::Scalar);
        assert_eq!(scalar, a.naive_matmul(&b));
        for isa in [Isa::Avx2, Isa::Avx512] {
            let mut out = Matrix::zeros(41, 51);
            a.matmul_into_isa(&b, &mut out, isa);
            assert_eq!(out, scalar, "{} kernel diverged from the scalar oracle", isa.name());
        }
    }

    #[test]
    fn dispatched_matmul_agrees_with_forced_scalar() {
        // Whatever `active_isa` resolved to on this host, the default
        // path must reproduce the scalar oracle bit for bit.
        let a = Matrix::from_fn(64, 72, |r, c| ((r + 3 * c) % 17) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(72, 40, |r, c| ((2 * r + c) % 13) as f32 * 0.25 - 1.0);
        let mut dispatched = Matrix::zeros(64, 40);
        a.matmul_into(&b, &mut dispatched);
        let mut scalar = Matrix::zeros(64, 40);
        a.matmul_into_isa(&b, &mut scalar, Isa::Scalar);
        assert_eq!(dispatched, scalar);
    }

    #[test]
    fn dispatch_counters_move_on_matmul() {
        let before = crate::dispatch_counts();
        let a = Matrix::from_fn(64, 64, |r, c| (r + c) as f32 * 0.1);
        let b = Matrix::from_fn(64, 64, |r, c| (r as f32) - (c as f32) * 0.2);
        let _ = a.matmul(&b);
        let after = crate::dispatch_counts();
        assert!(after.total() > before.total(), "a blocked matmul must count one dispatch");
    }

    #[test]
    fn matmul_transb_matches() {
        let a = Matrix::from_fn(6, 4, |r, c| (r as f32) - (c as f32) * 0.5);
        let b = Matrix::from_fn(8, 4, |r, c| (c as f32) * 0.3 - (r as f32) * 0.1);
        assert_eq!(a.matmul_transb(&b), a.naive_matmul_transb(&b));
        assert_close(&a.matmul_transb(&b), &a.naive_matmul(&b.transpose()), 1e-5);
    }

    #[test]
    fn matmul_transb_blocked_matches() {
        let a = Matrix::from_fn(37, 64, |r, c| ((r * 3 + c) % 29) as f32 * 0.2 - 2.0);
        let b = Matrix::from_fn(33, 64, |r, c| ((r + 7 * c) % 31) as f32 * 0.1 - 1.0);
        assert_eq!(a.matmul_transb(&b), a.naive_matmul_transb(&b));
    }

    #[test]
    fn matmul_transa_matches() {
        let a = Matrix::from_fn(4, 6, |r, c| (r * c) as f32 * 0.1 - 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.2);
        assert_eq!(a.matmul_transa(&b), a.naive_matmul_transa(&b));
        assert_close(&a.matmul_transa(&b), &a.transpose().naive_matmul(&b), 1e-5);
    }

    #[test]
    fn matmul_transa_blocked_matches() {
        let a = Matrix::from_fn(64, 37, |r, c| ((r + 11 * c) % 13) as f32 * 0.3 - 1.5);
        let b = Matrix::from_fn(64, 35, |r, c| ((5 * r + c) % 17) as f32 * 0.25 - 2.0);
        assert_eq!(a.matmul_transa(&b), a.naive_matmul_transa(&b));
    }

    #[test]
    fn into_variants_reuse_output() {
        let a = Matrix::from_fn(5, 4, |r, c| (r + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 6, |r, c| (r as f32) - (c as f32) * 0.25);
        let mut out = Matrix::full(5, 6, 99.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.naive_matmul(&b));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f32);
        assert_close(&a.matmul(&Matrix::eye(5)), &a, 1e-6);
        assert_close(&Matrix::eye(5).matmul(&a), &a, 1e-6);
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.sum(), 21.0);
        assert_eq!(m.mean(), 3.5);
        assert_eq!(m.max(), 6.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(m.mean_rows().data(), &[2.5, 3.5, 4.5]);
        assert!((m.norm() - 91.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -10.0, 0.0, 10.0]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Softmax is monotone in its inputs.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_and_axpy() {
        let m = Matrix::zeros(3, 2);
        let row = Matrix::row_vector(&[1.0, 2.0]);
        let b = m.add_row_broadcast(&row);
        assert_eq!(b.row(2), &[1.0, 2.0]);

        let mut acc = Matrix::ones(2, 2);
        acc.add_scaled_assign(&Matrix::ones(2, 2), 0.5);
        assert_eq!(acc.data(), &[1.5; 4]);

        let mut ax = Matrix::ones(2, 2);
        ax.axpy(0.5, &Matrix::ones(2, 2));
        assert_eq!(ax.data(), &[1.5; 4]);

        let mut biased = Matrix::zeros(2, 2);
        biased.add_bias_rowwise(&Matrix::row_vector(&[3.0, 4.0]));
        assert_eq!(biased.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn softmax_rows_into_matches_allocating_form() {
        let m = Matrix::from_fn(3, 5, |r, c| (r as f32) - (c as f32) * 0.7);
        let mut out = Matrix::full(3, 5, -1.0);
        m.softmax_rows_into(&mut out);
        assert_eq!(out, m.softmax_rows());
    }

    #[test]
    fn layernorm_rows_centres_and_scales() {
        let m = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as f32 * 0.3 - 2.0);
        let ln = m.layernorm_rows(1e-5);
        for r in 0..ln.rows() {
            let mean: f32 = ln.row(r).iter().sum::<f32>() / 6.0;
            let var: f32 = ln.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_single_column_is_zero() {
        // One column: variance 0, output (x - x) * inv_std = 0.
        let m = Matrix::col_vector(&[5.0, -3.0, 0.25]);
        let ln = m.layernorm_rows(1e-5);
        assert_eq!(ln.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn div_clamp_and_col_reductions() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let d = m.div(&Matrix::full(2, 3, 2.0));
        assert_eq!(d.get(1, 2), 3.0);
        let c = m.clamp(2.0, 5.0);
        assert_eq!(c.get(0, 0), 2.0);
        assert_eq!(c.get(1, 2), 5.0);
        assert_eq!(m.sum_cols().col(0), vec![6.0, 15.0]);
        assert_eq!(m.mean_cols().col(0), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "clamp: lo > hi")]
    fn clamp_rejects_inverted_bounds() {
        let _ = Matrix::zeros(1, 1).clamp(2.0, 1.0);
    }

    /// The SIMD rung the row kernels take on this host, if any.
    fn host_simd() -> Option<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Isa::Avx2);
        }
        None
    }

    /// A ragged row of `len` inputs: the exp cutoffs, signed zeros,
    /// infinities and NaN mixed with ordinary values, rotated by `len`
    /// so the specials land in both vector lanes and scalar tails.
    fn special_row(len: usize) -> Vec<f32> {
        const SPECIALS: [f32; 9] = [
            -87.0,
            88.0,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -87.5,
            88.5,
        ];
        const ORDINARY: [f32; 14] = [
            -3.25, 0.7, 12.0, -0.001, 1e-6, 43.6, -43.6, 2.5, -9.0, 0.125, 1.5e-8, -60.0, 30.0,
            87.9,
        ];
        let pool: Vec<f32> = SPECIALS.iter().chain(&ORDINARY).copied().collect();
        (0..len).map(|i| pool[(i * 7 + len) % pool.len()]).collect()
    }

    /// `special_row` without the non-finite values.
    fn finite_row(len: usize) -> Vec<f32> {
        special_row(len)
            .into_iter()
            .filter(|x| x.is_finite())
            .collect()
    }

    /// The row max first, then NaN one vector chunk later in the same
    /// lane: a lane max that a NaN resets would lose the true max.
    fn nan_after_max_row(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match i {
                0 => 50.0,
                8 => f32::NAN,
                _ => i as f32 * 0.37 - 3.0,
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i} is {g} vs scalar {w}"
            );
        }
    }

    #[test]
    fn exp_kernels_are_bitwise_equal_across_isas_on_ragged_lengths() {
        let Some(simd) = host_simd() else { return };
        for len in 1..=67 {
            for row in [special_row(len), finite_row(len), nan_after_max_row(len)] {
                // exp itself: the softmax pass with a zero shift.
                let (mut s, mut v) = (row.clone(), row.clone());
                let sum_s = exp_shift_sum_scalar(&mut s, 0.0);
                // SAFETY: `host_simd` returned Avx2 only after runtime
                // feature detection succeeded.
                let sum_v = unsafe { crate::simd::x86::exp_shift_sum_avx2(&mut v, 0.0) };
                assert_bits_eq(&v, &s, &format!("exp, len {len}"));
                assert_eq!(sum_v.to_bits(), sum_s.to_bits(), "exp sum, len {len}");

                let (mut s, mut v) = (row.clone(), row.clone());
                softmax_row(&mut s, Isa::Scalar);
                softmax_row(&mut v, simd);
                assert_bits_eq(&v, &s, &format!("softmax, len {len}"));

                for act in [ExpAct::Gelu, ExpAct::Sigmoid, ExpAct::Tanh] {
                    let (mut s, mut v) = (vec![0.0; row.len()], vec![0.0; row.len()]);
                    exp_act_slice(act, &row, &mut s, Isa::Scalar);
                    exp_act_slice(act, &row, &mut v, simd);
                    assert_bits_eq(&v, &s, &format!("{act:?}, len {len}"));
                }
            }
        }
    }

    #[test]
    fn gelu_grad_is_bitwise_equal_across_isas_on_ragged_lengths() {
        let Some(simd) = host_simd() else { return };
        // Incoming gradients: a ramp, and the specials without NaN. A
        // NaN gradient meeting the default NaN that `inf * 0` makes at
        // x = ±inf may come out as either operand, since the compiler
        // is free to commute a multiply; every other NaN passes
        // through unchanged.
        let mut specials: Vec<f32> = special_row(67).into_iter().filter(|v| !v.is_nan()).collect();
        specials.reverse();
        for len in 1..=67 {
            for x in [special_row(len), finite_row(len), nan_after_max_row(len)] {
                let ramp = (0..x.len()).map(|i| 1.5 - 0.37 * i as f32);
                let cycled = specials.iter().copied().cycle().skip(len).take(x.len());
                for g in [ramp.collect::<Vec<f32>>(), cycled.collect()] {
                    let (mut s, mut v) = (g.clone(), g);
                    gelu_grad_mul_slice(&x, &mut s, Isa::Scalar);
                    gelu_grad_mul_slice(&x, &mut v, simd);
                    assert_bits_eq(&v, &s, &format!("GELU gradient, len {len}"));
                }
            }
        }
    }

    #[test]
    fn gelu_grad_absolute_error_is_within_2e_6_of_f64() {
        let slope64 = |x: f64| {
            let c = (2.0 / std::f64::consts::PI).sqrt();
            let t = (c * (x + 0.044715 * x * x * x)).tanh();
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)
        };
        let mut worst = 0.0f64;
        let mut x = -12.0f32;
        while x <= 12.0 {
            worst = worst.max((gelu_grad_scalar(x) as f64 - slope64(x as f64)).abs());
            x += 1.0 / 512.0;
        }
        assert!(worst <= 2e-6, "worst absolute error {worst:e}");
        // The matrix entry point multiplies the incoming gradient.
        let x = Matrix::from_vec(1, 3, vec![0.0, 3.0, -3.0]);
        let mut g = Matrix::from_vec(1, 3, vec![2.0, 1.0, 1.0]);
        x.gelu_grad_mul_into(&mut g);
        assert_eq!(g.get(0, 0), 1.0, "gelu'(0) = 0.5");
        assert!((g.get(0, 1) as f64 - slope64(3.0)).abs() <= 2e-6);
        assert!((g.get(0, 2) as f64 - slope64(-3.0)).abs() <= 2e-6);
    }

    #[test]
    fn exp_relative_error_is_within_1e_7_of_f64() {
        let mut worst = 0.0f64;
        let mut x = EXP_LO;
        while x <= EXP_HI {
            let want = (x as f64).exp();
            let got = exp_scalar(x) as f64;
            worst = worst.max((got - want).abs() / want);
            x += 1.0 / 1024.0;
        }
        for x in [EXP_LO, EXP_HI, -1e-7, 1e-7, 0.346, -0.346] {
            let want = (x as f64).exp();
            worst = worst.max((exp_scalar(x) as f64 - want).abs() / want);
        }
        assert!(worst <= 1e-7, "worst relative error {worst:e}");
        assert_eq!(exp_scalar(0.0), 1.0);
        assert_eq!(exp_scalar(-0.0), 1.0);
    }

    #[test]
    fn gelu_absolute_error_is_within_1e_6_of_f64() {
        let gelu64 = |x: f64| {
            let c = (2.0 / std::f64::consts::PI).sqrt();
            0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
        };
        let mut worst = 0.0f64;
        let mut x = -12.0f32;
        while x <= 12.0 {
            worst = worst.max((gelu_scalar(x) as f64 - gelu64(x as f64)).abs());
            x += 1.0 / 512.0;
        }
        for x in [-87.0f32, -40.0, 40.0, 88.0, 1e-6, -1e-6] {
            worst = worst.max((gelu_scalar(x) as f64 - gelu64(x as f64)).abs());
        }
        assert!(worst <= 1e-6, "worst absolute error {worst:e}");
    }

    #[test]
    fn nan_gives_nan_and_the_cutoffs_saturate_on_every_isa() {
        let isas = std::iter::once(Isa::Scalar).chain(host_simd());
        for isa in isas {
            // 11 elements: a full vector chunk plus a scalar tail, with
            // NaN in both.
            let mut row = vec![1.0f32; 11];
            row[2] = f32::NAN;
            row[9] = f32::NAN;
            for act in [ExpAct::Gelu, ExpAct::Sigmoid, ExpAct::Tanh] {
                let mut out = vec![0.0; row.len()];
                exp_act_slice(act, &row, &mut out, isa);
                assert!(
                    out[2].is_nan() && out[9].is_nan(),
                    "{act:?} on {}",
                    isa.name()
                );
                assert!(out[0].is_finite(), "{act:?} on {}", isa.name());
            }
            let mut g = vec![1.0f32; row.len()];
            gelu_grad_mul_slice(&row, &mut g, isa);
            assert!(g[2].is_nan() && g[9].is_nan(), "GELU gradient on {}", isa.name());
            assert!(g[0].is_finite(), "GELU gradient on {}", isa.name());
            let mut xs = row.clone();
            // NaN must not be clamped into exp(-87).
            assert!(exp_shift_sum_scalar(&mut xs, 0.0).is_nan());
            assert!(xs[2].is_nan() && xs[9].is_nan());
            let mut sm = row.clone();
            softmax_row(&mut sm, isa);
            assert!(
                sm[2].is_nan() && sm[9].is_nan(),
                "softmax on {}",
                isa.name()
            );

            // Below the cutoff the result is exactly 0 (no subnormals),
            // above it +inf; the cutoffs themselves stay normal/finite.
            let mut xs = vec![
                EXP_LO,
                -87.01,
                f32::NEG_INFINITY,
                EXP_HI,
                88.01,
                f32::INFINITY,
            ];
            xs.resize(9, -87.5);
            let mut v = xs.clone();
            match isa {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: only reached when `host_simd` saw AVX2.
                Isa::Avx2 => unsafe {
                    crate::simd::x86::exp_shift_sum_avx2(&mut v, 0.0);
                },
                _ => {
                    exp_shift_sum_scalar(&mut v, 0.0);
                }
            }
            assert!(v[0].is_normal() && v[0] < 1.7e-38, "exp(-87) = {:e}", v[0]);
            assert_eq!(&v[1..3], &[0.0, 0.0]);
            assert!(v[3].is_finite() && v[3] > 1.6e38, "exp(88) = {:e}", v[3]);
            assert_eq!(&v[4..6], &[f32::INFINITY, f32::INFINITY]);
            assert!(v[6..].iter().all(|&e| e == 0.0));
        }
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }
}
