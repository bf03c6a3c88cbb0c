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

/// The ISA the row-wise primitives run on. The NEON port currently
/// covers only the GEMM kernel, so it maps down to scalar.
#[inline]
fn rowwise_isa() -> Isa {
    match dispatch::active_isa() {
        // AVX-512 hosts also run the row passes on the AVX2 code: the
        // fused row primitives are memory-bound, so wider lanes buy
        // nothing there (only the GEMM micro-kernel is 512-bit).
        Isa::Avx2 | Isa::Avx512 => Isa::Avx2,
        Isa::Neon | Isa::Scalar => Isa::Scalar,
    }
}

/// `dst[i] += src[i]` through the dispatched kernel. Free-function
/// form so `occu-nn`'s tape can route gradient row accumulations
/// through the same SIMD path the matrix methods use.
pub fn add_into(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_into: length mismatch");
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
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
    /// `repro kernels` time the scalar oracle and the SIMD kernel in
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
    /// reduction, exp-sum, and divide pass run on the dispatched SIMD
    /// kernel (the exp itself stays scalar libm).
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

/// Dot product of two equal-length slices.
///
/// Written as a simple fold over a zipped iterator; LLVM vectorizes
/// this into packed FMA on x86-64.
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
/// exponentiate (scalar libm on both paths), lane-structured sum,
/// divide. The SIMD and scalar paths produce bitwise-identical
/// output; the only value that may differ is the sign of a zero row
/// max, which `exp` erases.
fn softmax_row(xs: &mut [f32], isa: Isa) {
    if xs.is_empty() {
        return;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe {
            let max = crate::simd::x86::max_avx2(xs);
            for x in xs.iter_mut() {
                *x = (*x - max).exp();
            }
            let sum = crate::simd::x86::lane_sum_avx2(xs);
            if sum > 0.0 {
                crate::simd::x86::div_scalar_avx2(xs, sum);
            }
        },
        _ => {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for x in xs.iter_mut() {
                *x = (*x - max).exp();
            }
            let sum = lane_sum_scalar(xs);
            if sum > 0.0 {
                for x in xs.iter_mut() {
                    *x /= sum;
                }
            }
        }
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
        for isa in [Isa::Avx2, Isa::Avx512, Isa::Neon] {
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

    #[test]
    fn argmax_rows_picks_largest() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -1.0, 2.0]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }
}
