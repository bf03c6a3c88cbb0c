//! Quantized weight storage and the int8 GEMM tier.
//!
//! One reduced-precision weight format backs the opt-in quantized
//! serving tier: [`PackedI8`] — symmetric per-output-channel int8
//! quantization with `f32` scales, pre-packed into the same `NR`-wide
//! panel geometry the f32 GEMM uses, but with the shared dimension laid
//! out in 4-byte quads so one 32-byte load feeds `maddubs`/`dpbusd`
//! directly.
//!
//! # Int8 scheme
//!
//! Weights quantize once (at plan-compile time): each output channel
//! `j` of a `k x n` weight gets `scale[j] = maxabs(col j) / 63` and
//! `q[k][j] = round(w[k][j] / scale[j])` clamped to `[-63, 63]`.
//! The ±63 clamp (not ±127) is what keeps the AVX2 `maddubs` tier
//! exact: `maddubs` sums two adjacent `u8 x i8` products into a
//! *saturating* i16, and `255 * 63 * 2 = 32130 <= i16::MAX` while
//! `255 * 127 * 2` would saturate. All tiers therefore share one set
//! of quantized values and one exact integer result.
//!
//! Activations stay `f32` in the plan; [`matmul_i8_into`] quantizes
//! them on the fly with a fused per-row pass (`scale[i] =
//! maxabs(row i) / 127`, symmetric to `[-127, 127]`), stored biased
//! by +128 as `u8` so the unsigned-by-signed multiply units apply.
//! The bias is removed after accumulation via the per-column weight
//! sums baked into the packing: `dot = acc - 128 * csum[j]`.
//!
//! # Determinism
//!
//! Quantization, bias removal, and the final dequantizing multiply
//! `(dot as f32) * (sa[i] * sw[j])` are scalar and identical on every
//! tier; the inter-tier difference is confined to the i32
//! accumulation, which is exact arithmetic — so scalar, AVX2, and
//! VNNI outputs are bitwise-equal (verified by the ragged-shape
//! proptests). Unlike the f32 tier this is *not* bitwise-equal to the
//! f32 product: the quantized tier is validated against an accuracy
//! budget (the int8 drift test in `occu-core/tests/plan_equivalence.rs`),
//! not bit equality.

use crate::dispatch::{note_quant_dispatch, quant_isa, QuantIsa};
use crate::matrix::Matrix;
use crate::gemm::NR;

/// Quantized weight magnitude bound: `maddubs` pair-sums stay within
/// i16 only when `255 * QMAX_W * 2 <= i16::MAX`.
pub const QMAX_W: i32 = 63;

/// Quantized activation magnitude bound (full symmetric int8 range;
/// `i8::MIN` is never produced).
pub const QMAX_A: i32 = 127;

/// Accumulator tile stride: the VNNI kernel covers two `NR`-wide
/// panels per step, so every kernel writes into a `QMR x 16` tile.
const ACC_STRIDE: usize = 2 * NR;

/// Int8 micro-kernel tile height. Taller than the f32 GEMM's `MR = 4`
/// because the int8 kernels hold one accumulator vector per row and
/// a taller tile amortizes each packed-panel load over more rows;
/// 8 accumulators + the weight vector still fit the 16-register AVX2
/// budget.
const QMR: usize = 8;

// ---------------------------------------------------------------------------
// Per-row symmetric quantization primitive
// ---------------------------------------------------------------------------

/// A matrix quantized symmetrically per row to `[-qmax, qmax]` with
/// one `f32` scale per row. The storage/round-trip primitive behind
/// both the weight packer (applied per output channel) and the
/// activation pass (applied per activation row).
#[derive(Clone, Debug)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    /// Row-major quantized values.
    data: Vec<i8>,
    /// One scale per row; an all-zero row gets scale 0 (and
    /// dequantizes back to exactly zero).
    scales: Vec<f32>,
}

/// Round-to-nearest-even via the 2^23 + 2^22 magic constant: adding
/// it pushes the value's ULP to 1.0 so the hardware's RNE addition
/// does the rounding, subtracting recovers the integer. Exact for
/// `|v| <= 2^22` (quantized values are within ±127) and compiles to
/// two vectorizable float ops — `f32::round` (half-away-from-zero)
/// and `round_ties_even` both lower to libcalls in this loop and
/// dominated the whole int8 GEMM.
#[inline(always)]
fn round_rne(v: f32) -> f32 {
    const MAGIC: f32 = 12_582_912.0;
    (v + MAGIC) - MAGIC
}

/// Quantizes one row: returns the scale and writes clamped values.
/// Rounding is to-nearest-even ([`round_rne`]), so the round-trip
/// error is at most `scale / 2` per element and `-qmax - 1` (the
/// asymmetric `i8::MIN` for `qmax = 127`) is never produced.
fn quantize_row(src: &[f32], qmax: i32, dst: &mut [i8]) -> f32 {
    let maxabs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = maxabs / qmax as f32;
    let inv = qmax as f32 / maxabs;
    for (d, &v) in dst.iter_mut().zip(src) {
        let q = round_rne(v * inv);
        *d = q.clamp(-(qmax as f32), qmax as f32) as i8;
    }
    scale
}

impl QuantizedMatrix {
    /// Quantizes `m` per row to `[-qmax, qmax]`.
    ///
    /// # Panics
    /// If `qmax` is outside `1..=127`.
    pub fn quantize(m: &Matrix, qmax: i32) -> Self {
        assert!((1..=127).contains(&qmax), "quantize: qmax must be in 1..=127, got {qmax}");
        let (rows, cols) = m.shape();
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            scales[r] = quantize_row(m.row(r), qmax, &mut data[r * cols..(r + 1) * cols]);
        }
        Self { rows, cols, data, scales }
    }

    /// Shape `(rows, cols)` of the quantized matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Quantized values, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Widens back to `f32`: `out[r][c] = q[r][c] * scale[r]`.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            f32::from(self.data[r * self.cols + c]) * self.scales[r]
        })
    }
}

// ---------------------------------------------------------------------------
// Packed int8 weights
// ---------------------------------------------------------------------------

/// A `k x n` weight quantized per output channel and pre-packed for
/// the int8 micro-kernels: `NR`-wide column panels whose shared
/// dimension is laid out in 4-byte quads —
/// `panels[((p * kq + q) * NR + j) * 4 + kk]` holds `q[q*4+kk][p*NR+j]`
/// — so one 32-byte load per `(panel, quad)` feeds `maddubs`/`dpbusd`
/// without shuffles. Short panels and the k tail are zero-padded
/// (padded weights contribute exactly zero to both the dot product
/// and the column sums).
#[derive(Clone, Debug)]
pub struct PackedI8 {
    k: usize,
    n: usize,
    /// Number of k-quads per panel (`k` rounded up to a multiple of 4,
    /// divided by 4).
    kq: usize,
    /// Packed quantized panels (see type docs for the layout).
    panels: Vec<i8>,
    /// Per-output-channel scales, length `n`.
    scales: Vec<f32>,
    /// Per-output-channel sums of quantized weights, for removing the
    /// +128 activation bias after accumulation.
    csum: Vec<i32>,
}

impl PackedI8 {
    /// Quantizes and packs a `k x n` weight.
    pub fn pack(w: &Matrix) -> Self {
        let (k, n) = w.shape();
        let kq = k.div_ceil(4);
        let n_panels = n.div_ceil(NR);
        let mut panels = vec![0i8; n_panels * kq * NR * 4];
        let mut scales = vec![0.0f32; n];
        let mut csum = vec![0i32; n];
        let mut col = vec![0.0f32; k];
        let mut qcol = vec![0i8; k];
        for j in 0..n {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = w.get(r, j);
            }
            scales[j] = quantize_row(&col, QMAX_W, &mut qcol);
            let p = j / NR;
            let jl = j % NR;
            let mut sum = 0i32;
            for (r, &q) in qcol.iter().enumerate() {
                sum += i32::from(q);
                panels[((p * kq + r / 4) * NR + jl) * 4 + (r % 4)] = q;
            }
            csum[j] = sum;
        }
        Self { k, n, kq, panels, scales, csum }
    }

    /// Operand shape `(k, n)` this packing was built for.
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Heap bytes held (packed panels + scales + column sums).
    pub fn bytes(&self) -> usize {
        self.panels.len() + (self.scales.len() + self.csum.len()) * 4
    }

    /// Per-output-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Widens back to `f32` — the dequantized weight the int8 product
    /// effectively multiplies by (test/debug helper).
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.k, self.n, |r, j| {
            let p = j / NR;
            let jl = j % NR;
            f32::from(self.panels[((p * self.kq + r / 4) * NR + jl) * 4 + (r % 4)])
                * self.scales[j]
        })
    }
}

/// Activations quantized on the fly: one symmetric scale per row,
/// values biased by +128 into `u8` (so `i8::MIN` never appears and
/// the unsigned-by-signed multiply units apply), rows padded to a
/// quad multiple with the bias value 128 (`q = 0`).
struct QuantizedActs {
    kq: usize,
    /// `m` rows of `kq * 4` biased bytes.
    data: Vec<u8>,
    /// Per-row scales.
    scales: Vec<f32>,
}

/// The fused activation pass: one sweep per row computes the max-abs
/// scale and writes the biased quantized bytes.
fn quantize_acts(a: &Matrix) -> QuantizedActs {
    let (m, k) = a.shape();
    let kq = k.div_ceil(4).max(1);
    let stride = kq * 4;
    let mut data = vec![128u8; m * stride];
    let mut scales = vec![0.0f32; m];
    for i in 0..m {
        let row = a.row(i);
        let maxabs = row.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        if maxabs == 0.0 {
            continue; // scale 0, bytes stay at the 128 bias (q = 0)
        }
        scales[i] = maxabs / QMAX_A as f32;
        let inv = QMAX_A as f32 / maxabs;
        let out = &mut data[i * stride..i * stride + k];
        for (d, &v) in out.iter_mut().zip(row) {
            let q = round_rne(v * inv).clamp(-(QMAX_A as f32), QMAX_A as f32) as i32;
            *d = (q + 128) as u8;
        }
    }
    QuantizedActs { kq, data, scales }
}

// ---------------------------------------------------------------------------
// Int8 micro-kernels
// ---------------------------------------------------------------------------

/// One int8 micro-kernel invocation: accumulate `mr` rows of biased
/// activations against the panel bytes at `pb` (covering `panel_step`
/// panels) into the `QMR x ACC_STRIDE` i32 tile `acc`.
///
/// # Safety
/// `qa` must point at `mr` rows of `kq * 4` bytes at `qa_stride`
/// spacing, `pb` at `panel_step * kq * NR * 4` packed bytes, and
/// `acc` must hold `QMR * ACC_STRIDE` elements.
type QuantKernelFn = unsafe fn(
    mr: usize,
    qa: *const u8,
    qa_stride: usize,
    pb: *const i8,
    acc: &mut [i32; QMR * ACC_STRIDE],
    kq: usize,
);

/// A selected int8 kernel plus how many `NR`-panels it consumes per
/// call (2 for the VNNI paired-panel kernel, 1 otherwise).
struct QuantKernelSel {
    isa: QuantIsa,
    kernel: QuantKernelFn,
    panel_step: usize,
}

/// Maps the requested tier to a runnable kernel, re-verifying CPU
/// features so a stale request degrades down the ladder instead of
/// faulting.
fn quant_kernel_for(isa: QuantIsa) -> QuantKernelSel {
    #[cfg(target_arch = "x86_64")]
    {
        if isa == QuantIsa::Vnni
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return QuantKernelSel { isa: QuantIsa::Vnni, kernel: kernel_i8_vnni, panel_step: 2 };
        }
        if matches!(isa, QuantIsa::Vnni | QuantIsa::Avx2)
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return QuantKernelSel { isa: QuantIsa::Avx2, kernel: kernel_i8_avx2, panel_step: 1 };
        }
    }
    let _ = isa;
    QuantKernelSel { isa: QuantIsa::Scalar, kernel: kernel_i8_scalar, panel_step: 1 }
}

/// Scalar i32-accumulate oracle over one panel. Plain integer
/// arithmetic — the order-independent exact reference every SIMD tier
/// must match bit for bit.
///
/// # Safety
/// See [`QuantKernelFn`].
unsafe fn kernel_i8_scalar(
    mr: usize,
    qa: *const u8,
    qa_stride: usize,
    pb: *const i8,
    acc: &mut [i32; QMR * ACC_STRIDE],
    kq: usize,
) {
    for i in 0..mr {
        let row = std::slice::from_raw_parts(qa.add(i * qa_stride), kq * 4);
        for j in 0..NR {
            let mut s = 0i32;
            for q in 0..kq {
                let w = std::slice::from_raw_parts(pb.add((q * NR + j) * 4), 4);
                for kk in 0..4 {
                    s += i32::from(row[q * 4 + kk]) * i32::from(w[kk]);
                }
            }
            acc[i * ACC_STRIDE + j] = s;
        }
    }
}

/// AVX2 tier: one 32-byte panel load per k-quad; per row, broadcast
/// the 4 biased activation bytes, `maddubs` (exact under the ±63
/// weight clamp), then `madd` against ones to finish the quad sums in
/// i32 lanes — one lane per output column.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_i8_avx2(
    mr: usize,
    qa: *const u8,
    qa_stride: usize,
    pb: *const i8,
    acc: &mut [i32; QMR * ACC_STRIDE],
    kq: usize,
) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_epi16(1);
    let mut accv = [_mm256_setzero_si256(); QMR];
    if mr == QMR {
        // Full tile: constant trip count so the loop unrolls and the
        // eight accumulators live in registers across the k sweep.
        for q in 0..kq {
            let w = _mm256_loadu_si256(pb.add(q * NR * 4).cast());
            let arow = qa.add(q * 4);
            for (i, av) in accv.iter_mut().enumerate() {
                let quad = arow.add(i * qa_stride).cast::<i32>().read_unaligned();
                let t = _mm256_maddubs_epi16(_mm256_set1_epi32(quad), w);
                *av = _mm256_add_epi32(*av, _mm256_madd_epi16(t, ones));
            }
        }
    } else {
        for q in 0..kq {
            let w = _mm256_loadu_si256(pb.add(q * NR * 4).cast());
            let arow = qa.add(q * 4);
            for (i, av) in accv.iter_mut().enumerate().take(mr) {
                let quad = arow.add(i * qa_stride).cast::<i32>().read_unaligned();
                let t = _mm256_maddubs_epi16(_mm256_set1_epi32(quad), w);
                *av = _mm256_add_epi32(*av, _mm256_madd_epi16(t, ones));
            }
        }
    }
    for (i, av) in accv.iter().enumerate().take(mr) {
        _mm256_storeu_si256(acc.as_mut_ptr().add(i * ACC_STRIDE).cast(), *av);
    }
}

/// AVX-512 VNNI tier: two adjacent panels per step (16 output
/// columns); `dpbusd` folds the whole broadcast quad into the i32
/// accumulator in one instruction. Falls back to the AVX2 kernel for
/// a trailing odd panel (the caller passes `panel_step = 2` slices
/// only when two panels are present).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni,avx2")]
unsafe fn kernel_i8_vnni(
    mr: usize,
    qa: *const u8,
    qa_stride: usize,
    pb: *const i8,
    acc: &mut [i32; QMR * ACC_STRIDE],
    kq: usize,
) {
    use std::arch::x86_64::*;
    let panel = kq * NR * 4;
    let mut accv = [_mm512_setzero_si512(); QMR];
    if mr == QMR {
        // Full tile: constant trip count so the loop unrolls and the
        // eight accumulators live in registers across the k sweep.
        for q in 0..kq {
            let lo = _mm256_loadu_si256(pb.add(q * NR * 4).cast());
            let hi = _mm256_loadu_si256(pb.add(panel + q * NR * 4).cast());
            let w = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
            let arow = qa.add(q * 4);
            for (i, av) in accv.iter_mut().enumerate() {
                let quad = arow.add(i * qa_stride).cast::<i32>().read_unaligned();
                *av = _mm512_dpbusd_epi32(*av, _mm512_set1_epi32(quad), w);
            }
        }
    } else {
        for q in 0..kq {
            let lo = _mm256_loadu_si256(pb.add(q * NR * 4).cast());
            let hi = _mm256_loadu_si256(pb.add(panel + q * NR * 4).cast());
            let w = _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
            let arow = qa.add(q * 4);
            for (i, av) in accv.iter_mut().enumerate().take(mr) {
                let quad = arow.add(i * qa_stride).cast::<i32>().read_unaligned();
                *av = _mm512_dpbusd_epi32(*av, _mm512_set1_epi32(quad), w);
            }
        }
    }
    for (i, av) in accv.iter().enumerate().take(mr) {
        _mm512_storeu_si512(acc.as_mut_ptr().add(i * ACC_STRIDE).cast(), *av);
    }
}

// ---------------------------------------------------------------------------
// Int8 GEMM entry points
// ---------------------------------------------------------------------------

/// `out = a * dequant(w)` on the dispatched int8 tier: quantize the
/// activations (fused per-row pass), run the integer product, remove
/// the +128 bias, and dequantize through the two scale vectors.
pub fn matmul_i8_into(a: &Matrix, w: &PackedI8, out: &mut Matrix) {
    matmul_i8_into_isa(a, w, out, quant_isa());
}

/// [`matmul_i8_into`] pinned to one tier — the bench/test hook for
/// cross-ISA bitwise comparison. Absent tiers degrade down the
/// ladder, so the comparison holds trivially on narrow hosts.
pub fn matmul_i8_into_isa(a: &Matrix, w: &PackedI8, out: &mut Matrix, isa: QuantIsa) {
    let (m, k) = a.shape();
    assert_eq!(k, w.k, "matmul_i8: inner dimension mismatch");
    assert_eq!(out.shape(), (m, w.n), "matmul_i8: output shape mismatch");
    let sel = quant_kernel_for(isa);
    note_quant_dispatch(sel.isa);
    let qa = quantize_acts(a);
    let stride = qa.kq * 4;
    let panel_bytes = w.kq * NR * 4;
    let n_panels = w.n.div_ceil(NR);
    let mut acc = [0i32; QMR * ACC_STRIDE];
    for i0 in (0..m).step_by(QMR) {
        let mr = QMR.min(m - i0);
        let rows = qa.data[i0 * stride..].as_ptr();
        let mut p = 0;
        while p < n_panels {
            let take = sel.panel_step.min(n_panels - p);
            let pb = w.panels[p * panel_bytes..].as_ptr();
            // SAFETY: `rows` points at `mr` full rows of `stride`
            // bytes, `pb` at `take` packed panels, and `acc` is the
            // fixed QMR x ACC_STRIDE tile the kernels contract on.
            unsafe {
                if take == sel.panel_step {
                    (sel.kernel)(mr, rows, stride, pb, &mut acc, w.kq);
                } else {
                    // Odd trailing panel under a paired-panel kernel:
                    // degrade one step for just this panel.
                    let narrow = quant_kernel_for(QuantIsa::Avx2);
                    (narrow.kernel)(mr, rows, stride, pb, &mut acc, w.kq);
                }
            }
            // Shared epilogue: bias removal and dequantization run
            // identically (and in the same order) on every tier, so
            // bitwise equality across tiers reduces to the exact
            // integer accumulators. Written over slices so the
            // compiler can vectorize the convert-and-scale sweep.
            let j0 = p * NR;
            let width = (take * NR).min(w.n - j0);
            let csum = &w.csum[j0..j0 + width];
            let sw = &w.scales[j0..j0 + width];
            for i in 0..mr {
                let sa = qa.scales[i0 + i];
                let arow = &acc[i * ACC_STRIDE..i * ACC_STRIDE + width];
                let orow = &mut out.row_mut(i0 + i)[j0..j0 + width];
                for jl in 0..width {
                    let dot = arow[jl] - 128 * csum[jl];
                    orow[jl] = dot as f32 * (sa * sw[jl]);
                }
            }
            p += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::SeededRng;

    fn random_matrix(rng: &mut SeededRng, r: usize, c: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.uniform(lo, hi))
    }

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let mut rng = SeededRng::new(0x0811);
        let m = random_matrix(&mut rng, 7, 29, -3.0, 3.0);
        let q = QuantizedMatrix::quantize(&m, 127);
        let back = q.dequantize();
        for r in 0..7 {
            let bound = q.scales()[r] * 0.5 + 1e-6;
            for c in 0..29 {
                let err = (m.get(r, c) - back.get(r, c)).abs();
                assert!(err <= bound, "row {r} col {c}: err {err} > scale/2 {bound}");
            }
        }
        assert!(q.data().iter().all(|&v| v != i8::MIN), "i8::MIN must never be produced");
    }

    #[test]
    fn zero_rows_quantize_to_exact_zero() {
        let mut m = Matrix::zeros(3, 8);
        m.row_mut(1).copy_from_slice(&[1.0, -2.0, 0.5, 0.0, 3.0, -0.25, 0.0, 1.5]);
        let q = QuantizedMatrix::quantize(&m, 127);
        assert_eq!(q.scales()[0], 0.0);
        assert_eq!(q.scales()[2], 0.0);
        let back = q.dequantize();
        assert!(back.row(0).iter().all(|&v| v == 0.0));
        assert!(back.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn packed_i8_dequantizes_within_channel_bound() {
        let mut rng = SeededRng::new(0xACED);
        let w = random_matrix(&mut rng, 37, 19, -1.5, 1.5);
        let p = PackedI8::pack(&w);
        assert_eq!(p.shape(), (37, 19));
        assert!(p.bytes() >= 37 * 19);
        let back = p.dequantize();
        for j in 0..19 {
            let bound = p.scales()[j] * 0.5 + 1e-6;
            for r in 0..37 {
                let err = (w.get(r, j) - back.get(r, j)).abs();
                assert!(err <= bound, "col {j} row {r}: err {err} > {bound}");
            }
        }
    }

    /// Reference for the whole int8 pipeline: quantize activations and
    /// weights exactly like the production code, then a naive i32
    /// triple loop plus the shared dequant epilogue.
    fn naive_i8(a: &Matrix, w: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = w.cols();
        let p = PackedI8::pack(w);
        let qa = quantize_acts(a);
        let stride = qa.kq * 4;
        let wd = p.dequantize();
        Matrix::from_fn(m, n, |i, j| {
            let mut s = 0i64;
            for kk in 0..k {
                let u = i64::from(qa.data[i * stride + kk]);
                let q = (wd.get(kk, j)
                    / if p.scales()[j] == 0.0 { 1.0 } else { p.scales()[j] })
                    .round() as i64;
                s += u * q;
            }
            let dot = s - 128 * i64::from(p.csum[j]);
            dot as f32 * (qa.scales[i] * p.scales()[j])
        })
    }

    #[test]
    fn int8_matmul_matches_naive_reference() {
        let mut rng = SeededRng::new(0x1807);
        for (m, k, n) in [(5, 17, 13), (4, 1, 9), (2, 64, 40), (11, 33, 48)] {
            let a = random_matrix(&mut rng, m, k, -2.0, 2.0);
            let w = random_matrix(&mut rng, k, n, -1.0, 1.0);
            let mut got = Matrix::zeros(m, n);
            matmul_i8_into(&a, &w_packed(&w), &mut got);
            let want = naive_i8(&a, &w);
            assert_eq!(got, want, "int8 GEMM diverged from the naive pipeline at {m}x{k}x{n}");
        }
    }

    fn w_packed(w: &Matrix) -> PackedI8 {
        PackedI8::pack(w)
    }

    #[test]
    fn int8_tiers_are_bitwise_equal() {
        let mut rng = SeededRng::new(0xB17);
        for (m, k, n) in [(1, 7, 3), (3, 1, 33), (6, 50, 47), (13, 128, 24), (4, 31, 16)] {
            let a = random_matrix(&mut rng, m, k, -3.0, 3.0);
            let w = random_matrix(&mut rng, k, n, -1.0, 1.0);
            let p = PackedI8::pack(&w);
            let mut scalar = Matrix::zeros(m, n);
            matmul_i8_into_isa(&a, &p, &mut scalar, QuantIsa::Scalar);
            for isa in [QuantIsa::Avx2, QuantIsa::Vnni] {
                let mut out = Matrix::zeros(m, n);
                matmul_i8_into_isa(&a, &p, &mut out, isa);
                assert_eq!(out, scalar, "{} int8 diverged from scalar at {m}x{k}x{n}", isa.name());
            }
        }
    }

    #[test]
    fn int8_product_approximates_f32_product() {
        let mut rng = SeededRng::new(0x0F32);
        let a = random_matrix(&mut rng, 16, 96, -1.0, 1.0);
        let w = random_matrix(&mut rng, 96, 64, -0.5, 0.5);
        let p = PackedI8::pack(&w);
        let mut q = Matrix::zeros(16, 64);
        matmul_i8_into(&a, &p, &mut q);
        let mut exact = Matrix::zeros(16, 64);
        a.matmul_into(&w, &mut exact);
        // Coarse sanity bound: per-channel symmetric int8 with 8-bit
        // activations lands well under 2% relative error at this size.
        let scale = exact.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (g, e) in q.data().iter().zip(exact.data()) {
            assert!((g - e).abs() <= 0.02 * scale + 1e-3, "int8 error too large: {g} vs {e}");
        }
    }

    #[test]
    fn zero_activation_rows_produce_zero_outputs() {
        let mut rng = SeededRng::new(0x0A11);
        let mut a = random_matrix(&mut rng, 5, 24, -1.0, 1.0);
        a.row_mut(2).fill(0.0);
        let w = random_matrix(&mut rng, 24, 17, -1.0, 1.0);
        let p = PackedI8::pack(&w);
        let mut out = Matrix::zeros(5, 17);
        matmul_i8_into(&a, &p, &mut out);
        assert!(out.row(2).iter().all(|&v| v == 0.0), "zero row must stay exactly zero");
    }
}
