//! Fused multi-head scaled dot-product attention.
//!
//! [`attention_into`] computes, for every head `h` with columns
//! `lo..hi` (`head_dim = dim / heads`),
//! `softmax(q[:, lo..hi] k[:, lo..hi]^T * scale + bias) v[:, lo..hi]`
//! and writes it straight into columns `lo..hi` of the output. It is
//! the one-pass form of the op sequence `occu-nn`'s tape records for
//! attention (column slices, `matmul_transb`, scale, bias add, row
//! softmax, `matmul`, concatenation), and it returns the same bits:
//!
//! * each score is one chain over the head dimension in ascending
//!   order from `+0.0`, a separate mul then add per step, as in the
//!   blocked GEMM (see [`crate::gemm`]'s determinism notes);
//! * the score is then multiplied by `scale`, then `bias[i][j]` is
//!   added;
//! * each row goes through the same softmax as
//!   [`crate::Matrix::softmax_rows_into`];
//! * each output element is one chain over the keys in ascending
//!   order from `+0.0`.
//!
//! The streaming `dot` path of `matmul_transb_into` (products under
//! [`crate::use_blocked`]) starts its chain from `-0.0` instead, so a
//! score whose every product is `-0.0` may differ in the sign of its
//! zero; the bias add and the softmax's shift erase that sign, which
//! the tests pin.
//!
//! The kernel works one head and one block of [`ROWS`] query rows at
//! a time. Per head it copies `k`'s head columns into a key panel
//! (chunks of eight keys, head-dimension-major within a chunk) and
//! `v`'s into a value panel padded to whole 8-lane chunks; per row
//! block it computes each probability row in an L1-resident buffer
//! with four key chunks in flight, then multiplies the block by the
//! value panel with one accumulator row per query row. All three
//! scratch buffers come from the caller's [`ScratchArena`], so a warm
//! arena makes the call allocation-free. The inner loops run as AVX2
//! lanes ([`crate::simd`]) or their scalar twins below, chosen like
//! the other row-wise primitives.

use crate::dispatch::{self, Isa};
use crate::ops::{add_slice, rowwise_isa, softmax_row};
use crate::{Matrix, ScratchArena};

/// Lanes per key chunk and per value-panel column chunk.
pub(crate) const LANES: usize = 8;
/// Key chunks whose score chains run in flight per query row.
pub(crate) const KEY_GROUP: usize = 4;
/// Query rows per block (one value-panel accumulator row each).
pub(crate) const ROWS: usize = 8;

/// Multi-head attention of `q` (`n x dim`) over keys `k` and values
/// `v` (both `m x dim`) with `heads` heads, written into `out`
/// (`n x dim`). Scores are scaled by `scale`, then `bias` (`n x m`,
/// shared by every head) is added before the row softmax. Scratch
/// buffers are taken from and returned to `arena`.
///
/// # Panics
/// On mismatched shapes or a `dim` that `heads` does not divide.
#[allow(clippy::too_many_arguments)]
pub fn attention_into(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    scale: f32,
    bias: Option<&Matrix>,
    out: &mut Matrix,
    arena: &mut ScratchArena,
) {
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    attention_into_isa(q, k, v, heads, scale, bias, out, arena, isa);
}

/// [`attention_into`] on an already-resolved ISA (the tests run both
/// rungs in one process).
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_into_isa(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    heads: usize,
    scale: f32,
    bias: Option<&Matrix>,
    out: &mut Matrix,
    arena: &mut ScratchArena,
    isa: Isa,
) {
    let (n, dim) = q.shape();
    let m = k.rows();
    assert!(
        heads > 0 && dim > 0 && dim.is_multiple_of(heads),
        "attention: {dim} columns in {heads} heads"
    );
    assert_eq!(k.cols(), dim, "attention: key width mismatch");
    assert_eq!(v.shape(), (m, dim), "attention: value shape mismatch");
    assert_eq!(out.shape(), (n, dim), "attention: bad output shape");
    if let Some(b) = bias {
        assert_eq!(b.shape(), (n, m), "attention: bias shape mismatch");
    }
    let d = dim / heads;
    let chunks = m.div_ceil(LANES);
    let mp = chunks * LANES;
    let dp = d.div_ceil(LANES) * LANES;
    let mut kt = scratch(arena, chunks * d * LANES);
    let mut vp = scratch(arena, m * dp);
    let mut p = scratch(arena, ROWS * mp);
    for h in 0..heads {
        let lo = h * d;
        pack_keys(k, lo, d, &mut kt);
        pack_values(v, lo, d, dp, &mut vp);
        for i0 in (0..n).step_by(ROWS) {
            let rows = ROWS.min(n - i0);
            for (r, prow) in p.chunks_exact_mut(mp).take(rows).enumerate() {
                let i = i0 + r;
                scores(&q.row(i)[lo..lo + d], &kt, scale, prow, isa);
                let prow = &mut prow[..m];
                if let Some(b) = bias {
                    add_slice(prow, b.row(i), isa);
                }
                softmax_row(prow, isa);
            }
            let block = &mut out.data_mut()[i0 * dim..(i0 + rows) * dim];
            weighted_values(&p, mp, &vp, m, dp, rows, block, dim, lo, d, isa);
        }
    }
    arena.recycle_vec(kt);
    arena.recycle_vec(vp);
    arena.recycle_vec(p);
}

/// A zero-filled `len`-element buffer from the arena.
fn scratch(arena: &mut ScratchArena, len: usize) -> Vec<f32> {
    let mut v = arena.take_vec(len);
    v.resize(len, 0.0);
    v
}

/// Key panel of one head: chunk `c` holds keys `8c..8c+8` as `d` rows
/// of eight lanes, `kt[(c * d + t) * 8 + l] = k[8c + l][lo + t]`; the
/// lanes past the last key are zero.
fn pack_keys(k: &Matrix, lo: usize, d: usize, kt: &mut [f32]) {
    let m = k.rows();
    for (c, chunk) in kt.chunks_exact_mut(d * LANES).enumerate() {
        for l in 0..LANES {
            let j = c * LANES + l;
            if j < m {
                for (t, &x) in k.row(j)[lo..lo + d].iter().enumerate() {
                    chunk[t * LANES + l] = x;
                }
            } else {
                for t in 0..d {
                    chunk[t * LANES + l] = 0.0;
                }
            }
        }
    }
}

/// Value panel of one head: `vp[j * dp + c] = v[j][lo + c]`, with the
/// columns from `d` to `dp` zero.
fn pack_values(v: &Matrix, lo: usize, d: usize, dp: usize, vp: &mut [f32]) {
    for (j, row) in vp.chunks_exact_mut(dp).enumerate() {
        row[..d].copy_from_slice(&v.row(j)[lo..lo + d]);
        row[d..].fill(0.0);
    }
}

/// `out[j] = (q . key j) * scale` for every lane of the key panel
/// (`out.len()` is the panel's lane count).
fn scores(q: &[f32], kt: &[f32], scale: f32, out: &mut [f32], isa: Isa) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe { crate::simd::x86::attn_scores_avx2(q, kt, scale, out) },
        _ => scores_scalar(q, kt, scale, out),
    }
}

/// Scalar twin of `simd::x86::attn_scores_avx2`: one `+0.0`-based
/// mul-then-add chain per key over the head dimension, then the scale.
fn scores_scalar(q: &[f32], kt: &[f32], scale: f32, out: &mut [f32]) {
    for (chunk, o) in kt
        .chunks_exact(q.len() * LANES)
        .zip(out.chunks_exact_mut(LANES))
    {
        let mut acc = [0.0f32; LANES];
        for (&qt, kr) in q.iter().zip(chunk.chunks_exact(LANES)) {
            for (a, &kv) in acc.iter_mut().zip(kr) {
                *a += qt * kv;
            }
        }
        for (o, &a) in o.iter_mut().zip(&acc) {
            *o = a * scale;
        }
    }
}

/// `block[r][lo..lo + d] = p[r][..m] * vp` for the block's `rows`
/// query rows; `p` rows are `ldp` apart, `block` rows `ldo`.
#[allow(clippy::too_many_arguments)]
fn weighted_values(
    p: &[f32],
    ldp: usize,
    vp: &[f32],
    m: usize,
    dp: usize,
    rows: usize,
    block: &mut [f32],
    ldo: usize,
    lo: usize,
    d: usize,
    isa: Isa,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe {
            crate::simd::x86::attn_pv_avx2(p, ldp, vp, m, dp, rows, block, ldo, lo, d)
        },
        _ => {
            for r in 0..rows {
                let pr = &p[r * ldp..r * ldp + m];
                let orow = &mut block[r * ldo + lo..r * ldo + lo + d];
                orow.fill(0.0);
                for (&pj, vr) in pr.iter().zip(vp.chunks_exact(dp)) {
                    for (o, &x) in orow.iter_mut().zip(vr) {
                        *o += pj * x;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{use_blocked, SeededRng};

    /// The op sequence the tape records for attention, on existing
    /// `Matrix` ops: per head, slice, `matmul_transb`, scale, bias
    /// add, row softmax, `matmul`, then the columns side by side.
    fn composed(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        scale: f32,
        bias: Option<&Matrix>,
    ) -> Matrix {
        let (n, dim) = q.shape();
        let d = dim / heads;
        let slice = |x: &Matrix, lo: usize| Matrix::from_fn(x.rows(), d, |r, c| x.get(r, lo + c));
        let mut out = Matrix::zeros(n, dim);
        for h in 0..heads {
            let lo = h * d;
            let (qh, kh, vh) = (slice(q, lo), slice(k, lo), slice(v, lo));
            let mut s = Matrix::zeros(n, k.rows());
            qh.matmul_transb_into(&kh, &mut s);
            let mut s = s.map(|e| e * scale);
            if let Some(b) = bias {
                s = s.zip_map(b, |x, y| x + y);
            }
            let mut a = Matrix::zeros(n, k.rows());
            s.softmax_rows_into(&mut a);
            let mut oh = Matrix::zeros(n, d);
            a.matmul_into(&vh, &mut oh);
            for r in 0..n {
                out.row_mut(r)[lo..lo + d].copy_from_slice(oh.row(r));
            }
        }
        out
    }

    fn rungs() -> Vec<Isa> {
        let mut isas = vec![Isa::Scalar];
        if rowwise_isa() == Isa::Avx2 {
            isas.push(Isa::Avx2);
        }
        isas
    }

    fn check(q: &Matrix, k: &Matrix, v: &Matrix, heads: usize, bias: Option<&Matrix>, what: &str) {
        let scale = 1.0 / ((q.cols() / heads) as f32).sqrt();
        let want = composed(q, k, v, heads, scale, bias);
        let mut arena = ScratchArena::new();
        for isa in rungs() {
            let mut got = Matrix::from_fn(q.rows(), q.cols(), |_, _| f32::NAN);
            attention_into_isa(q, k, v, heads, scale, bias, &mut got, &mut arena, isa);
            for (e, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what} on {isa:?}: element {e} is {g}, composed {w}"
                );
            }
        }
    }

    #[test]
    fn matches_the_composed_ops_bitwise_over_ragged_shapes() {
        let sizes = [1usize, 3, 4, 7, 8, 9, 45, 130];
        let mut rng = SeededRng::new(0xA77);
        // Which sides of `use_blocked` the score (n, d, m) and value
        // (n, m, d) products took: the streaming score path sums from
        // -0.0, the blocked one from +0.0.
        let mut scores_blocked = [false; 2];
        let mut values_blocked = [false; 2];
        for &d in &[1usize, 7, 8, 9, 16, 64] {
            for heads in 1..=4 {
                // A sparse walk over (n, m) keeps the run short while
                // every size still meets every head shape.
                for (si, &n) in sizes.iter().enumerate() {
                    let m = sizes[(si * 3 + d + heads) % sizes.len()];
                    scores_blocked[use_blocked(n, d, m) as usize] = true;
                    values_blocked[use_blocked(n, m, d) as usize] = true;
                    let dim = d * heads;
                    let q = Matrix::randn(n, dim, 1.0, &mut rng);
                    let k = Matrix::randn(m, dim, 1.0, &mut rng);
                    let v = Matrix::randn(m, dim, 1.0, &mut rng);
                    let bias = Matrix::randn(n, m, 1.0, &mut rng);
                    let what = format!("n={n} m={m} d={d} heads={heads}");
                    check(&q, &k, &v, heads, None, &what);
                    check(&q, &k, &v, heads, Some(&bias), &format!("{what} biased"));
                }
            }
        }
        assert_eq!(scores_blocked, [true, true]);
        assert_eq!(values_blocked, [true, true]);
        for &n in &sizes {
            for &m in &sizes {
                let q = Matrix::randn(n, 16, 1.0, &mut rng);
                let k = Matrix::randn(m, 16, 1.0, &mut rng);
                let v = Matrix::randn(m, 16, 1.0, &mut rng);
                check(&q, &k, &v, 2, None, &format!("n={n} m={m} d=8 heads=2"));
            }
        }
    }

    #[test]
    fn zero_query_rows_and_exp_cutoffs_match() {
        let (n, m, d, heads) = (9, 11, 8, 2);
        let dim = d * heads;
        assert!(!use_blocked(n, d, m), "scores take the streaming path");
        let mut rng = SeededRng::new(0xC07);
        // Query row 0 is +0.0 and row 1 -0.0. Key 0 is all negative and
        // key 1 all positive, so those scores are chains of -0.0
        // products, which the streaming path sums to -0.0 and the kernel
        // to +0.0. Rows 2.. reach the exp cutoffs (scores near +-88
        // after scaling).
        let mut q = Matrix::randn(n, dim, 1.0, &mut rng);
        q.row_mut(0).fill(0.0);
        q.row_mut(1).fill(-0.0);
        for r in 2..n {
            for (c, x) in q.row_mut(r).iter_mut().enumerate() {
                *x = if (r + c) % 3 == 0 { 40.0 } else { -35.0 };
            }
        }
        let k = Matrix::from_fn(m, dim, |r, c| match r {
            0 => -1.0,
            1 => 0.75,
            _ if (r * 7 + c) % 4 == 0 => -1.0,
            _ => 0.75,
        });
        let streamed = q.matmul_transb(&k);
        assert!(streamed.get(0, 0) == 0.0 && streamed.get(0, 0).is_sign_negative());
        assert!(streamed.get(1, 1) == 0.0 && streamed.get(1, 1).is_sign_negative());
        let v = Matrix::randn(m, dim, 1.0, &mut rng);
        let specials = [0.0f32, -0.0, -87.5, 87.5, 1.0];
        let bias = Matrix::from_fn(n, m, |r, c| specials[(r + c) % specials.len()]);
        let neg_zero_bias = Matrix::from_fn(n, m, |_, _| -0.0);
        check(&q, &k, &v, heads, None, "cutoffs");
        check(&q, &k, &v, heads, Some(&bias), "cutoffs biased");
        check(&q, &k, &v, heads, Some(&neg_zero_bias), "cutoffs -0.0 bias");
    }
}
