//! Fused multi-head scaled dot-product attention, forward and
//! backward.
//!
//! [`attention_into`] computes, for every head `h` with columns
//! `lo..hi` (`head_dim = dim / heads`),
//! `softmax(q[:, lo..hi] k[:, lo..hi]^T * scale + bias) v[:, lo..hi]`
//! and writes it straight into columns `lo..hi` of the output. Both of
//! `occu-nn`'s recorders run it: a compiled plan's `Attention`
//! instruction, and the tape's attention node, which also keeps each
//! head's softmax rows for [`attention_backward_into`]. The pair is the
//! one-pass form of the op sequence the tape recorded for attention
//! before (column slices, `matmul_transb`, scale, bias add, row
//! softmax, `matmul`, concatenation, and their backward rules), and it
//! returns that sequence's bits:
//!
//! * each score is one chain over the head dimension in ascending
//!   order from `+0.0`, a separate mul then add per step, as in the
//!   blocked GEMM (see [`crate::gemm`]'s determinism notes);
//! * the score is then multiplied by `scale`, then `bias[i][j]` is
//!   added;
//! * each row goes through the same softmax as
//!   [`crate::Matrix::softmax_rows_into`];
//! * each output element is one chain over the keys in ascending
//!   order from `+0.0`;
//! * the backward's products are chains in the GEMMs' orders too (see
//!   [`attention_backward_into`]).
//!
//! The streaming `dot` path of `matmul_transb_into` (products under
//! [`crate::use_blocked`]) starts its chain from `-0.0` instead, so a
//! score whose every product is `-0.0` may differ in the sign of its
//! zero; the bias add and the softmax's shift erase that sign, which
//! the tests pin.
//!
//! The kernels work one head and one block of [`ROWS`] query rows at
//! a time. Per head the forward copies `k`'s head columns into a key
//! panel (chunks of eight keys, head-dimension-major within a chunk)
//! and `v`'s into a value panel padded to whole 8-lane chunks; per row
//! block it computes each probability row in an L1-resident buffer
//! with four key chunks in flight, then multiplies the block by the
//! value panel with one accumulator row per query row. The backward
//! reuses both loops with the roles swapped (a key panel of `v`, a
//! value panel of `k`) and adds one transposed accumulation for the
//! key and value gradients. All scratch buffers come from the caller's
//! [`ScratchArena`], so a warm arena makes the calls allocation-free.
//! The inner loops run as AVX2 lanes ([`crate::simd`]) or their scalar
//! twins below, chosen like the other row-wise primitives.

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
/// shared by every head) is added before the row softmax. When
/// `probs` (`heads * n x m`) is given, row `h * n + i` receives head
/// `h`'s softmax row `i`, which [`attention_backward_into`] reads.
/// Scratch buffers are taken from and returned to `arena`.
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
    probs: Option<&mut Matrix>,
    arena: &mut ScratchArena,
) {
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    attention_into_isa(q, k, v, heads, scale, bias, out, probs, arena, isa);
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
    mut probs: Option<&mut Matrix>,
    arena: &mut ScratchArena,
    isa: Isa,
) {
    let (n, m, d) = check_shapes(q, k, v, heads);
    let dim = d * heads;
    assert_eq!(out.shape(), (n, dim), "attention: bad output shape");
    if let Some(b) = bias {
        assert_eq!(b.shape(), (n, m), "attention: bias shape mismatch");
    }
    if let Some(p) = probs.as_deref() {
        assert_eq!(p.shape(), (heads * n, m), "attention: probs shape mismatch");
    }
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
                if let Some(keep) = probs.as_deref_mut() {
                    keep.row_mut(h * n + i).copy_from_slice(prow);
                }
            }
            let block = &mut out.data_mut()[i0 * dim..(i0 + rows) * dim];
            weighted_values(&p, mp, &vp, m, dp, rows, block, dim, lo, d, isa);
        }
    }
    arena.recycle_vec(kt);
    arena.recycle_vec(vp);
    arena.recycle_vec(p);
}

/// Gradients of [`attention_into`] given the upstream gradient `dout`
/// (`n x dim`) and the forward's `probs`: `dq` (`n x dim`), `dk` and
/// `dv` (`m x dim`) are overwritten, and `dbias` (`heads * n x m`),
/// when given, receives each head's gradient of the biased scores in
/// row `h * n + i`, unsummed, so the caller can add the heads in the
/// order it needs.
///
/// Per head and per block of [`ROWS`] query rows it runs the
/// arithmetic of the tape's per-head op sequence in that sequence's
/// order, so every output has the same bits:
///
/// * `dP = dO_h V_h^T`, each element one `+0.0`-based chain over the
///   head dimension (the forward's score kernel on a key panel of `v`,
///   scale `1.0`);
/// * the softmax backward per row: `dot = sum(dP * P)` as one
///   sequential sum (std's, from `-0.0`), then `dS = P * (dP - dot)`;
///   `dS` is the bias gradient, and `dS * scale` the score gradient;
/// * `dQ_h = (dS * scale) K_h`, each element one chain over the keys
///   (the forward's value kernel on a value panel of `k`);
/// * `dV_h += P^T dO_h` and `dK_h += (dS * scale)^T Q_h`, each element
///   one chain over the query rows in ascending order, continued
///   across row blocks.
///
/// The streaming path of `matmul_transb_into` (which the tape used for
/// `dP` under [`crate::use_blocked`]) sums from `-0.0`, so an all-zero
/// `dP` may differ in the sign of its zero; every gradient a `+0.0`
/// based sum consumes comes out the same, which the tests pin.
///
/// # Panics
/// On mismatched shapes or a `dim` that `heads` does not divide.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_into(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    probs: &Matrix,
    dout: &Matrix,
    heads: usize,
    scale: f32,
    dq: &mut Matrix,
    dk: &mut Matrix,
    dv: &mut Matrix,
    dbias: Option<&mut Matrix>,
    arena: &mut ScratchArena,
) {
    let isa = rowwise_isa();
    dispatch::note_dispatch(isa);
    attention_backward_into_isa(
        q, k, v, probs, dout, heads, scale, dq, dk, dv, dbias, arena, isa,
    );
}

/// [`attention_backward_into`] on an already-resolved ISA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_backward_into_isa(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    probs: &Matrix,
    dout: &Matrix,
    heads: usize,
    scale: f32,
    dq: &mut Matrix,
    dk: &mut Matrix,
    dv: &mut Matrix,
    mut dbias: Option<&mut Matrix>,
    arena: &mut ScratchArena,
    isa: Isa,
) {
    let (n, m, d) = check_shapes(q, k, v, heads);
    let dim = d * heads;
    assert_eq!(
        probs.shape(),
        (heads * n, m),
        "attention backward: probs shape mismatch"
    );
    assert_eq!(
        dout.shape(),
        (n, dim),
        "attention backward: gradient shape mismatch"
    );
    assert_eq!(dq.shape(), (n, dim), "attention backward: bad dq shape");
    assert_eq!(dk.shape(), (m, dim), "attention backward: bad dk shape");
    assert_eq!(dv.shape(), (m, dim), "attention backward: bad dv shape");
    if let Some(db) = dbias.as_deref() {
        assert_eq!(
            db.shape(),
            (heads * n, m),
            "attention backward: bad dbias shape"
        );
    }
    let chunks = m.div_ceil(LANES);
    let mp = chunks * LANES;
    let dp = d.div_ceil(LANES) * LANES;
    let mut vt = scratch(arena, chunks * d * LANES);
    let mut kp = scratch(arena, m * dp);
    let mut ds = scratch(arena, ROWS * mp);
    let mut xo = scratch(arena, ROWS * dp);
    let mut xq = scratch(arena, ROWS * dp);
    let mut dv_acc = scratch(arena, m * dp);
    let mut dk_acc = scratch(arena, m * dp);
    for h in 0..heads {
        let lo = h * d;
        pack_keys(v, lo, d, &mut vt);
        pack_values(k, lo, d, dp, &mut kp);
        dv_acc.fill(0.0);
        dk_acc.fill(0.0);
        for i0 in (0..n).step_by(ROWS) {
            let rows = ROWS.min(n - i0);
            let pblock = &probs.data()[(h * n + i0) * m..(h * n + i0 + rows) * m];
            for (r, srow) in ds.chunks_exact_mut(mp).take(rows).enumerate() {
                scores(&dout.row(i0 + r)[lo..lo + d], &vt, 1.0, srow, isa);
            }
            // Each row's dot is one sequential chain; a pass of their own
            // lets the rows' chains overlap.
            let mut dots = [0.0f32; ROWS];
            for (dot, (srow, prow)) in dots
                .iter_mut()
                .zip(ds.chunks_exact(mp).zip(pblock.chunks_exact(m)))
            {
                *dot = srow[..m].iter().zip(prow).map(|(g, p)| g * p).sum();
            }
            for (r, (srow, prow)) in ds
                .chunks_exact_mut(mp)
                .zip(pblock.chunks_exact(m))
                .enumerate()
            {
                let srow = &mut srow[..m];
                for (g, &p) in srow.iter_mut().zip(prow) {
                    *g = p * (*g - dots[r]);
                }
                if let Some(db) = dbias.as_deref_mut() {
                    db.row_mut(h * n + i0 + r).copy_from_slice(srow);
                }
                for g in srow.iter_mut() {
                    *g *= scale;
                }
            }
            let block = &mut dq.data_mut()[i0 * dim..(i0 + rows) * dim];
            weighted_values(&ds, mp, &kp, m, dp, rows, block, dim, lo, d, isa);
            pack_rows(dout, i0, rows, lo, d, dp, &mut xo);
            pack_rows(q, i0, rows, lo, d, dp, &mut xq);
            acc_transposed(pblock, m, &xo, dp, rows, m, &mut dv_acc, isa);
            acc_transposed(&ds, mp, &xq, dp, rows, m, &mut dk_acc, isa);
        }
        for (j, (vr, kr)) in dv_acc
            .chunks_exact(dp)
            .zip(dk_acc.chunks_exact(dp))
            .enumerate()
        {
            dv.row_mut(j)[lo..lo + d].copy_from_slice(&vr[..d]);
            dk.row_mut(j)[lo..lo + d].copy_from_slice(&kr[..d]);
        }
    }
    for buf in [vt, kp, ds, xo, xq, dv_acc, dk_acc] {
        arena.recycle_vec(buf);
    }
}

/// Checks the operand shapes shared by both directions and returns
/// `(n, m, head_dim)`.
fn check_shapes(q: &Matrix, k: &Matrix, v: &Matrix, heads: usize) -> (usize, usize, usize) {
    let (n, dim) = q.shape();
    let m = k.rows();
    assert!(
        heads > 0 && dim > 0 && dim.is_multiple_of(heads),
        "attention: {dim} columns in {heads} heads"
    );
    assert_eq!(k.cols(), dim, "attention: key width mismatch");
    assert_eq!(v.shape(), (m, dim), "attention: value shape mismatch");
    (n, m, dim / heads)
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

/// Head columns `lo..lo + d` of rows `i0..i0 + rows` of `x` as `rows`
/// panel rows `dp` wide, the columns from `d` to `dp` zero.
fn pack_rows(x: &Matrix, i0: usize, rows: usize, lo: usize, d: usize, dp: usize, buf: &mut [f32]) {
    for (r, row) in buf.chunks_exact_mut(dp).take(rows).enumerate() {
        row[..d].copy_from_slice(&x.row(i0 + r)[lo..lo + d]);
        row[d..].fill(0.0);
    }
}

/// `acc[j][..dp] += sum over r < rows of p[r][j] * x[r][..dp]` for
/// every key `j < m`, adding the rows in ascending order, one
/// mul-then-add per step: the transposed products `P^T dO` and
/// `dS^T Q` of the backward, one block of query rows at a time. `p`
/// rows are `ldp` apart; `x` is `rows x dp` and `acc` is `m x dp`.
#[allow(clippy::too_many_arguments)]
fn acc_transposed(
    p: &[f32],
    ldp: usize,
    x: &[f32],
    dp: usize,
    rows: usize,
    m: usize,
    acc: &mut [f32],
    isa: Isa,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 implies runtime detection succeeded.
        Isa::Avx2 => unsafe {
            crate::simd::x86::attn_acc_transposed_avx2(p, ldp, x, dp, rows, m, acc)
        },
        _ => acc_transposed_scalar(p, ldp, x, dp, rows, m, acc),
    }
}

/// Scalar twin of `simd::x86::attn_acc_transposed_avx2`.
fn acc_transposed_scalar(
    p: &[f32],
    ldp: usize,
    x: &[f32],
    dp: usize,
    rows: usize,
    m: usize,
    acc: &mut [f32],
) {
    for (j, arow) in acc.chunks_exact_mut(dp).take(m).enumerate() {
        for (r, xr) in x.chunks_exact(dp).take(rows).enumerate() {
            let pj = p[r * ldp + j];
            for (a, &xv) in arow.iter_mut().zip(xr) {
                *a += pj * xv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{use_blocked, SeededRng};

    /// Head `h`'s columns of `x`.
    fn head(x: &Matrix, h: usize, d: usize) -> Matrix {
        Matrix::from_fn(x.rows(), d, |r, c| x.get(r, h * d + c))
    }

    /// `m`'s rows as rows `at..` of `dst`.
    fn put_rows(dst: &mut Matrix, at: usize, m: &Matrix) {
        for r in 0..m.rows() {
            dst.row_mut(at + r).copy_from_slice(m.row(r));
        }
    }

    /// `m`'s columns as columns `lo..` of `dst`.
    fn put_cols(dst: &mut Matrix, lo: usize, m: &Matrix) {
        for r in 0..m.rows() {
            dst.row_mut(r)[lo..lo + m.cols()].copy_from_slice(m.row(r));
        }
    }

    /// The op sequence the tape recorded for attention, on existing
    /// `Matrix` ops: per head, slice, `matmul_transb`, scale, bias
    /// add, row softmax, `matmul`, then the columns side by side.
    /// Returns the output and the heads' softmax rows stacked.
    fn composed(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        scale: f32,
        bias: Option<&Matrix>,
    ) -> (Matrix, Matrix) {
        let (n, dim) = q.shape();
        let m = k.rows();
        let d = dim / heads;
        let mut out = Matrix::zeros(n, dim);
        let mut probs = Matrix::zeros(heads * n, m);
        for h in 0..heads {
            let (qh, kh, vh) = (head(q, h, d), head(k, h, d), head(v, h, d));
            let mut s = Matrix::zeros(n, m);
            qh.matmul_transb_into(&kh, &mut s);
            let mut s = s.map(|e| e * scale);
            if let Some(b) = bias {
                s = s.zip_map(b, |x, y| x + y);
            }
            let mut a = Matrix::zeros(n, m);
            s.softmax_rows_into(&mut a);
            let mut oh = Matrix::zeros(n, d);
            a.matmul_into(&vh, &mut oh);
            put_cols(&mut out, h * d, &oh);
            put_rows(&mut probs, h * n, &a);
        }
        (out, probs)
    }

    /// The tape's old reverse sweep over that sequence, per head: the
    /// value matmul's `matmul_transb_into` and `matmul_transa_into`,
    /// the softmax backward's sequential dot, the bias gradient, the
    /// scale, then the score product's `matmul_into` and
    /// `matmul_transa_into`. Returns `(dq, dk, dv, dbias)`, the heads'
    /// bias gradients stacked.
    fn composed_backward(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        probs: &Matrix,
        dout: &Matrix,
        heads: usize,
        scale: f32,
    ) -> [Matrix; 4] {
        let (n, dim) = q.shape();
        let m = k.rows();
        let d = dim / heads;
        let mut grads = [
            Matrix::zeros(n, dim),
            Matrix::zeros(m, dim),
            Matrix::zeros(m, dim),
            Matrix::zeros(heads * n, m),
        ];
        for h in 0..heads {
            let (qh, kh, vh, g) = (
                head(q, h, d),
                head(k, h, d),
                head(v, h, d),
                head(dout, h, d),
            );
            let a = Matrix::from_fn(n, m, |r, c| probs.get(h * n + r, c));
            let mut ds = Matrix::zeros(n, m);
            g.matmul_transb_into(&vh, &mut ds);
            let mut dvh = Matrix::zeros(m, d);
            a.matmul_transa_into(&g, &mut dvh);
            for r in 0..n {
                let dot: f32 = ds.row(r).iter().zip(a.row(r)).map(|(x, y)| x * y).sum();
                for (x, &y) in ds.row_mut(r).iter_mut().zip(a.row(r)) {
                    *x = y * (*x - dot);
                }
            }
            put_rows(&mut grads[3], h * n, &ds);
            ds.map_inplace(|x| x * scale);
            let mut dqh = Matrix::zeros(n, d);
            ds.matmul_into(&kh, &mut dqh);
            let mut dkh = Matrix::zeros(m, d);
            ds.matmul_transa_into(&qh, &mut dkh);
            put_cols(&mut grads[0], h * d, &dqh);
            put_cols(&mut grads[1], h * d, &dkh);
            put_cols(&mut grads[2], h * d, &dvh);
        }
        grads
    }

    fn rungs() -> Vec<Isa> {
        let mut isas = vec![Isa::Scalar];
        if rowwise_isa() == Isa::Avx2 {
            isas.push(Isa::Avx2);
        }
        isas
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (e, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {e} is {g}, composed {w}"
            );
        }
    }

    fn scale_of(q: &Matrix, heads: usize) -> f32 {
        1.0 / ((q.cols() / heads) as f32).sqrt()
    }

    fn check(q: &Matrix, k: &Matrix, v: &Matrix, heads: usize, bias: Option<&Matrix>, what: &str) {
        let scale = scale_of(q, heads);
        let (want, want_probs) = composed(q, k, v, heads, scale, bias);
        let mut arena = ScratchArena::new();
        for isa in rungs() {
            let mut got = Matrix::from_fn(q.rows(), q.cols(), |_, _| f32::NAN);
            attention_into_isa(q, k, v, heads, scale, bias, &mut got, None, &mut arena, isa);
            assert_bits(&got, &want, &format!("{what} on {isa:?}"));
            let mut probs = Matrix::from_fn(want_probs.rows(), want_probs.cols(), |_, _| f32::NAN);
            attention_into_isa(
                q,
                k,
                v,
                heads,
                scale,
                bias,
                &mut got,
                Some(&mut probs),
                &mut arena,
                isa,
            );
            assert_bits(&got, &want, &format!("{what} on {isa:?}, keeping probs"));
            assert_bits(&probs, &want_probs, &format!("{what} on {isa:?}: probs"));
        }
    }

    /// Checks [`attention_backward_into`] on every rung against
    /// [`composed_backward`] for upstream gradient `dout`.
    #[allow(clippy::too_many_arguments)]
    fn check_backward(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        heads: usize,
        bias: Option<&Matrix>,
        dout: &Matrix,
        what: &str,
    ) {
        let scale = scale_of(q, heads);
        let (_, probs) = composed(q, k, v, heads, scale, bias);
        let want = composed_backward(q, k, v, &probs, dout, heads, scale);
        let mut arena = ScratchArena::new();
        for isa in rungs() {
            let nan = |m: &Matrix| Matrix::from_fn(m.rows(), m.cols(), |_, _| f32::NAN);
            let mut got = [nan(&want[0]), nan(&want[1]), nan(&want[2]), nan(&want[3])];
            let [dq, dk, dv, db] = &mut got;
            attention_backward_into_isa(
                q,
                k,
                v,
                &probs,
                dout,
                heads,
                scale,
                dq,
                dk,
                dv,
                Some(db),
                &mut arena,
                isa,
            );
            for (name, (g, w)) in ["dq", "dk", "dv", "dbias"]
                .iter()
                .zip(got.iter().zip(&want))
            {
                assert_bits(g, w, &format!("{what} on {isa:?}: {name}"));
            }
            let [dq, dk, dv, _] = &mut got;
            attention_backward_into_isa(
                q, k, v, &probs, dout, heads, scale, dq, dk, dv, None, &mut arena, isa,
            );
            for (name, (g, w)) in ["dq", "dk", "dv"].iter().zip(got.iter().zip(&want)) {
                assert_bits(g, w, &format!("{what} on {isa:?} without dbias: {name}"));
            }
        }
    }

    /// Calls `f(q, k, v, heads, bias, what)` over ragged shapes: head
    /// dims 1/7/8/9/16/64 by 1-4 heads with `n` over `SIZES` and `m`
    /// walking the same set, then every `(n, m)` pair at 2 heads of 8.
    /// Asserts that each product of both directions falls on both
    /// sides of `use_blocked`: the scores and `dP` (n, d, m), the
    /// output and `dQ` (n, m, d), and `dV` and `dK` (m, n, d). The
    /// streaming score path sums from -0.0, the blocked one from +0.0.
    fn ragged_sweep(
        rng: &mut SeededRng,
        mut f: impl FnMut(&Matrix, &Matrix, &Matrix, usize, &Matrix, &str),
    ) {
        const SIZES: [usize; 8] = [1, 3, 4, 7, 8, 9, 45, 130];
        let mut blocked = [[false; 2]; 3];
        let mut case = |rng: &mut SeededRng, n: usize, m: usize, d: usize, heads: usize| {
            for (side, (a, b, c)) in blocked.iter_mut().zip([(n, d, m), (n, m, d), (m, n, d)]) {
                side[use_blocked(a, b, c) as usize] = true;
            }
            let dim = d * heads;
            let q = Matrix::randn(n, dim, 1.0, rng);
            let k = Matrix::randn(m, dim, 1.0, rng);
            let v = Matrix::randn(m, dim, 1.0, rng);
            let bias = Matrix::randn(n, m, 1.0, rng);
            f(
                &q,
                &k,
                &v,
                heads,
                &bias,
                &format!("n={n} m={m} d={d} heads={heads}"),
            );
        };
        for d in [1usize, 7, 8, 9, 16, 64] {
            for heads in 1..=4 {
                // A sparse walk over (n, m) keeps the run short while
                // every size still meets every head shape.
                for (si, &n) in SIZES.iter().enumerate() {
                    case(rng, n, SIZES[(si * 3 + d + heads) % SIZES.len()], d, heads);
                }
            }
        }
        for n in SIZES {
            for m in SIZES {
                case(rng, n, m, 8, 2);
            }
        }
        assert_eq!(blocked, [[true; 2]; 3]);
    }

    #[test]
    fn matches_the_composed_ops_bitwise_over_ragged_shapes() {
        ragged_sweep(&mut SeededRng::new(0xA77), |q, k, v, heads, bias, what| {
            check(q, k, v, heads, None, what);
            check(q, k, v, heads, Some(bias), &format!("{what} biased"));
        });
    }

    #[test]
    fn backward_matches_the_composed_ops_bitwise_over_ragged_shapes() {
        let mut grad_rng = SeededRng::new(0xB4C);
        ragged_sweep(&mut SeededRng::new(0xA78), |q, k, v, heads, bias, what| {
            let dout = Matrix::randn(q.rows(), q.cols(), 1.0, &mut grad_rng);
            check_backward(q, k, v, heads, None, &dout, what);
            check_backward(q, k, v, heads, Some(bias), &dout, &format!("{what} biased"));
        });
    }

    /// Query row 0 is +0.0 and row 1 -0.0. Key 0 is all negative and
    /// key 1 all positive, so those scores are chains of -0.0 products,
    /// which the streaming path sums to -0.0 and the kernel to +0.0.
    /// Rows 2.. reach the exp cutoffs (scores near +-88 after scaling).
    /// Returns `(q, k, v, biases)` at `n = 9`, `m = 11`, 2 heads of 8.
    fn cutoff_inputs(rng: &mut SeededRng) -> (Matrix, Matrix, Matrix, [Matrix; 2]) {
        let (n, m, d, heads) = (9, 11, 8, 2);
        let dim = d * heads;
        assert!(!use_blocked(n, d, m), "scores take the streaming path");
        let mut q = Matrix::randn(n, dim, 1.0, rng);
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
        let v = Matrix::randn(m, dim, 1.0, rng);
        let specials = [0.0f32, -0.0, -87.5, 87.5, 1.0];
        let bias = Matrix::from_fn(n, m, |r, c| specials[(r + c) % specials.len()]);
        let neg_zero_bias = Matrix::from_fn(n, m, |_, _| -0.0);
        (q, k, v, [bias, neg_zero_bias])
    }

    #[test]
    fn zero_query_rows_and_exp_cutoffs_match() {
        let (q, k, v, [bias, neg_zero_bias]) = cutoff_inputs(&mut SeededRng::new(0xC07));
        check(&q, &k, &v, 2, None, "cutoffs");
        check(&q, &k, &v, 2, Some(&bias), "cutoffs biased");
        check(&q, &k, &v, 2, Some(&neg_zero_bias), "cutoffs -0.0 bias");
    }

    /// The forward's cutoff inputs under upstream gradients with zero
    /// rows of both signs: the streaming `dP` of a +0.0 or -0.0
    /// gradient row is a chain of signed zeros.
    #[test]
    fn backward_zero_rows_and_exp_cutoffs_match() {
        let mut rng = SeededRng::new(0xC08);
        let (q, k, v, [bias, neg_zero_bias]) = cutoff_inputs(&mut rng);
        let mut dout = Matrix::randn(q.rows(), q.cols(), 1.0, &mut rng);
        dout.row_mut(3).fill(0.0);
        dout.row_mut(4).fill(-0.0);
        for (c, x) in dout.row_mut(5).iter_mut().enumerate() {
            *x = if c % 2 == 0 { 0.0 } else { -0.0 };
        }
        for (b, what) in [
            (None, "cutoffs"),
            (Some(&bias), "cutoffs biased"),
            (Some(&neg_zero_bias), "cutoffs -0.0 bias"),
        ] {
            check_backward(&q, &k, &v, 2, b, &dout, what);
        }
    }
}
