//! `std::arch` SIMD implementations of the GEMM micro-kernel and the
//! fused row-wise primitives, selected at runtime by
//! [`crate::dispatch`].
//!
//! # Determinism contract
//!
//! Every kernel here is **bitwise-equal** to its scalar counterpart in
//! `gemm.rs`/`ops.rs`:
//!
//! * The GEMM micro-kernels vectorize across the output columns — one
//!   lane per output element (`NR = 8` for AVX2, two adjacent
//!   `NR`-panels at once for AVX-512) — while each lane still performs
//!   a separate round-to-nearest multiply followed by a separate add,
//!   in ascending `k` order. That is exactly the scalar
//!   `acc += a[i] * b[j]` chain, so the result is identical bit for
//!   bit (IEEE-754 ops are deterministic; lanes never interact). The
//!   tile *width* only decides how many elements advance per
//!   instruction, never the per-element summation order.
//! * The row-wise reductions (`lane_sum`, `lane_sumsq_dev`) accumulate
//!   lane `j` over elements `j, j+8, j+16, ...` and combine the eight
//!   partials with the fixed tree in [`crate::ops::combine_lanes`] —
//!   the scalar path uses the *same* lane structure, so both orders
//!   coincide.
//! * Elementwise passes (bias add, axpy, the softmax divide, the
//!   layernorm normalize) map one scalar op to one lane.
//! * The exp behind softmax, GELU and its gradient, sigmoid and tanh
//!   (`exp_ps`) runs `ops::exp_scalar`'s sequence per lane: clamp to
//!   `[-87, 88]`; `n = (x * log2 e + 1.5 * 2^23) - 1.5 * 2^23` (round
//!   ties to even); `r = x - n * 0.693359375`, then
//!   `r -= n * -2.12194440e-4`; a degree-5 Horner polynomial `p` in
//!   `r`; `y = p * r^2 + r + 1`;
//!   `y * 2^n` from exponent bits; then 0 below -87, `+inf` above 88,
//!   NaN passed through. Every step is a separate mul or add (no FMA),
//!   so each lane equals the scalar twin bit for bit, and the tails of
//!   a slice simply run the twin.
//!
//! # Safety
//!
//! All functions are `unsafe fn` with a `#[target_feature]` attribute:
//! the caller must guarantee the host CPU supports the named feature.
//! The only callers are the dispatch sites in `gemm.rs`/`ops.rs`,
//! which select these kernels strictly after
//! `is_x86_feature_detected!` succeeds.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::attention::{KEY_GROUP, LANES, ROWS};
    use crate::gemm::{MR, NR};
    use crate::ops::{
        combine_lanes, exp_scalar, gelu_grad_scalar, gelu_scalar, sigmoid_scalar, tanh_scalar, ExpAct, EXP_HI,
        EXP_LO, EXP_POLY, GELU_3K, GELU_C, GELU_K, LN2_HI, LN2_LO, ROUND_MAGIC,
    };
    use core::arch::x86_64::*;

    // The AVX2 kernels hardcode one 8-lane register per accumulator
    // row and a 4-row strip (the AVX-512 kernel, one 16-lane row over
    // two panels); fail the build if the blocking changes.
    const _: () = assert!(NR == 8 && MR == 4, "AVX2 micro-kernel assumes a 4x8 tile");

    /// AVX2 micro-kernel: `C[0..mr, 0..nr] += strip * panel`, bitwise
    /// equal to the scalar [`crate::gemm`] kernel (separate mul then
    /// add per lane, ascending `k`).
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn micro_kernel_avx2(
        mr: usize,
        nr: usize,
        pa_strip: &[f32],
        pb_panel: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) {
        // Stage the C tile through a stack array exactly like the
        // scalar kernel: partial tiles never read or write lanes
        // outside `mr x nr`, and padded lanes only ever accumulate
        // zeros from the zero-padded packing.
        let mut acc = [[0.0f32; NR]; MR];
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
        }
        let mut v0 = _mm256_loadu_ps(acc[0].as_ptr());
        let mut v1 = _mm256_loadu_ps(acc[1].as_ptr());
        let mut v2 = _mm256_loadu_ps(acc[2].as_ptr());
        let mut v3 = _mm256_loadu_ps(acc[3].as_ptr());
        for (a, b) in pa_strip.chunks_exact(MR).zip(pb_panel.chunks_exact(NR)) {
            let vb = _mm256_loadu_ps(b.as_ptr());
            v0 = _mm256_add_ps(v0, _mm256_mul_ps(_mm256_set1_ps(a[0]), vb));
            v1 = _mm256_add_ps(v1, _mm256_mul_ps(_mm256_set1_ps(a[1]), vb));
            v2 = _mm256_add_ps(v2, _mm256_mul_ps(_mm256_set1_ps(a[2]), vb));
            v3 = _mm256_add_ps(v3, _mm256_mul_ps(_mm256_set1_ps(a[3]), vb));
        }
        _mm256_storeu_ps(acc[0].as_mut_ptr(), v0);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), v1);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), v2);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), v3);
        for (i, row) in acc.iter().enumerate().take(mr) {
            c[i * ldc..i * ldc + nr].copy_from_slice(&row[..nr]);
        }
    }

    /// AVX-512 micro-kernel: covers **two** adjacent packed `NR`-panels
    /// per call (`C[0..mr, 0..nr] += strip * [panel | panel']`,
    /// `nr <= 16`), one 16-lane register per accumulator row. Each
    /// lane still performs a separate round-to-nearest multiply then a
    /// separate add in ascending `k`, so the result stays bitwise-equal
    /// to the scalar oracle — the wider tile only changes how many
    /// output elements advance per instruction. A trailing odd panel
    /// (`pb` holding a single panel) drops to the 8-lane AVX2 path,
    /// which follows the identical chain.
    ///
    /// Why this kernel exists: the 4x8 AVX2 tile has only four
    /// accumulator chains and saturates the two 256-bit FP ports at
    /// 16 flops/cycle — almost exactly 2x the SSE2 auto-vectorized
    /// scalar kernel, leaving no headroom once packing overhead is
    /// paid. The 4x16 tile doubles the arithmetic width per chain on
    /// 512-bit FPUs without touching the summation order.
    ///
    /// # Safety
    /// The host CPU must support AVX-512F and AVX-512DQ (and thus
    /// AVX2, which those imply).
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub(crate) unsafe fn micro_kernel_avx512(
        mr: usize,
        nr: usize,
        pa_strip: &[f32],
        pb: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) {
        let kc = pa_strip.len() / MR;
        if pb.len() < 2 * kc * NR {
            // Odd trailing panel: 8 columns at most, same chain.
            return micro_kernel_avx2(mr, nr, pa_strip, pb, c, ldc);
        }
        let (pb0, pb1) = pb.split_at(kc * NR);
        let mut acc = [[0.0f32; 2 * NR]; MR];
        for (i, row) in acc.iter_mut().enumerate().take(mr) {
            row[..nr].copy_from_slice(&c[i * ldc..i * ldc + nr]);
        }
        let mut v0 = _mm512_loadu_ps(acc[0].as_ptr());
        let mut v1 = _mm512_loadu_ps(acc[1].as_ptr());
        let mut v2 = _mm512_loadu_ps(acc[2].as_ptr());
        let mut v3 = _mm512_loadu_ps(acc[3].as_ptr());
        let steps = pa_strip
            .chunks_exact(MR)
            .zip(pb0.chunks_exact(NR).zip(pb1.chunks_exact(NR)));
        for (a, (b0, b1)) in steps {
            // One 16-lane B row from the two panels' k-th rows.
            let vb = _mm512_insertf32x8(
                _mm512_castps256_ps512(_mm256_loadu_ps(b0.as_ptr())),
                _mm256_loadu_ps(b1.as_ptr()),
                1,
            );
            v0 = _mm512_add_ps(v0, _mm512_mul_ps(_mm512_set1_ps(a[0]), vb));
            v1 = _mm512_add_ps(v1, _mm512_mul_ps(_mm512_set1_ps(a[1]), vb));
            v2 = _mm512_add_ps(v2, _mm512_mul_ps(_mm512_set1_ps(a[2]), vb));
            v3 = _mm512_add_ps(v3, _mm512_mul_ps(_mm512_set1_ps(a[3]), vb));
        }
        _mm512_storeu_ps(acc[0].as_mut_ptr(), v0);
        _mm512_storeu_ps(acc[1].as_mut_ptr(), v1);
        _mm512_storeu_ps(acc[2].as_mut_ptr(), v2);
        _mm512_storeu_ps(acc[3].as_mut_ptr(), v3);
        for (i, row) in acc.iter().enumerate().take(mr) {
            c[i * ldc..i * ldc + nr].copy_from_slice(&row[..nr]);
        }
    }

    /// `dst[i] += src[i]`, one lane per element.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_slices_avx2(dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let mut dc = dst.chunks_exact_mut(8);
        let mut sc = src.chunks_exact(8);
        for (d, s) in (&mut dc).zip(&mut sc) {
            let v = _mm256_add_ps(_mm256_loadu_ps(d.as_ptr()), _mm256_loadu_ps(s.as_ptr()));
            _mm256_storeu_ps(d.as_mut_ptr(), v);
        }
        for (d, s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
            *d += *s;
        }
    }

    /// `dst[i] += s * src[i]` (axpy), one mul-then-add per lane —
    /// bitwise the scalar chain.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn axpy_avx2(dst: &mut [f32], s: f32, src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let vs = _mm256_set1_ps(s);
        let mut dc = dst.chunks_exact_mut(8);
        let mut sc = src.chunks_exact(8);
        for (d, b) in (&mut dc).zip(&mut sc) {
            let prod = _mm256_mul_ps(vs, _mm256_loadu_ps(b.as_ptr()));
            let v = _mm256_add_ps(_mm256_loadu_ps(d.as_ptr()), prod);
            _mm256_storeu_ps(d.as_mut_ptr(), v);
        }
        for (d, b) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
            *d += s * *b;
        }
    }

    /// Maximum element of `xs` (`-inf` for empty). Lane-wise max then
    /// a horizontal fold; max is order-insensitive for non-NaN input,
    /// so this matches the scalar left fold. NaN elements are skipped
    /// like `f32::max` skips them: `maxps` returns its second operand
    /// when either is NaN, and the running max (never NaN) goes second.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn max_avx2(xs: &[f32]) -> f32 {
        let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut it = xs.chunks_exact(8);
        for c in &mut it {
            vmax = _mm256_max_ps(_mm256_loadu_ps(c.as_ptr()), vmax);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
        let mut m = lanes.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for &x in it.remainder() {
            m = m.max(x);
        }
        m
    }

    /// Eight-lane-structured sum matching `ops::lane_sum_scalar` bit
    /// for bit: vector partials over full chunks, the tail added
    /// lane-wise, the fixed [`combine_lanes`] tree at the end.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn lane_sum_avx2(xs: &[f32]) -> f32 {
        let mut acc = _mm256_setzero_ps();
        let mut it = xs.chunks_exact(8);
        for c in &mut it {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(c.as_ptr()));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, &x) in it.remainder().iter().enumerate() {
            lanes[j] += x;
        }
        combine_lanes(&lanes)
    }

    /// Lane-structured sum of squared deviations
    /// `sum((x - mean)^2)`, matching `ops::lane_sumsq_dev_scalar`.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn lane_sumsq_dev_avx2(xs: &[f32], mean: f32) -> f32 {
        let vm = _mm256_set1_ps(mean);
        let mut acc = _mm256_setzero_ps();
        let mut it = xs.chunks_exact(8);
        for c in &mut it {
            let d = _mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), vm);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (j, &x) in it.remainder().iter().enumerate() {
            let d = x - mean;
            lanes[j] += d * d;
        }
        combine_lanes(&lanes)
    }

    /// `xs[i] /= denom`, one IEEE division per lane (identical to the
    /// scalar divide; no reciprocal approximation).
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn div_scalar_avx2(xs: &mut [f32], denom: f32) {
        let vd = _mm256_set1_ps(denom);
        let mut it = xs.chunks_exact_mut(8);
        for c in &mut it {
            let v = _mm256_div_ps(_mm256_loadu_ps(c.as_ptr()), vd);
            _mm256_storeu_ps(c.as_mut_ptr(), v);
        }
        for x in it.into_remainder() {
            *x /= denom;
        }
    }

    /// Eight lanes of `ops::exp_scalar`: clamp into
    /// `[EXP_LO, EXP_HI]`, run the scalar twin's operations in its
    /// order, then patch the out-of-range lanes (0 below, `+inf`
    /// above, the input itself for NaN).
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let lo = _mm256_set1_ps(EXP_LO);
        let hi = _mm256_set1_ps(EXP_HI);
        let one = _mm256_set1_ps(1.0);
        let xc = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let t = _mm256_mul_ps(xc, _mm256_set1_ps(std::f32::consts::LOG2_E));
        let n = _mm256_sub_ps(_mm256_add_ps(t, magic), magic);
        let mut r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r), one);
        let bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        ));
        let mut out = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));
        out = _mm256_blendv_ps(out, _mm256_setzero_ps(), _mm256_cmp_ps::<_CMP_LT_OQ>(x, lo));
        out = _mm256_blendv_ps(
            out,
            _mm256_set1_ps(f32::INFINITY),
            _mm256_cmp_ps::<_CMP_GT_OQ>(x, hi),
        );
        _mm256_blendv_ps(out, x, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    /// Eight lanes of `ops::tanh_scalar`.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh_ps(u: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let e = exp_ps(_mm256_mul_ps(
            _mm256_set1_ps(-2.0),
            _mm256_andnot_ps(sign, u),
        ));
        let t = _mm256_div_ps(_mm256_sub_ps(one, e), _mm256_add_ps(one, e));
        // copysign(t, u)
        _mm256_or_ps(_mm256_andnot_ps(sign, t), _mm256_and_ps(sign, u))
    }

    /// Eight lanes of `ops::gelu_scalar`.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu_ps(x: __m256) -> __m256 {
        let k = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_K), x), x),
            x,
        );
        let u = _mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, k));
        let half_x = _mm256_mul_ps(_mm256_set1_ps(0.5), x);
        _mm256_mul_ps(half_x, _mm256_add_ps(_mm256_set1_ps(1.0), tanh_ps(u)))
    }

    /// Eight lanes of `ops::gelu_grad_scalar`.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gelu_grad_ps(x: __m256) -> __m256 {
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let c = _mm256_set1_ps(GELU_C);
        let k = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_K), x), x),
            x,
        );
        let t = tanh_ps(_mm256_mul_ps(c, _mm256_add_ps(x, k)));
        let left = _mm256_mul_ps(half, _mm256_add_ps(one, t));
        let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
        let slope = _mm256_add_ps(
            one,
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_3K), x), x),
        );
        let right = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(half, x), sech2), c),
            slope,
        );
        _mm256_add_ps(left, right)
    }

    /// Eight lanes of `ops::sigmoid_scalar`.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sigmoid_ps(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        // -x flips the sign bit (as scalar negation does, NaN included).
        let e = exp_ps(_mm256_xor_ps(x, _mm256_set1_ps(-0.0)));
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    /// `xs[i] = exp(xs[i] - shift)` and the lane-structured sum of the
    /// results, bitwise `ops::exp_shift_sum_scalar`: vector lanes over
    /// full chunks, the scalar twin on the tail, [`combine_lanes`].
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn exp_shift_sum_avx2(xs: &mut [f32], shift: f32) -> f32 {
        let vs = _mm256_set1_ps(shift);
        let mut acc = _mm256_setzero_ps();
        let mut it = xs.chunks_exact_mut(8);
        for c in &mut it {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), vs));
            _mm256_storeu_ps(c.as_mut_ptr(), e);
            acc = _mm256_add_ps(acc, e);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (lane, x) in lanes.iter_mut().zip(it.into_remainder()) {
            *x = exp_scalar(*x - shift);
            *lane += *x;
        }
        combine_lanes(&lanes)
    }

    /// `out[i] = act(x[i])` for the exp-based activations: the lane
    /// version over full chunks, the scalar twin on the tail.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn exp_act_avx2(act: ExpAct, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), out.len());
        match act {
            ExpAct::Gelu => map_lanes(x, out, |v| gelu_ps(v), gelu_scalar),
            ExpAct::Sigmoid => map_lanes(x, out, |v| sigmoid_ps(v), sigmoid_scalar),
            ExpAct::Tanh => map_lanes(x, out, |v| tanh_ps(v), tanh_scalar),
        }
    }

    /// `g[i] *= gelu'(x[i])`: the lane version over full chunks, the
    /// scalar twin on the tail.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn gelu_grad_mul_avx2(x: &[f32], g: &mut [f32]) {
        debug_assert_eq!(x.len(), g.len());
        let mut gc = g.chunks_exact_mut(8);
        let mut xc = x.chunks_exact(8);
        for (o, c) in (&mut gc).zip(&mut xc) {
            let d = gelu_grad_ps(_mm256_loadu_ps(c.as_ptr()));
            _mm256_storeu_ps(o.as_mut_ptr(), _mm256_mul_ps(_mm256_loadu_ps(o.as_ptr()), d));
        }
        for (o, &v) in gc.into_remainder().iter_mut().zip(xc.remainder()) {
            *o *= gelu_grad_scalar(v);
        }
    }

    /// One elementwise pass: `lanes` over full 8-chunks, `scalar` (its
    /// twin) on the tail.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn map_lanes(
        x: &[f32],
        out: &mut [f32],
        lanes: impl Fn(__m256) -> __m256,
        scalar: fn(f32) -> f32,
    ) {
        let mut oc = out.chunks_exact_mut(8);
        let mut xc = x.chunks_exact(8);
        for (o, c) in (&mut oc).zip(&mut xc) {
            _mm256_storeu_ps(o.as_mut_ptr(), lanes(_mm256_loadu_ps(c.as_ptr())));
        }
        for (o, &v) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
            *o = scalar(v);
        }
    }

    /// `out[j] = (q . key j) * scale` over a key panel laid out as in
    /// `attention::pack_keys` (chunks of eight keys, `q.len()` rows of
    /// eight lanes each), bitwise `attention::scores_scalar`: one
    /// `+0.0`-based mul-then-add chain per lane in ascending head
    /// dimension, then the scale. Four chunks run in flight so the add
    /// latency overlaps; leftover chunks go one at a time.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn attn_scores_avx2(q: &[f32], kt: &[f32], scale: f32, out: &mut [f32]) {
        let step = q.len() * LANES;
        let chunks = out.len() / LANES;
        assert!(out.len() == chunks * LANES && kt.len() == chunks * step);
        let vs = _mm256_set1_ps(scale);
        let kp = kt.as_ptr();
        let op = out.as_mut_ptr();
        let mut c = 0;
        while c + KEY_GROUP <= chunks {
            let base = kp.add(c * step);
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (t, &qt) in q.iter().enumerate() {
                let qb = _mm256_set1_ps(qt);
                let row = base.add(t * LANES);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(qb, _mm256_loadu_ps(row)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(qb, _mm256_loadu_ps(row.add(step))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(qb, _mm256_loadu_ps(row.add(2 * step))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(qb, _mm256_loadu_ps(row.add(3 * step))));
            }
            let dst = op.add(c * LANES);
            _mm256_storeu_ps(dst, _mm256_mul_ps(a0, vs));
            _mm256_storeu_ps(dst.add(LANES), _mm256_mul_ps(a1, vs));
            _mm256_storeu_ps(dst.add(2 * LANES), _mm256_mul_ps(a2, vs));
            _mm256_storeu_ps(dst.add(3 * LANES), _mm256_mul_ps(a3, vs));
            c += KEY_GROUP;
        }
        while c < chunks {
            let base = kp.add(c * step);
            let mut a = _mm256_setzero_ps();
            for (t, &qt) in q.iter().enumerate() {
                let kv = _mm256_loadu_ps(base.add(t * LANES));
                a = _mm256_add_ps(a, _mm256_mul_ps(_mm256_set1_ps(qt), kv));
            }
            _mm256_storeu_ps(op.add(c * LANES), _mm256_mul_ps(a, vs));
            c += 1;
        }
    }

    /// `block[r][lo..lo + d] = p[r][..m] * vp` for the first `rows`
    /// query rows of a block, bitwise the scalar loop in
    /// `attention::weighted_values`: each output lane is one
    /// `+0.0`-based mul-then-add chain over the keys in ascending
    /// order. `p` rows are `ldp` apart and `vp` is the `m x dp` value
    /// panel; one 8-lane accumulator per query row (eight rows, or four
    /// for a short block) keeps that many chains in flight, and rows
    /// past `rows` compute on whatever finite values the buffer holds
    /// and are never stored.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn attn_pv_avx2(
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
    ) {
        if rows > ROWS / 2 {
            pv_rows::<ROWS>(p, ldp, vp, m, dp, rows, block, ldo, lo, d)
        } else {
            pv_rows::<{ ROWS / 2 }>(p, ldp, vp, m, dp, rows, block, ldo, lo, d)
        }
    }

    /// [`attn_pv_avx2`] with `R` accumulator rows.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn pv_rows<const R: usize>(
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
    ) {
        assert!(rows > 0 && rows <= R && d <= dp && dp.is_multiple_of(LANES));
        assert!(m <= ldp && R * ldp <= p.len() && m * dp <= vp.len());
        assert!((rows - 1) * ldo + lo + d <= block.len());
        let pp = p.as_ptr();
        let vptr = vp.as_ptr();
        let bp = block.as_mut_ptr();
        for cc in (0..dp).step_by(LANES) {
            let mut acc = [_mm256_setzero_ps(); R];
            for j in 0..m {
                let vb = _mm256_loadu_ps(vptr.add(j * dp + cc));
                for (r, a) in acc.iter_mut().enumerate() {
                    let pr = _mm256_set1_ps(*pp.add(r * ldp + j));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(pr, vb));
                }
            }
            let cols = LANES.min(d - cc);
            for (r, a) in acc.iter().enumerate().take(rows) {
                let dst = bp.add(r * ldo + lo + cc);
                if cols == LANES {
                    _mm256_storeu_ps(dst, *a);
                } else {
                    let mut lanes = [0.0f32; LANES];
                    _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
                    std::ptr::copy_nonoverlapping(lanes.as_ptr(), dst, cols);
                }
            }
        }
    }

    /// `acc[j][..dp] += sum over r < rows of p[r][j] * x[r][..dp]` for
    /// every key `j < m`, bitwise `attention::acc_transposed_scalar`:
    /// each lane adds the rows in ascending order, a separate mul then
    /// add per step. `p` rows are `ldp` apart, `x` is `rows x dp` and
    /// `acc` is `m x dp` (`dp` a multiple of eight). Four keys run in
    /// flight so the add latency overlaps; leftover keys go one at a
    /// time.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn attn_acc_transposed_avx2(
        p: &[f32],
        ldp: usize,
        x: &[f32],
        dp: usize,
        rows: usize,
        m: usize,
        acc: &mut [f32],
    ) {
        assert!(dp.is_multiple_of(LANES) && rows * dp <= x.len() && m * dp <= acc.len());
        assert!(rows == 0 || (rows - 1) * ldp + m <= p.len());
        let mut j = 0;
        while j + KEY_GROUP <= m {
            acc_keys::<KEY_GROUP>(p, ldp, x, dp, rows, j, acc);
            j += KEY_GROUP;
        }
        while j < m {
            acc_keys::<1>(p, ldp, x, dp, rows, j, acc);
            j += 1;
        }
    }

    /// [`attn_acc_transposed_avx2`] for keys `j..j + K`, one
    /// accumulator register per key.
    ///
    /// # Safety
    /// The host CPU must support AVX2, and the caller has checked the
    /// bounds of keys `j..j + K`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn acc_keys<const K: usize>(
        p: &[f32],
        ldp: usize,
        x: &[f32],
        dp: usize,
        rows: usize,
        j: usize,
        acc: &mut [f32],
    ) {
        let pp = p.as_ptr().add(j);
        let xp = x.as_ptr();
        let ap = acc.as_mut_ptr().add(j * dp);
        for cc in (0..dp).step_by(LANES) {
            let mut a = [_mm256_setzero_ps(); K];
            for (key, a) in a.iter_mut().enumerate() {
                *a = _mm256_loadu_ps(ap.add(key * dp + cc));
            }
            for r in 0..rows {
                let xv = _mm256_loadu_ps(xp.add(r * dp + cc));
                let pr = pp.add(r * ldp);
                for (key, a) in a.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_set1_ps(*pr.add(key)), xv));
                }
            }
            for (key, a) in a.iter().enumerate() {
                _mm256_storeu_ps(ap.add(key * dp + cc), *a);
            }
        }
    }

    /// `out[i] = (x[i] - mean) * inv_std` — the layernorm normalize
    /// pass, sub-then-mul per lane like the scalar loop.
    ///
    /// # Safety
    /// The host CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn normalize_avx2(x: &[f32], out: &mut [f32], mean: f32, inv_std: f32) {
        debug_assert_eq!(x.len(), out.len());
        let vm = _mm256_set1_ps(mean);
        let vi = _mm256_set1_ps(inv_std);
        let mut oc = out.chunks_exact_mut(8);
        let mut xc = x.chunks_exact(8);
        for (o, c) in (&mut oc).zip(&mut xc) {
            let v = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), vm), vi);
            _mm256_storeu_ps(o.as_mut_ptr(), v);
        }
        for (o, &v) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
            *o = (v - mean) * inv_std;
        }
    }
}
