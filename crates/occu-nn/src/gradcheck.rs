//! Finite-difference gradient checking utilities.
//!
//! Used by this crate's own test suite and by `occu-core` to validate
//! the ANEE / Graphormer / Set Transformer backward passes against
//! numerical derivatives.

use crate::params::{ParamId, ParamStore};
use crate::tape::{GradBuffer, Tape, Var};
use occu_tensor::Matrix;

/// Result of a gradient check for one parameter.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Parameter under test.
    pub param: ParamId,
    /// Largest absolute difference between analytic and numeric grads.
    pub max_abs_diff: f32,
    /// Largest relative difference (normalized by magnitude).
    pub max_rel_diff: f32,
}

/// Checks analytic gradients against central finite differences.
///
/// `f` must rebuild the forward pass from scratch (fresh tape) and
/// return the scalar loss variable; it is invoked `2 * numel + 1`
/// times per parameter. `h` is the probe step (1e-2 works well for
/// f32; smaller steps drown in rounding error).
///
/// Returns one report per checked parameter. Callers typically assert
/// `max_rel_diff < 0.05` — f32 finite differences are noisy.
pub fn check_gradients(
    store: &mut ParamStore,
    params: &[ParamId],
    h: f32,
    mut f: impl FnMut(&ParamStore) -> (Tape, Var),
) -> Vec<GradCheckReport> {
    // Analytic pass.
    let (tape, loss) = f(store);
    let mut grads = GradBuffer::for_store(store);
    tape.backward_into(loss, store, &mut grads);
    let analytic: Vec<&Matrix> = params.iter().map(|&p| grads.grad(p)).collect();

    let mut reports = Vec::with_capacity(params.len());
    for (pi, &p) in params.iter().enumerate() {
        let (rows, cols) = store.value(p).shape();
        let mut max_abs = 0.0f32;
        let mut max_rel = 0.0f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = store.value(p).get(r, c);
                store.value_mut(p).set(r, c, orig + h);
                let (t_up, l_up) = f(store);
                let up = t_up.value(l_up).get(0, 0);
                store.value_mut(p).set(r, c, orig - h);
                let (t_dn, l_dn) = f(store);
                let dn = t_dn.value(l_dn).get(0, 0);
                store.value_mut(p).set(r, c, orig);
                let numeric = (up - dn) / (2.0 * h);
                let a = analytic[pi].get(r, c);
                let abs = (a - numeric).abs();
                let rel = abs / 1.0f32.max(a.abs()).max(numeric.abs());
                max_abs = max_abs.max(abs);
                max_rel = max_rel.max(rel);
            }
        }
        reports.push(GradCheckReport { param: p, max_abs_diff: max_abs, max_rel_diff: max_rel });
    }
    reports
}

/// Asserts that every parameter passes the gradient check with the
/// given relative tolerance. Panics with the parameter name otherwise.
pub fn assert_gradients_ok(
    store: &mut ParamStore,
    params: &[ParamId],
    tol: f32,
    f: impl FnMut(&ParamStore) -> (Tape, Var),
) {
    let reports = check_gradients(store, params, 1e-2, f);
    for rep in reports {
        assert!(
            rep.max_rel_diff < tol,
            "gradient check failed for '{}': rel diff {} (abs {}) >= tol {}",
            store.name(rep.param), rep.max_rel_diff, rep.max_abs_diff, tol
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, FeedForward, LayerNorm, LstmCell, Mlp, MultiHeadAttention};
    use crate::record::Recorder;
    use occu_tensor::SeededRng;

    #[test]
    fn mlp_gradients_pass() {
        let mut rng = SeededRng::new(10);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 6, 1], Activation::Tanh, Activation::None, &mut rng);
        let x = Matrix::randn(3, 4, 0.8, &mut rng);
        let t = Matrix::randn(3, 1, 0.5, &mut rng);
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.05, |store| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let tv = tape.constant(t.clone());
            let y = mlp.forward(&mut tape, store, xv);
            let l = tape.mse_loss(y, tv);
            (tape, l)
        });
    }

    #[test]
    fn layer_norm_gradients_pass() {
        let mut rng = SeededRng::new(11);
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "ln", 5);
        let x = Matrix::randn(4, 5, 1.0, &mut rng);
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.05, |store| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = ln.forward(&mut tape, store, xv);
            let sq = tape.square(y);
            let l = tape.mean_all(sq);
            (tape, l)
        });
    }

    #[test]
    fn mha_gradients_pass() {
        let mut rng = SeededRng::new(12);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 4, 2, &mut rng);
        let x = Matrix::randn(3, 4, 0.7, &mut rng);
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.08, |store| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mha.forward_self(&mut tape, store, xv);
            let sq = tape.square(y);
            let l = tape.mean_all(sq);
            (tape, l)
        });
    }

    #[test]
    fn ragged_cross_attention_gradients_pass() {
        // Two query rows over five keys (n != m, as in PMA), two heads
        // of three columns, and a score bias.
        let mut rng = SeededRng::new(17);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 6, 2, &mut rng);
        let x = Matrix::randn(2, 6, 0.8, &mut rng);
        let y = Matrix::randn(5, 6, 0.8, &mut rng);
        let bias = Matrix::randn(2, 5, 1.0, &mut rng);
        let w = Matrix::randn(2, 6, 2.0, &mut rng);
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.05, |store| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let yv = tape.constant(y.clone());
            let bv = tape.constant(bias.clone());
            let out = mha.forward(&mut tape, store, xv, yv, Some(bv));
            let wv = tape.constant(w.clone());
            let weighted = tape.mul(out, wv);
            let l = tape.sum_all(weighted);
            (tape, l)
        });
    }

    #[test]
    fn gelu_feed_forward_gradients_pass() {
        let mut rng = SeededRng::new(15);
        let mut store = ParamStore::new();
        let ffn = FeedForward::new(&mut store, "ffn", 4, 6, Activation::Gelu, &mut rng);
        let x = Matrix::randn(3, 4, 1.5, &mut rng);
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.02, |store| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = ffn.forward(&mut tape, store, xv);
            let sq = tape.square(y);
            let l = tape.sum_all(sq);
            (tape, l)
        });
    }

    #[test]
    fn spd_biased_mha_theta_gradients_pass() {
        let mut rng = SeededRng::new(16);
        let mut store = ParamStore::new();
        let mha = MultiHeadAttention::new(&mut store, "mha", 4, 2, &mut rng);
        let thetas: Vec<ParamId> = [0.5f32, -0.75, 0.25, 1.0]
            .iter()
            .enumerate()
            .map(|(b, &t)| store.register(format!("theta{b}"), Matrix::from_vec(1, 1, vec![t])))
            .collect();
        let x = Matrix::randn(3, 4, 1.5, &mut rng);
        let w = Matrix::randn(3, 4, 3.0, &mut rng);
        // Bucket 2 never occurs.
        let spd = [0u8, 1, 3, 1, 0, 1, 3, 1, 0];
        let loss = |store: &ParamStore| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let bias = tape.spd_bias(store, &thetas, &spd);
            let y = mha.forward(&mut tape, store, xv, xv, Some(bias));
            let wv = tape.constant(w.clone());
            let weighted = tape.mul(y, wv);
            let l = tape.sum_all(weighted);
            (tape, l)
        };
        let (tape, l) = loss(&store);
        let mut grads = GradBuffer::for_store(&store);
        tape.backward_into(l, &store, &mut grads);
        for (b, &id) in thetas.iter().enumerate() {
            let g = grads.grad(id).get(0, 0);
            if b == 2 {
                assert_eq!(g, 0.0, "an absent bucket gets no gradient");
            } else {
                assert!(g.abs() > 0.05, "theta {b} gradient {g} too small to check");
            }
        }
        assert_gradients_ok(&mut store, &thetas, 0.02, loss);
    }

    #[test]
    fn lstm_gradients_pass() {
        let mut rng = SeededRng::new(13);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "lstm", 3, 4, &mut rng);
        let xs: Vec<Matrix> = (0..3).map(|_| Matrix::randn(2, 3, 0.8, &mut rng)).collect();
        let params: Vec<ParamId> = store.ids().collect();
        assert_gradients_ok(&mut store, &params, 0.08, |store| {
            let mut tape = Tape::new();
            let (mut h, mut c) = cell.zero_state(&mut tape, 2);
            for x in &xs {
                let xv = tape.constant(x.clone());
                let (h2, c2) = cell.step(&mut tape, store, xv, h, c);
                h = h2;
                c = c2;
            }
            let sq = tape.square(h);
            let l = tape.mean_all(sq);
            (tape, l)
        });
    }
}
