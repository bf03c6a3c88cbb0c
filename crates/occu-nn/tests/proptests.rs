//! Property-based tests on the autodiff tape: gradients checked
//! against finite differences on randomized shapes and compositions,
//! plus algebraic identities of the recorded ops.

use occu_nn::gradcheck::check_gradients;
use occu_nn::{Activation, GradBuffer, Mlp, ParamStore, Recorder, Tape};
use occu_tensor::Matrix;
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn add_mul_gradients_pass_numeric_check(
        init in small_matrix(2, 3),
        other in small_matrix(2, 3),
    ) {
        let mut store = ParamStore::new();
        let w = store.register("w", init);
        let reports = check_gradients(&mut store, &[w], 1e-2, |store| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let c = tape.constant(other.clone());
            let sum = tape.add(wv, c);
            let prod = tape.mul(sum, wv);
            let loss = tape.mean_all(prod);
            (tape, loss)
        });
        prop_assert!(reports[0].max_rel_diff < 0.05, "rel diff {}", reports[0].max_rel_diff);
    }

    #[test]
    fn matmul_activation_chain_gradients(
        init in small_matrix(3, 4),
        x in small_matrix(2, 3),
    ) {
        let mut store = ParamStore::new();
        let w = store.register("w", init);
        let reports = check_gradients(&mut store, &[w], 1e-2, |store| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let xv = tape.constant(x.clone());
            let y = tape.matmul(xv, wv);
            let a = tape.tanh(y);
            let sq = tape.square(a);
            let loss = tape.mean_all(sq);
            (tape, loss)
        });
        prop_assert!(reports[0].max_rel_diff < 0.05, "rel diff {}", reports[0].max_rel_diff);
    }

    #[test]
    fn softmax_then_mse_gradients(init in small_matrix(2, 4)) {
        let mut store = ParamStore::new();
        let w = store.register("w", init);
        let target = Matrix::from_fn(2, 4, |r, c| if r == 0 && c == 0 { 1.0 } else { 0.1 });
        let reports = check_gradients(&mut store, &[w], 1e-2, |store| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let sm = tape.softmax_rows(wv);
            let t = tape.constant(target.clone());
            let loss = tape.mse_loss(sm, t);
            (tape, loss)
        });
        prop_assert!(reports[0].max_rel_diff < 0.06, "rel diff {}", reports[0].max_rel_diff);
    }

    #[test]
    fn layer_norm_gradients(init in small_matrix(3, 5)) {
        // Skip degenerate near-constant rows where LN's derivative
        // explodes numerically (1/sigma with sigma ~ eps).
        for r in 0..init.rows() {
            let row = init.row(r);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            prop_assume!(var > 0.05);
        }
        let mut store = ParamStore::new();
        let w = store.register("w", init);
        let reports = check_gradients(&mut store, &[w], 1e-2, |store| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let ln = tape.layer_norm_rows(wv);
            let sq = tape.square(ln);
            let loss = tape.mean_all(sq);
            (tape, loss)
        });
        prop_assert!(reports[0].max_rel_diff < 0.08, "rel diff {}", reports[0].max_rel_diff);
    }

    #[test]
    fn gather_scatter_gradients(init in small_matrix(4, 3)) {
        let mut store = ParamStore::new();
        let w = store.register("w", init);
        let idx = vec![1usize, 3, 1, 0];
        let back = vec![0usize, 2, 2, 1];
        let reports = check_gradients(&mut store, &[w], 1e-2, |store| {
            let mut tape = Tape::new();
            let wv = tape.param(store, w);
            let g = tape.gather_rows(wv, &idx);
            let s = tape.scatter_add_rows(g, &back, 3);
            let sq = tape.square(s);
            let loss = tape.mean_all(sq);
            (tape, loss)
        });
        prop_assert!(reports[0].max_rel_diff < 0.05, "rel diff {}", reports[0].max_rel_diff);
    }

    #[test]
    fn forward_is_pure(x in small_matrix(3, 4)) {
        // Recording the same ops twice gives identical values.
        let mut store = ParamStore::new();
        let mut rng = occu_tensor::SeededRng::new(1);
        let mlp = Mlp::new(&mut store, "m", &[4, 6, 2], Activation::Gelu, Activation::Sigmoid, &mut rng);
        let run = || {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mlp.forward(&mut tape, &store, xv);
            tape.value(y).clone()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn grad_accumulates_across_backward_calls(x in small_matrix(2, 2)) {
        let mut store = ParamStore::new();
        let w = store.register("w", x);
        let run_backward = |grads: &mut GradBuffer| {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let sq = tape.square(wv);
            let loss = tape.sum_all(sq);
            tape.backward_into(loss, &store, grads);
        };
        let mut grads = GradBuffer::for_store(&store);
        run_backward(&mut grads);
        let once = grads.grad(w).clone();
        run_backward(&mut grads);
        let twice = grads.grad(w).clone();
        occu_tensor::assert_close(&twice, &once.scale(2.0), 1e-5);
    }
}
