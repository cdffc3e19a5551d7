//! Property-based verification of the autodiff engine.
//!
//! Every backward rule must match the central finite difference of its
//! forward rule on random inputs, and core algebraic identities of the raw
//! tensor type must hold.

use grimp_tensor::{check_gradients, Adjacency, Tape, Tensor};
use proptest::prelude::*;
use std::sync::Arc;

const EPS: f32 = 1e-2;
const TOL: f32 = 5e-2;

fn small_vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_associative_with_identity(vals in small_vals(12)) {
        let a = Tensor::from_vec(3, 4, vals);
        let mut eye = Tensor::zeros(4, 4);
        for i in 0..4 { eye.set(i, i, 1.0); }
        let prod = a.matmul(&eye);
        prop_assert_eq!(prod, a);
    }

    #[test]
    fn transpose_is_involutive(vals in small_vals(15)) {
        let a = Tensor::from_vec(3, 5, vals);
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn gradcheck_dense_relu_chain(w in small_vals(12), x in small_vals(8)) {
        let params = vec![Tensor::from_vec(4, 3, w)];
        let xs = Tensor::from_vec(2, 4, x);
        let rep = check_gradients(&params, move |tape, vars| {
            let xv = tape.input(xs.clone());
            let h = tape.matmul(xv, vars[0]);
            let r = tape.relu(h);
            let sq = tape.mul_elem(r, r);
            tape.sum_all(sq)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_tanh_sigmoid_chain(w in small_vals(9)) {
        let params = vec![Tensor::from_vec(3, 3, w)];
        let rep = check_gradients(&params, |tape, vars| {
            let t = tape.tanh(vars[0]);
            let s = tape.sigmoid(t);
            tape.mean_all(s)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_softmax_ce(logits in small_vals(12), t0 in 0u32..4, t1 in 0u32..4, t2 in 0u32..4) {
        let params = vec![Tensor::from_vec(3, 4, logits)];
        let targets = Arc::new(vec![t0, t1, t2]);
        let rep = check_gradients(&params, move |tape, vars| {
            tape.softmax_cross_entropy(vars[0], targets.clone())
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_focal(logits in small_vals(8), t0 in 0u32..4, t1 in 0u32..4, gamma in 0.5f32..3.0) {
        let params = vec![Tensor::from_vec(2, 4, logits)];
        let targets = Arc::new(vec![t0, t1]);
        let rep = check_gradients(&params, move |tape, vars| {
            tape.focal_loss(vars[0], targets.clone(), gamma)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_scatter_mean(vals in small_vals(8)) {
        let params = vec![Tensor::from_vec(4, 2, vals)];
        let adj = Arc::new(Adjacency::from_lists(&[
            vec![1, 2, 3], vec![0], vec![], vec![0, 1],
        ]));
        let rep = check_gradients(&params, move |tape, vars| {
            let m = tape.scatter_mean(vars[0], adj.clone());
            let sq = tape.mul_elem(m, m);
            tape.sum_all(sq)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_scatter_weighted(vals in small_vals(8), w in proptest::collection::vec(0.05f32..2.0, 6)) {
        let params = vec![Tensor::from_vec(4, 2, vals)];
        let adj = Arc::new(Adjacency::from_lists(&[
            vec![1, 2, 3], vec![0], vec![], vec![0, 1],
        ]));
        let w = Arc::new(w);
        let rep = check_gradients(&params, move |tape, vars| {
            let m = tape.scatter_weighted(vars[0], adj.clone(), w.clone());
            let sq = tape.mul_elem(m, m);
            tape.sum_all(sq)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_concat_slice_roundtrip(a in small_vals(6), b in small_vals(9)) {
        let params = vec![Tensor::from_vec(3, 2, a), Tensor::from_vec(3, 3, b)];
        let rep = check_gradients(&params, |tape, vars| {
            let cat = tape.concat_cols(&[vars[0], vars[1]]);
            let left = tape.slice_cols(cat, 0, 2);
            let right = tape.slice_cols(cat, 2, 5);
            let l2 = tape.mul_elem(left, left);
            let r2 = tape.mul_elem(right, right);
            let ls = tape.sum_all(l2);
            let rs = tape.sum_all(r2);
            tape.add(ls, rs)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn gradcheck_mse(pred in small_vals(5), target in small_vals(5)) {
        let params = vec![Tensor::from_vec(5, 1, pred)];
        let t = Arc::new(target);
        let rep = check_gradients(&params, move |tape, vars| {
            tape.mse_loss(vars[0], t.clone())
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }

    #[test]
    fn softmax_output_is_a_distribution(vals in small_vals(12)) {
        let t = Tensor::from_vec(3, 4, vals);
        let s = grimp_tensor::softmax_rows(&t);
        for r in 0..3 {
            let row = s.row_slice(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn gradcheck_block_weighted_attention(v in small_vals(12), s in small_vals(3)) {
        let params = vec![Tensor::from_vec(4, 3, v), Tensor::from_vec(1, 3, s)];
        let rep = check_gradients(&params, |tape, vars| {
            let st = tape.reshape(vars[1], 3, 1);
            let scores = tape.matmul(vars[0], st);
            let scores = tape.reshape(scores, 2, 2);
            let alpha = tape.row_softmax(scores);
            let ctx = tape.block_weighted_sum(vars[0], alpha);
            let sq = tape.mul_elem(ctx, ctx);
            tape.sum_all(sq)
        }, EPS);
        prop_assert!(rep.passes(TOL), "{:?}", rep);
    }
}

#[test]
fn adam_and_sgd_agree_on_convergence_target() {
    use grimp_tensor::{Adam, Sgd};
    // Fit y = 2x + 1 with both optimizers; both must reach the same optimum.
    let fit = |use_adam: bool| -> (f32, f32) {
        let mut tape = Tape::new();
        let w = tape.param(Tensor::scalar(0.0));
        let b = tape.param(Tensor::scalar(0.0));
        tape.freeze();
        let mut adam = Adam::new(0.05);
        let sgd = Sgd::new(0.05);
        let xs = Tensor::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let ys = Arc::new(vec![1.0f32, 3.0, 5.0, 7.0]);
        for _ in 0..2000 {
            let x = tape.input(xs.clone());
            let wx = tape.matmul(x, w);
            let ones = tape.input(Tensor::from_vec(4, 1, vec![1.0; 4]));
            let bcol = tape.matmul(ones, b);
            let pred = tape.add(wx, bcol);
            let loss = tape.mse_loss(pred, ys.clone());
            tape.backward(loss);
            if use_adam {
                adam.step(&mut tape);
            } else {
                sgd.step(&mut tape);
            }
            tape.reset();
        }
        (tape.value(w).item(), tape.value(b).item())
    };
    for (w, b) in [fit(true), fit(false)] {
        assert!((w - 2.0).abs() < 0.05, "w = {w}");
        assert!((b - 1.0).abs() < 0.05, "b = {b}");
    }
}
