//! Property-based backend parity: `SerialBackend` and `ParallelBackend`
//! (1, 2 and 8 threads) must produce **bit-identical** outputs for every
//! hot-path kernel, on random shapes and data — including the degenerate
//! shapes a partitioner gets wrong first (single row, fewer rows than
//! threads, degree-0 adjacency rows).

use grimp_tensor::{
    make_backend, Adjacency, BackendKind, ParallelBackend, SerialBackend, Tape, Tensor,
    TensorBackend,
};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} elem {i}: {x} vs {y}");
    }
}

/// Random matrix dimensions that straddle the partition and block
/// boundaries: 1 row (fewer rows than any pool), primes, and sizes past one
/// 4-wide block.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..20, 1usize..14, 1usize..14)
}

fn tensor_for(rows: usize, cols: usize, vals: &[f32]) -> Tensor {
    let data = (0..rows * cols).map(|i| vals[i % vals.len()]).collect();
    Tensor::from_vec(rows, cols, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_family_parity(mkn in dims(), vals in proptest::collection::vec(-2.0f32..2.0, 16)) {
        let (m, k, n) = mkn;
        let serial = SerialBackend;
        let a = tensor_for(m, k, &vals);
        let b = tensor_for(k, n, &vals[1..]);
        let at = tensor_for(k, m, &vals[2..]);
        let bt = tensor_for(n, k, &vals[3..]);
        for threads in THREAD_COUNTS {
            let par = ParallelBackend::new(threads);
            assert_bits_eq(&par.matmul(&a, &b), &serial.matmul(&a, &b), "matmul");
            assert_bits_eq(&par.matmul_tn(&at, &b), &serial.matmul_tn(&at, &b), "matmul_tn");
            assert_bits_eq(&par.matmul_nt(&a, &bt), &serial.matmul_nt(&a, &bt), "matmul_nt");
        }
    }

    #[test]
    fn scatter_mean_parity_with_degree_0_rows(
        cols in 1usize..8,
        lists in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..4), 1..10),
        vals in proptest::collection::vec(-2.0f32..2.0, 8),
    ) {
        let serial = SerialBackend;
        let a = tensor_for(6, cols, &vals);
        let adj = Adjacency::from_lists(&lists);
        for threads in THREAD_COUNTS {
            let par = ParallelBackend::new(threads);
            let got = par.scatter_mean(&a, &adj);
            assert_bits_eq(&got, &serial.scatter_mean(&a, &adj), "scatter_mean");
            prop_assert!(got.all_finite(), "degree-0 rows must stay finite");
            for (i, list) in lists.iter().enumerate() {
                if list.is_empty() {
                    prop_assert!(
                        got.row_slice(i).iter().all(|&v| v == 0.0),
                        "degree-0 row {} must be zero",
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_mean_row_range_parity(
        cols in 1usize..8,
        lists in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..4), 1..10),
        vals in proptest::collection::vec(-2.0f32..2.0, 8),
    ) {
        // Every suffix and every window of the adjacency rows: the range
        // kernel must reproduce those rows of the full kernel on every
        // backend, degree-0 rows included.
        let serial = SerialBackend;
        let a = tensor_for(6, cols, &vals);
        let adj = Adjacency::from_lists(&lists);
        let full = serial.scatter_mean(&a, &adj);
        let n = lists.len();
        for start in 0..=n {
            for end in start..=n {
                let mut want = Tensor::zeros(end - start, cols);
                serial.scatter_mean_rows_into(&a, &adj, start..end, &mut want);
                for (r, i) in (start..end).enumerate() {
                    for (x, y) in want.row_slice(r).iter().zip(full.row_slice(i)) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "row {} of {}..{}", i, start, end);
                    }
                }
                for threads in THREAD_COUNTS {
                    let par = ParallelBackend::new(threads);
                    let mut got = Tensor::full(end - start, cols, f32::NAN);
                    par.scatter_mean_rows_into(&a, &adj, start..end, &mut got);
                    assert_bits_eq(&got, &want, "scatter_mean_rows");
                }
            }
        }
    }

    #[test]
    fn softmax_ce_parity(
        rows in 1usize..200, // crosses several 64-row CE reduction chunks
        classes in 2usize..6,
        vals in proptest::collection::vec(-30.0f32..30.0, 16),
    ) {
        let serial = SerialBackend;
        let logits = tensor_for(rows, classes, &vals);
        let targets: Vec<u32> = (0..rows as u32).map(|i| i % classes as u32).collect();
        let want = serial.softmax_ce_loss(&logits, &targets);
        let mut want_grad = logits.clone();
        serial.softmax_ce_backward(&mut want_grad, &targets, 0.125);
        for threads in THREAD_COUNTS {
            let par = ParallelBackend::new(threads);
            prop_assert_eq!(par.softmax_ce_loss(&logits, &targets).to_bits(), want.to_bits());
            let mut grad = logits.clone();
            par.softmax_ce_backward(&mut grad, &targets, 0.125);
            assert_bits_eq(&grad, &want_grad, "ce_backward");
        }
    }

    #[test]
    fn full_tape_step_parity(
        w in proptest::collection::vec(-1.0f32..1.0, 6),
        x in proptest::collection::vec(-1.0f32..1.0, 8),
    ) {
        // A miniature training step over every dispatched kernel: losses and
        // parameter gradients must agree bit-for-bit across backends.
        let run = |kind: BackendKind| {
            let mut tape = Tape::new();
            tape.set_backend(kind);
            let wv = tape.param(Tensor::from_vec(2, 3, w.clone()));
            let xv = tape.input(Tensor::from_vec(4, 2, x.clone()));
            tape.freeze();
            let h = tape.matmul(xv, wv);
            let adj = Arc::new(Adjacency::from_lists(&[vec![0, 3], vec![], vec![2]]));
            let m = tape.scatter_mean(h, adj);
            let loss = tape.softmax_cross_entropy(m, Arc::new(vec![0u32, 1, 2]));
            tape.backward(loss);
            (tape.value(loss).item(), tape.grad(wv).unwrap().clone())
        };
        let (serial_loss, serial_grad) = run(BackendKind::Serial);
        for threads in THREAD_COUNTS {
            let (loss, grad) = run(BackendKind::Parallel { threads });
            prop_assert_eq!(loss.to_bits(), serial_loss.to_bits(), "{} threads", threads);
            assert_bits_eq(&grad, &serial_grad, "weight gradient");
        }
    }

    #[test]
    fn row_restricted_tape_step_parity(
        w in proptest::collection::vec(-1.0f32..1.0, 6),
        x in proptest::collection::vec(-1.0f32..1.0, 10),
        start in 0usize..4,
    ) {
        // The row-restricted ops (row slice, row-range mean and weighted
        // aggregations) in one training step: the loss and the parameter
        // gradient must agree bit-for-bit across backends.
        let run = |kind: BackendKind| {
            let mut tape = Tape::new();
            tape.set_backend(kind);
            let wv = tape.param(Tensor::from_vec(2, 3, w.clone()));
            let xv = tape.input(Tensor::from_vec(5, 2, x.clone()));
            tape.freeze();
            let h = tape.matmul(xv, wv);
            let adj = Arc::new(Adjacency::from_lists(&[
                vec![0, 3],
                vec![],
                vec![2, 4],
                vec![1],
                vec![0, 1, 2],
            ]));
            let weights = Arc::new((0..adj.n_edges()).map(|e| 1.0 / (e + 1) as f32).collect());
            let rows = start..5;
            let m = tape.scatter_mean_rows(h, Arc::clone(&adj), rows.clone());
            let g = tape.scatter_weighted_rows(h, adj, weights, rows.clone());
            let s = tape.slice_rows(h, rows.clone());
            let sum = tape.add_n(&[m, g, s]);
            let targets = (0..rows.len() as u32).map(|i| i % 3).collect();
            let loss = tape.softmax_cross_entropy(sum, Arc::new(targets));
            tape.backward(loss);
            (tape.value(loss).item(), tape.grad(wv).unwrap().clone())
        };
        let (serial_loss, serial_grad) = run(BackendKind::Serial);
        for threads in THREAD_COUNTS {
            let (loss, grad) = run(BackendKind::Parallel { threads });
            prop_assert_eq!(loss.to_bits(), serial_loss.to_bits(), "{} threads", threads);
            assert_bits_eq(&grad, &serial_grad, "weight gradient");
        }
    }
}

#[test]
fn make_backend_reports_its_kind() {
    for kind in [
        BackendKind::Serial,
        BackendKind::Parallel { threads: 1 },
        BackendKind::Parallel { threads: 3 },
    ] {
        let b = make_backend(kind);
        assert_eq!(b.kind(), kind);
        assert_eq!(b.threads(), kind.threads());
        assert_eq!(b.label(), kind.label());
    }
}
