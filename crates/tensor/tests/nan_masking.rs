//! The aggregation kernels must not branch on zero weights: a zero weight
//! multiplies (`0 · NaN = NaN`) rather than skips, so a NaN payload sitting
//! in a zero-masked position surfaces instead of being silently hidden.
//! The reference `*_ref` GEMM kernels keep the old skip-on-zero behavior,
//! which is exactly why they serve only as test and benchmark references.

use grimp_tensor::{block_weighted_sum_into, scatter_weighted_into, Adjacency, Tensor};

#[test]
fn scatter_weighted_surfaces_nan_under_zero_weight() {
    // Row 1 is referenced only through a zero weight and holds a NaN.
    let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, f32::NAN, 4.0]);
    let adj = Adjacency::from_lists(&[vec![0, 1]]);
    let weights = [1.0, 0.0];
    let mut out = Tensor::zeros(1, 2);
    scatter_weighted_into(&a, &adj, &weights, &mut out);
    assert!(
        out.get(0, 0).is_nan(),
        "NaN under a zero weight must propagate, got {}",
        out.get(0, 0)
    );
    // The non-NaN lane still sums normally: 1·2 + 0·4 = 2.
    assert_eq!(out.get(0, 1), 2.0);
}

#[test]
fn scatter_weighted_matches_hand_sum_on_finite_input() {
    let a = Tensor::from_vec(3, 1, vec![2.0, 4.0, 8.0]);
    let adj = Adjacency::from_lists(&[vec![1, 2], vec![], vec![0]]);
    let weights = [0.5, 0.25, 2.0];
    // Stale contents: the kernel must fully overwrite, including the
    // empty-neighborhood row.
    let mut out = Tensor::full(3, 1, f32::NAN);
    scatter_weighted_into(&a, &adj, &weights, &mut out);
    assert_eq!(out.as_slice(), &[4.0, 0.0, 4.0]);
}

#[test]
fn block_weighted_sum_surfaces_nan_under_zero_alpha() {
    // Block (0, 1) carries NaN but has zero attention weight.
    let v = Tensor::from_vec(2, 2, vec![1.0, 2.0, f32::NAN, 3.0]);
    let alpha = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
    let mut out = Tensor::zeros(1, 2);
    block_weighted_sum_into(&v, &alpha, &mut out);
    assert!(
        out.get(0, 0).is_nan(),
        "NaN under zero attention must propagate, got {}",
        out.get(0, 0)
    );
    // The other lane pairs NaN-free values: 1·2 + 0·3 = 2.
    assert_eq!(out.get(0, 1), 2.0);
}

#[test]
fn block_weighted_sum_overwrites_stale_output() {
    let v = Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 2., 2., 3., 3.]);
    let alpha = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.5, 0.5]);
    let mut out = Tensor::full(2, 2, f32::NAN);
    block_weighted_sum_into(&v, &alpha, &mut out);
    assert_eq!(out.as_slice(), &[1.0, 0.0, 2.5, 2.5]);
}
