//! Finite-difference gradient verification.
//!
//! Used by unit and property tests throughout the workspace to certify that
//! every backward rule in [`crate::tape`] matches the numerical derivative of
//! its forward rule.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Outcome of a gradient check.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest relative error observed across all parameter elements.
    pub max_rel_err: f32,
    /// Location `(param_index, element_index)` of the worst element.
    pub worst: (usize, usize),
    /// Analytic and numeric values at the worst element.
    pub worst_pair: (f32, f32),
}

impl GradCheckReport {
    /// True when the worst relative error is below `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err < tol
    }
}

/// Compare analytic gradients against central finite differences.
///
/// `build` receives a fresh tape with the given parameters already
/// registered and frozen, and must return the scalar loss node. The function
/// evaluates `build` once for the analytic gradients and `2 · Σ len(pᵢ)`
/// times for the numeric ones, so keep the parameters small.
pub fn check_gradients(
    params: &[Tensor],
    build: impl Fn(&mut Tape, &[Var]) -> Var,
    eps: f32,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::new();
    let vars: Vec<Var> = params.iter().map(|p| tape.param(p.clone())).collect();
    tape.freeze();
    let loss = build(&mut tape, &vars);
    tape.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .map(|&v| {
            tape.grad(v).cloned().unwrap_or_else(|| {
                let (r, c) = tape.value(v).shape();
                Tensor::zeros(r, c)
            })
        })
        .collect();

    let eval = |perturbed: &[Tensor]| -> f32 {
        let mut tape = Tape::new();
        let vars: Vec<Var> = perturbed.iter().map(|p| tape.param(p.clone())).collect();
        tape.freeze();
        let loss = build(&mut tape, &vars);
        tape.value(loss).item()
    };

    let mut report = GradCheckReport {
        max_rel_err: 0.0,
        worst: (0, 0),
        worst_pair: (0.0, 0.0),
    };
    let mut work: Vec<Tensor> = params.to_vec();
    for (pi, param) in params.iter().enumerate() {
        for ei in 0..param.len() {
            let orig = param.as_slice()[ei];
            work[pi].as_mut_slice()[ei] = orig + eps;
            let up = eval(&work);
            work[pi].as_mut_slice()[ei] = orig - eps;
            let down = eval(&work);
            work[pi].as_mut_slice()[ei] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic[pi].as_slice()[ei];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            let rel = (a - numeric).abs() / denom;
            if rel > report.max_rel_err {
                report.max_rel_err = rel;
                report.worst = (pi, ei);
                report.worst_pair = (a, numeric);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use std::sync::Arc;

    const EPS: f32 = 1e-3;
    const TOL: f32 = 2e-2;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn gradcheck_matmul_chain() {
        let params = vec![
            t(2, 3, &[0.1, -0.2, 0.3, 0.4, 0.5, -0.6]),
            t(3, 2, &[0.7, 0.8, -0.9, 1.0, 1.1, 1.2]),
        ];
        let rep = check_gradients(
            &params,
            |tape, vars| {
                let c = tape.matmul(vars[0], vars[1]);
                let r = tape.tanh(c);
                tape.sum_all(r)
            },
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_softmax_ce() {
        let params = vec![t(
            3,
            4,
            &[
                0.1, 0.3, -0.2, 0.4, 0.0, -0.5, 0.2, 0.1, 0.9, -0.1, 0.3, 0.2,
            ],
        )];
        let targets = Arc::new(vec![2u32, 0, 3]);
        let rep = check_gradients(
            &params,
            move |tape, vars| tape.softmax_cross_entropy(vars[0], targets.clone()),
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_softmax_ce_near_zero_probability() {
        // Confidently wrong rows: the target probabilities sit around
        // e⁻¹⁴ ≈ 8e-7 and e⁻¹² ≈ 6e-6 — far below healthy but well above
        // the 1e-12 forward clamp, so the classic p - δ gradient must still
        // agree with central differences. (The historical bug differentiated
        // the *unclamped* probability, which this regime is sensitive to.)
        let params = vec![t(2, 3, &[-7.0, 7.0, 0.0, 6.0, -6.0, 0.5])];
        let targets = Arc::new(vec![0u32, 1]);
        let rep = check_gradients(
            &params,
            move |tape, vars| tape.softmax_cross_entropy(vars[0], targets.clone()),
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_softmax_ce_clamped_region_is_flat() {
        // Deep underflow: p_t rounds to zero in f32, the forward loss is
        // pinned at -ln(1e-12) on both sides of every nudge, and the
        // analytic gradient must match the flat numeric one (zero) instead
        // of the unclamped rule's ≈ -1 spike against a constant forward.
        let params = vec![t(1, 2, &[-200.0, 200.0])];
        let targets = Arc::new(vec![0u32]);
        let rep = check_gradients(
            &params,
            move |tape, vars| tape.softmax_cross_entropy(vars[0], targets.clone()),
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
        assert_eq!(rep.max_rel_err, 0.0, "clamped region must be exactly flat");
    }

    #[test]
    fn gradcheck_focal_loss() {
        let params = vec![t(2, 3, &[0.2, -0.4, 0.6, 0.1, 0.5, -0.3])];
        let targets = Arc::new(vec![1u32, 2]);
        let rep = check_gradients(
            &params,
            move |tape, vars| tape.focal_loss(vars[0], targets.clone(), 2.0),
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_focal_loss_near_saturation() {
        // Row 0 is confidently correct (p_t ≈ 0.9997): the focal factor is
        // tiny but still differentiable. Row 1 is confidently wrong
        // (p_t ≈ 9e-4): gradients are steep. Together they exercise both
        // clamp-adjacent regions with the clamp shared between the forward
        // and backward passes — a mismatch shows up as a finite-difference
        // disagreement here.
        let params = vec![t(2, 2, &[4.0, -4.0, 3.5, -3.5])];
        let targets = Arc::new(vec![0u32, 1]);
        let rep = check_gradients(
            &params,
            move |tape, vars| tape.focal_loss(vars[0], targets.clone(), 2.0),
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_attention_path() {
        // Mirrors the attention-task wiring: scores → softmax → weighted sum.
        let params = vec![
            t(
                4,
                3,
                &[
                    0.1, 0.2, 0.3, -0.1, 0.4, 0.0, 0.5, -0.2, 0.3, 0.2, 0.2, -0.4,
                ],
            ),
            t(1, 3, &[0.3, -0.5, 0.2]),
        ];
        let rep = check_gradients(
            &params,
            |tape, vars| {
                let v = vars[0]; // (2 samples x 2 cols) x 3 dims
                let s = vars[1];
                // v · sᵀ via reshape (valid because s is a single row)
                let st = tape.reshape(s, 3, 1);
                let scores = tape.matmul(v, st);
                let scores = tape.reshape(scores, 2, 2);
                let alpha = tape.row_softmax(scores);
                let ctx = tape.block_weighted_sum(v, alpha);
                let sq = tape.mul_elem(ctx, ctx);
                tape.sum_all(sq)
            },
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_scatter_mean_gather() {
        let params = vec![t(3, 2, &[0.5, -0.5, 0.25, 1.0, -1.0, 0.75])];
        let adj = Arc::new(Adjacency::from_lists(&[vec![1, 2], vec![0], vec![0, 1, 2]]));
        let idx = Arc::new(vec![0u32, 2, 1]);
        let rep = check_gradients(
            &params,
            move |tape, vars| {
                let m = tape.scatter_mean(vars[0], adj.clone());
                let g = tape.gather_rows(m, idx.clone());
                let sq = tape.mul_elem(g, g);
                tape.sum_all(sq)
            },
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }

    #[test]
    fn gradcheck_row_slices_and_row_range_scatters() {
        // Five output rows over four input rows; row 3 has degree 0, and
        // each op reads a different row window.
        let params = vec![t(4, 2, &[0.5, -0.5, 0.25, 1.0, -1.0, 0.75, 0.3, -0.2])];
        let adj = Arc::new(Adjacency::from_lists(&[
            vec![1, 2],
            vec![0],
            vec![0, 1, 3],
            vec![],
            vec![2, 3],
        ]));
        let weights: Arc<Vec<f32>> =
            Arc::new((0..adj.n_edges()).map(|e| 0.25 + 0.1 * e as f32).collect());
        let rep = check_gradients(
            &params,
            move |tape, vars| {
                let m = tape.scatter_mean_rows(vars[0], adj.clone(), 2..5);
                let w = tape.scatter_weighted_rows(vars[0], adj.clone(), weights.clone(), 1..4);
                let s = tape.slice_rows(vars[0], 1..4);
                let sum = tape.add(m, w);
                let sum = tape.add(sum, s);
                let sq = tape.mul_elem(sum, sum);
                tape.sum_all(sq)
            },
            EPS,
        );
        assert!(rep.passes(TOL), "{rep:?}");
    }
}
