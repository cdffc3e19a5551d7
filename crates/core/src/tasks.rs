//! Task-specific heads of the multi-task layer (paper §3.5, Figs. 6–7).
//!
//! Each attribute gets a *task*: a multi-class classifier for categorical
//! attributes, a single-output regressor for numerical ones. Tasks are
//! either stacks of fully connected layers ([`TaskKind::Linear`]) or the
//! attention structure of Fig. 6 ([`TaskKind::Attention`]): matrices `Q`
//! (trainable, initialized from pre-trained attribute vectors) and `K`
//! (fixed selection weights, four strategies) pooled by `m`, scoring the
//! training-vector slots, whose softmax-weighted sum feeds the output layer.

use std::sync::Arc;

use rand::Rng;

use grimp_table::FdSet;
use grimp_tensor::{init, Dense, Mlp, Tape, Tensor, Var};

use crate::config::KStrategy;
use crate::vectors::VectorBatch;

pub use crate::config::TaskKind;

/// Build the diagonal selection matrix `K` (`C × C`) for one task
/// (paper Fig. 7).
pub fn build_k_matrix(strategy: KStrategy, n_cols: usize, target: usize, fds: &FdSet) -> Tensor {
    let mut k = Tensor::zeros(n_cols, n_cols);
    match strategy {
        KStrategy::Diagonal => {
            for c in 0..n_cols {
                k.set(c, c, 1.0);
            }
        }
        KStrategy::TargetColumn => {
            k.set(target, target, 1.0);
        }
        KStrategy::WeakDiagonal => {
            for c in 0..n_cols {
                k.set(c, c, if c == target { 1.0 } else { 0.5 });
            }
        }
        KStrategy::WeakDiagonalFd => {
            let related = fds.related_attributes(target);
            for c in 0..n_cols {
                let w = if c == target {
                    1.0
                } else if related.contains(&c) {
                    0.75
                } else {
                    0.4
                };
                k.set(c, c, w);
            }
        }
    }
    k
}

/// One task head.
pub enum Task {
    /// Fully connected head over the flattened training vector.
    Linear {
        /// `[C·D, hidden, out]` MLP.
        mlp: Mlp,
    },
    /// Attention head (Fig. 6).
    Attention {
        /// Trainable `C × D` attribute matrix `Q_A`.
        q: Var,
        /// Fixed `C × C` selection matrix `K_A`.
        k: Tensor,
        /// Output layer `D → out`.
        out: Dense,
    },
}

impl Task {
    /// Register a task head's parameters on `tape`.
    ///
    /// `q_init` is the `C × D` matrix of pre-trained attribute vectors used
    /// to initialize `Q_A` for attention tasks (`None` for linear tasks).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tape: &mut Tape,
        kind: TaskKind,
        n_cols: usize,
        dim: usize,
        hidden: usize,
        out_dim: usize,
        target: usize,
        strategy: KStrategy,
        fds: &FdSet,
        q_init: Option<Tensor>,
        rng: &mut impl Rng,
    ) -> Self {
        match kind {
            TaskKind::Linear => Task::Linear {
                mlp: Mlp::new(tape, &[n_cols * dim, hidden, out_dim], rng),
            },
            TaskKind::Attention => {
                let q = match q_init {
                    Some(t) => {
                        assert_eq!(t.shape(), (n_cols, dim), "q_init must be C x D");
                        tape.param(t)
                    }
                    None => tape.param(init::xavier_uniform(n_cols, dim, rng)),
                };
                Task::Attention {
                    q,
                    k: build_k_matrix(strategy, n_cols, target, fds),
                    out: Dense::new(tape, dim, out_dim, rng),
                }
            }
        }
    }

    /// The attention distribution over columns for a batch (`N × C`), or
    /// `None` for linear tasks. Used for introspection: high weight on a
    /// column means the task relies on it (e.g., an FD premise).
    pub fn attention_alpha(&self, tape: &mut Tape, h: Var, batch: &VectorBatch) -> Option<Var> {
        let Task::Attention { q, k, .. } = self else {
            return None;
        };
        let v = slots(tape, h, batch);
        Some(attention(tape, *q, k, v, batch))
    }

    /// Forward pass: from the node-embedding matrix `h` (shared-layer
    /// output over the rows the batch indexes, see
    /// [`VectorBatch::first_row`]) and a batch, produce `N × out` logits
    /// (or `N × 1` regression outputs).
    pub fn forward(&self, tape: &mut Tape, h: Var, batch: &VectorBatch) -> Var {
        let v = slots(tape, h, batch);
        match self {
            Task::Linear { mlp } => {
                let flat = tape.reshape(v, batch.n, batch.n_cols * batch.dim);
                mlp.forward(tape, flat)
            }
            Task::Attention { q, k, out } => {
                let alpha = attention(tape, *q, k, v, batch);
                let ctx = tape.block_weighted_sum(v, alpha);
                out.forward(tape, ctx)
            }
        }
    }
}

/// The batch's training vectors: `(N·C) × D` rows gathered from `h`, with
/// masked slots zeroed.
fn slots(tape: &mut Tape, h: Var, batch: &VectorBatch) -> Var {
    let v = tape.gather_rows(h, Arc::clone(&batch.idx));
    let mask = tape.input(batch.mask.clone());
    tape.mul_elem(v, mask)
}

/// Attention weights (`N × C`) of the slots `v` under `Q_A` and `K_A`.
fn attention(tape: &mut Tape, q: Var, k: &Tensor, v: Var, batch: &VectorBatch) -> Var {
    // s_A = m · (K_A Q_A); m pools with weight 1/C for scale.
    let k_in = tape.input(k.clone());
    let kq = tape.matmul(k_in, q);
    let m = tape.input(Tensor::full(1, batch.n_cols, 1.0 / batch.n_cols as f32));
    let s = tape.matmul(m, kq); // 1 × D
    let st = tape.reshape(s, batch.dim, 1);
    let scores = tape.matmul(v, st); // (N·C) × 1
    let scores = tape.reshape(scores, batch.n, batch.n_cols);
    let scores = tape.scale(scores, 1.0 / (batch.dim as f32).sqrt());
    let bias = tape.input(batch.score_bias.clone());
    let scores = tape.add(scores, bias);
    tape.row_softmax(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_graph::{GraphConfig, TableGraph};
    use grimp_table::{ColumnKind, Schema, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn k_diagonal_is_identity() {
        let k = build_k_matrix(KStrategy::Diagonal, 3, 1, &FdSet::empty());
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(k.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn k_target_column_keeps_only_target() {
        let k = build_k_matrix(KStrategy::TargetColumn, 3, 2, &FdSet::empty());
        assert_eq!(k.get(2, 2), 1.0);
        assert_eq!(k.get(0, 0), 0.0);
        assert_eq!(k.get(1, 1), 0.0);
    }

    #[test]
    fn k_weak_diagonal_prefers_target() {
        let k = build_k_matrix(KStrategy::WeakDiagonal, 3, 0, &FdSet::empty());
        assert_eq!(k.get(0, 0), 1.0);
        assert_eq!(k.get(1, 1), 0.5);
        assert_eq!(k.get(2, 2), 0.5);
    }

    #[test]
    fn k_fd_strategy_boosts_related_columns() {
        let fds = FdSet::from_pairs(&[(&[1], 0)]);
        let k = build_k_matrix(KStrategy::WeakDiagonalFd, 3, 0, &fds);
        assert_eq!(k.get(0, 0), 1.0);
        assert_eq!(k.get(1, 1), 0.75); // in an FD with column 0
        assert_eq!(k.get(2, 2), 0.4); // unrelated
    }

    fn tiny_setup() -> (Table, TableGraph) {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(
            schema,
            &[vec![Some("x"), Some("p")], vec![Some("y"), Some("q")]],
        );
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        (t, g)
    }

    #[test]
    fn both_task_kinds_produce_logits_of_domain_size() {
        let (t, g) = tiny_setup();
        let dim = 8;
        for kind in [TaskKind::Linear, TaskKind::Attention] {
            let mut rng = StdRng::seed_from_u64(0);
            let mut tape = Tape::new();
            let task = Task::new(
                &mut tape,
                kind,
                2,
                dim,
                16,
                2, // |Dom(a)| = 2
                0,
                KStrategy::WeakDiagonal,
                &FdSet::empty(),
                None,
                &mut rng,
            );
            tape.freeze();
            let h = tape.input(Tensor::full(g.n_nodes(), dim, 0.3));
            let batch = VectorBatch::build(&g, &t, &[(0, 0), (1, 0)], dim);
            let logits = task.forward(&mut tape, h, &batch);
            assert_eq!(tape.value(logits).shape(), (2, 2));
            assert!(tape.value(logits).all_finite());
        }
    }

    #[test]
    fn attention_task_trains_to_separate_classes() {
        // Column a is perfectly determined by column b: the attention task
        // for a must learn the mapping from b's cell embeddings.
        let (t, g) = tiny_setup();
        let dim = 8;
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        // distinguishable fixed node embeddings
        let mut h_data = Tensor::zeros(g.n_nodes(), dim);
        for node in 0..g.n_nodes() {
            h_data.set(node, node % dim, 1.0);
        }
        let task = Task::new(
            &mut tape,
            TaskKind::Attention,
            2,
            dim,
            16,
            2,
            0,
            KStrategy::WeakDiagonal,
            &FdSet::empty(),
            None,
            &mut rng,
        );
        tape.freeze();
        let mut adam = grimp_tensor::Adam::new(0.05);
        let batch = VectorBatch::build(&g, &t, &[(0, 0), (1, 0)], dim);
        let labels = Arc::new(vec![0u32, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let h = tape.input(h_data.clone());
            let logits = task.forward(&mut tape, h, &batch);
            let loss = tape.softmax_cross_entropy(logits, labels.clone());
            last = tape.value(loss).item();
            tape.backward(loss);
            adam.step(&mut tape);
            tape.reset();
        }
        assert!(last < 0.1, "attention task failed to fit: {last}");
    }
}
