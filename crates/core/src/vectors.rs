//! Training-vector batches (paper §3.3 and §3.5).
//!
//! A *training vector* is a tuple's row of cell embeddings with the target
//! attribute (and every `∅` cell) masked to the zero vector. For efficiency
//! the `N × C × D` collection `V_A` of one task is laid out as an
//! `(N·C) × D` gather from the node-embedding matrix plus a 0/1 mask, and a
//! `N × C` additive bias of `-1e9` keeps masked slots out of the attention
//! softmax.

use std::sync::Arc;

use grimp_gnn::readout_rows;
use grimp_graph::TableGraph;
use grimp_tensor::Tensor;

/// Score bias used to exclude masked slots from attention.
pub const MASKED_SCORE_BIAS: f32 = -1e9;

/// A batch of training (or imputation) vectors for one task.
#[derive(Clone, Debug)]
pub struct VectorBatch {
    /// Number of samples `N`.
    pub n: usize,
    /// Columns per sample `C`.
    pub n_cols: usize,
    /// Slot width `D`.
    pub dim: usize,
    /// `N·C` gather indices into the embedding rows, which start at node
    /// [`VectorBatch::first_row`]: a live slot holds its cell node's id
    /// minus `first_row`, a masked slot points at row 0 and is zeroed by
    /// `mask`.
    pub idx: Arc<Vec<u32>>,
    /// Node id of embedding row 0: 0 when the embeddings cover every node,
    /// the start of [`readout_rows`] when they cover the GNN's readout rows.
    pub first_row: u32,
    /// `(N·C) × D` multiplicative 0/1 mask.
    pub mask: Tensor,
    /// `N × C` additive attention-score bias (0 for live slots,
    /// [`MASKED_SCORE_BIAS`] for masked ones).
    pub score_bias: Tensor,
}

impl VectorBatch {
    /// Build the batch for `samples`, each a `(row, target_col)` pair of
    /// the table `graph` was built from, over embeddings of every node. The
    /// slot of `target_col` is always masked; other slots are masked when
    /// the cell has no node ([`TableGraph::node_of`]: `∅` or capped out).
    pub fn build(graph: &TableGraph, samples: &[(usize, usize)], dim: usize) -> Self {
        Self::build_from(graph, samples, dim, 0)
    }

    /// [`VectorBatch::build`] over the embeddings of the GNN's readout rows
    /// ([`readout_rows`]) — the rows [`grimp_gnn::HeteroSage::forward_rows`]
    /// computes.
    pub fn build_readout(graph: &TableGraph, samples: &[(usize, usize)], dim: usize) -> Self {
        Self::build_from(graph, samples, dim, readout_rows(graph).start)
    }

    fn build_from(
        graph: &TableGraph,
        samples: &[(usize, usize)],
        dim: usize,
        first_row: usize,
    ) -> Self {
        let n = samples.len();
        let n_cols = graph.n_edge_types();
        let mut batch = VectorBatch {
            n,
            n_cols,
            dim,
            idx: Arc::new(vec![0; n * n_cols]),
            first_row: u32::try_from(first_row).expect("node ids fit u32"),
            mask: Tensor::zeros(n * n_cols, dim),
            score_bias: Tensor::zeros(n, n_cols),
        };
        batch.refill(graph, samples);
        batch
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rewrite the batch in place for a new sample set of the **same size**
    /// (over the same embedding rows) — the sampled training path refills
    /// each task's fixed-shape batch every epoch so tensor shapes (and the
    /// tape workspace keyed on them) never change. No allocation happens:
    /// the gather indices are mutated through [`Arc::get_mut`], which
    /// requires that every tape-held clone of the previous epoch's `idx`
    /// has been dropped (`tape.reset()` does that). Panics if the batch is
    /// still aliased or `samples.len() != n`.
    pub fn refill(&mut self, graph: &TableGraph, samples: &[(usize, usize)]) {
        assert_eq!(
            samples.len(),
            self.n,
            "refill must keep the batch size fixed"
        );
        let idx = Arc::get_mut(&mut self.idx)
            .expect("refill requires the previous epoch's gather indices to be released");
        let n_cols = self.n_cols;
        for (s, &(row, target_col)) in samples.iter().enumerate() {
            for c in 0..n_cols {
                let slot = s * n_cols + c;
                let node = if c == target_col {
                    None
                } else {
                    graph.node_of(row, c)
                };
                match node {
                    Some(node) => {
                        idx[slot] = node - self.first_row;
                        self.mask.row_slice_mut(slot).fill(1.0);
                        self.score_bias.set(s, c, 0.0);
                    }
                    None => {
                        idx[slot] = 0;
                        self.mask.row_slice_mut(slot).fill(0.0);
                        self.score_bias.set(s, c, MASKED_SCORE_BIAS);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_graph::GraphConfig;
    use grimp_table::{ColumnKind, Schema, Table};

    fn setup() -> TableGraph {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("c", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(
            schema,
            &[
                vec![Some("x"), Some("p"), Some("m")],
                vec![Some("y"), None, Some("m")],
            ],
        );
        TableGraph::build(&t, GraphConfig::default(), &[])
    }

    #[test]
    fn target_column_is_always_masked() {
        let g = setup();
        let b = VectorBatch::build(&g, &[(0, 1)], 4);
        assert_eq!(b.n, 1);
        // slot of column 1 masked, others live
        assert_eq!(b.mask.row_slice(0), &[1.0; 4]);
        assert_eq!(b.mask.row_slice(1), &[0.0; 4]);
        assert_eq!(b.mask.row_slice(2), &[1.0; 4]);
        assert_eq!(b.score_bias.get(0, 1), MASKED_SCORE_BIAS);
        assert_eq!(b.score_bias.get(0, 0), 0.0);
    }

    #[test]
    fn null_cells_are_masked_too() {
        let g = setup();
        // row 1 has ∅ in column 1; target column 0
        let b = VectorBatch::build(&g, &[(1, 0)], 4);
        assert_eq!(b.mask.row_slice(0), &[0.0; 4]); // target
        assert_eq!(b.mask.row_slice(1), &[0.0; 4]); // null
        assert_eq!(b.mask.row_slice(2), &[1.0; 4]); // live
    }

    #[test]
    fn live_slots_point_at_the_right_nodes() {
        let g = setup();
        let b = VectorBatch::build(&g, &[(0, 0)], 4);
        let p_node = g.cell_node(1, "p").unwrap();
        let m_node = g.cell_node(2, "m").unwrap();
        assert_eq!(b.idx[1], p_node);
        assert_eq!(b.idx[2], m_node);
    }

    #[test]
    fn readout_batches_index_from_the_readout_start() {
        let g = setup();
        let first = readout_rows(&g).start;
        let full = VectorBatch::build(&g, &[(0, 1), (1, 0)], 4);
        let mut b = VectorBatch::build_readout(&g, &[(0, 1), (1, 0)], 4);
        assert_eq!(b.first_row as usize, first);
        for (slot, (&local, &node)) in b.idx.iter().zip(full.idx.iter()).enumerate() {
            if full.mask.row_slice(slot)[0] == 1.0 {
                assert_eq!(local as usize + first, node as usize, "slot {slot}");
            } else {
                assert_eq!(local, 0, "masked slot {slot} points at row 0");
            }
        }
        assert_eq!(b.mask.as_slice(), full.mask.as_slice());
        // a refill keeps the batch on its embedding rows
        b.refill(&g, &[(1, 2), (0, 0)]);
        let fresh = VectorBatch::build_readout(&g, &[(1, 2), (0, 0)], 4);
        assert_eq!(*b.idx, *fresh.idx);
    }

    #[test]
    fn refill_matches_a_fresh_build_bit_for_bit() {
        let g = setup();
        let mut b = VectorBatch::build(&g, &[(0, 1), (1, 0)], 4);
        b.refill(&g, &[(1, 2), (0, 0)]);
        let fresh = VectorBatch::build(&g, &[(1, 2), (0, 0)], 4);
        assert_eq!(*b.idx, *fresh.idx);
        assert_eq!(b.mask.as_slice(), fresh.mask.as_slice());
        assert_eq!(b.score_bias.as_slice(), fresh.score_bias.as_slice());
        // and back again: stale mask/bias state must not leak across refills
        b.refill(&g, &[(0, 1), (1, 0)]);
        let original = VectorBatch::build(&g, &[(0, 1), (1, 0)], 4);
        assert_eq!(*b.idx, *original.idx);
        assert_eq!(b.mask.as_slice(), original.mask.as_slice());
        assert_eq!(b.score_bias.as_slice(), original.score_bias.as_slice());
    }

    #[test]
    #[should_panic(expected = "fixed")]
    fn refill_rejects_a_different_batch_size() {
        let g = setup();
        let mut b = VectorBatch::build(&g, &[(0, 1)], 4);
        b.refill(&g, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn same_vector_for_different_targets_differs_only_in_mask() {
        // the Fig. 5 scenario: one row, two different target columns
        let g = setup();
        let b0 = VectorBatch::build(&g, &[(0, 0)], 4);
        let b1 = VectorBatch::build(&g, &[(0, 1)], 4);
        // slot 2 (column c) identical in both
        assert_eq!(b0.idx[2], b1.idx[2]);
        assert_eq!(b0.mask.row_slice(2), b1.mask.row_slice(2));
        // masks of the target slots differ
        assert_ne!(b0.mask.row_slice(0), b1.mask.row_slice(0));
    }
}
