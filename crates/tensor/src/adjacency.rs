//! Compressed sparse row neighbor lists used by the scatter-mean op.
//!
//! The GNN crate builds one [`Adjacency`] per (attribute, direction) from the
//! heterogeneous table graph; the tensor crate only needs the generic
//! "for output row `i`, average these input rows" view, which keeps the
//! autodiff engine independent of the graph representation.

/// CSR neighbor lists: output row `i` aggregates input rows
/// `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Build from per-row neighbor lists.
    pub fn from_lists(lists: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut targets = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0u32);
        for list in lists {
            targets.extend_from_slice(list);
            targets
                .len()
                .try_into()
                .map(|t| offsets.push(t))
                .expect("edge count fits u32");
        }
        Adjacency { offsets, targets }
    }

    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, not monotone, or does not end at
    /// `targets.len()`.
    pub fn from_raw(offsets: Vec<u32>, targets: Vec<u32>) -> Self {
        assert!(
            !offsets.is_empty(),
            "offsets must contain at least one entry"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            targets.len(),
            "offsets must end at targets.len()"
        );
        Adjacency { offsets, targets }
    }

    /// Number of output rows described.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of (row, neighbor) pairs.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbor list of output row `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Position of output row `i`'s first neighbor in the concatenated
    /// target array (per-edge arrays aligned with it, such as GCN edge
    /// weights, start row `i` here).
    #[inline]
    pub fn first_edge(&self, i: usize) -> usize {
        self.offsets[i] as usize
    }

    /// Degree of output row `i`.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Largest referenced input row plus one, or 0 with no edges.
    pub fn max_target_bound(&self) -> usize {
        self.targets
            .iter()
            .map(|&t| t as usize + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_roundtrip() {
        let adj = Adjacency::from_lists(&[vec![1, 2], vec![], vec![0]]);
        assert_eq!(adj.n_rows(), 3);
        assert_eq!(adj.n_edges(), 3);
        assert_eq!(adj.neighbors(0), &[1, 2]);
        assert_eq!(adj.neighbors(1), &[] as &[u32]);
        assert_eq!(adj.neighbors(2), &[0]);
        assert_eq!(adj.degree(0), 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_rejects_nonmonotone_offsets() {
        Adjacency::from_raw(vec![0, 3, 1], vec![0, 0, 0]);
    }

    #[test]
    fn max_target_bound_covers_all_targets() {
        let adj = Adjacency::from_lists(&[vec![5], vec![2, 9]]);
        assert_eq!(adj.max_target_bound(), 10);
    }
}
