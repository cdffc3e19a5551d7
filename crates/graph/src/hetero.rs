//! The heterogeneous quasi-bipartite table graph of §3.2.
//!
//! Each tuple is a **RID node**; each distinct (attribute, value) pair is a
//! **cell node** — the same surface value appearing in two attributes gets
//! two nodes (disambiguation). RID and cell nodes are connected by a typed
//! edge whose type is the attribute. `∅` cells contribute no edges, and the
//! caller can exclude additional `(row, col)` cells (validation samples, per
//! §3.6: "We remove all edges incident in the validation step from the graph
//! representation before training").

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::mem::take;

use grimp_obs::splitmix64;
use grimp_table::{Table, Value};

/// What a graph node represents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeLabel {
    /// The record-id node of tuple `row`.
    Rid(u32),
    /// The cell node of a distinct value within one attribute.
    Cell {
        /// Owning attribute index.
        col: u32,
        /// Canonical text of the value (numericals rounded per config).
        text: String,
    },
}

/// Construction options.
#[derive(Clone, Copy, Debug)]
pub struct GraphConfig {
    /// Decimal places used to canonicalize numerical values into cell-node
    /// keys. The paper rounds reals "to a pre-defined number of decimal
    /// places (8 places by default)"; we default to 4 to keep distinct-node
    /// counts close to the published Table 1 scales (see DESIGN.md §8).
    pub numeric_decimals: usize,
    /// Optional cap on distinct-value cell nodes per attribute, applied as
    /// a frequency cutoff: only the most frequent values keep their nodes
    /// (ties broken by first occurrence, so the result is deterministic).
    /// Capped-out values contribute no edges and stop being imputation
    /// candidates — the memory-budget downscaling ladder sets this under
    /// pressure. `None` keeps every distinct value (the paper's graph).
    pub max_cells_per_column: Option<usize>,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            numeric_decimals: 4,
            max_cells_per_column: None,
        }
    }
}

/// One typed edge list: pairs `(rid_node, cell_node)` of one attribute.
#[derive(Clone, Debug, Default)]
pub struct TypedEdges {
    /// `(rid node id, cell node id)` pairs.
    pub pairs: Vec<(u32, u32)>,
}

/// The heterogeneous table graph.
#[derive(Clone, Debug)]
pub struct TableGraph {
    n_rows: usize,
    n_cols: usize,
    labels: Vec<NodeLabel>,
    /// Per column: canonical value text → cell node id.
    cell_index: Vec<HashMap<String, u32>>,
    /// Per column: the typed edge list.
    edges: Vec<TypedEdges>,
    config: GraphConfig,
}

/// Canonical text key of a non-null value.
pub fn value_key(table: &Table, row: usize, col: usize, decimals: usize) -> Option<String> {
    match table.get(row, col) {
        Value::Null => None,
        Value::Cat(_) => Some(table.display(row, col)),
        Value::Num(v) => Some(format_rounded(v, decimals)),
    }
}

/// Round-and-format a numerical value the way cell-node keys do.
pub fn format_rounded(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

impl TableGraph {
    /// Build the graph from a dirty table, excluding the given cells (in
    /// addition to `∅` cells, which never produce edges).
    ///
    /// Node ids are all RIDs first, then column by column every distinct
    /// value in first-seen order. Every value gets its node even when all
    /// its occurrences are excluded — imputation candidates must exist as
    /// nodes so they can be scored. Under a `max_cells_per_column` cap a
    /// column keeps its most frequent values (ties broken by first
    /// occurrence), still numbered in first-seen order; capped-out values
    /// contribute no edge.
    pub fn build(table: &Table, config: GraphConfig, excluded: &[(usize, usize)]) -> Self {
        let n_rows = table.n_rows();
        let n_cols = table.n_columns();
        let decimals = config.numeric_decimals;
        let mut labels: Vec<NodeLabel> = (0..n_rows).map(|i| NodeLabel::Rid(i as u32)).collect();
        let mut cell_index: Vec<HashMap<String, u32>> = vec![HashMap::new(); n_cols];

        // Key discovery: each column's values in row order, with their
        // counts for the cap.
        for (col, index) in cell_index.iter_mut().enumerate() {
            let mut keys: Vec<String> = Vec::new();
            let mut counts: HashMap<String, usize> = HashMap::new();
            for row in 0..n_rows {
                let Some(key) = value_key(table, row, col, decimals) else {
                    continue;
                };
                match counts.entry(key) {
                    Entry::Occupied(mut e) => *e.get_mut() += 1,
                    Entry::Vacant(e) => {
                        keys.push(e.key().clone());
                        e.insert(1);
                    }
                }
            }
            if let Some(cap) = config.max_cells_per_column {
                if keys.len() > cap {
                    let mut ranked: Vec<usize> = (0..keys.len()).collect();
                    ranked.sort_by_key(|&i| (Reverse(counts[keys[i].as_str()]), i));
                    ranked.truncate(cap);
                    ranked.sort_unstable();
                    keys = ranked.into_iter().map(|i| take(&mut keys[i])).collect();
                }
            }
            for key in keys {
                index.insert(key.clone(), labels.len() as u32);
                labels.push(NodeLabel::Cell {
                    col: col as u32,
                    text: key,
                });
            }
        }

        // Edges, row-major, so each column's list is in row order.
        let excluded: HashSet<(usize, usize)> = excluded.iter().copied().collect();
        let mut edges: Vec<TypedEdges> = vec![TypedEdges::default(); n_cols];
        for row in 0..n_rows {
            for (col, index) in cell_index.iter().enumerate() {
                if excluded.contains(&(row, col)) {
                    continue;
                }
                if let Some(key) = value_key(table, row, col, decimals) {
                    if let Some(&cell) = index.get(&key) {
                        edges[col].pairs.push((row as u32, cell));
                    }
                }
            }
        }
        TableGraph {
            n_rows,
            n_cols,
            labels,
            cell_index,
            edges,
            config,
        }
    }

    /// [`TableGraph::build`] wrapped in a [`grimp_obs::names::GRAPH_BUILD`]
    /// span, also emitting node/edge counters into the trace.
    pub fn build_traced(
        table: &Table,
        config: GraphConfig,
        excluded: &[(usize, usize)],
        trace: &mut grimp_obs::Trace<'_>,
    ) -> Self {
        use grimp_obs::names;
        let span = trace.enter(names::GRAPH_BUILD, 0);
        let graph = Self::build(table, config, excluded);
        trace.counter(names::GRAPH_NODES, 0, graph.n_nodes() as u64);
        trace.counter(names::GRAPH_EDGES, 0, graph.n_edges() as u64);
        trace.exit(names::GRAPH_BUILD, 0, span);
        graph
    }

    /// An alias of [`TableGraph::build`] for existing callers; `chunk_rows`
    /// is ignored.
    pub fn build_chunked(
        table: &Table,
        config: GraphConfig,
        excluded: &[(usize, usize)],
        _chunk_rows: usize,
    ) -> Self {
        Self::build(table, config, excluded)
    }

    /// Total node count (RID + cell nodes).
    pub fn n_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of RID nodes (= table rows). RID node ids are `0..n_rids()`.
    pub fn n_rids(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes (= edge types).
    pub fn n_edge_types(&self) -> usize {
        self.n_cols
    }

    /// Total number of typed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.iter().map(|e| e.pairs.len()).sum()
    }

    /// Node label.
    pub fn label(&self, node: usize) -> &NodeLabel {
        &self.labels[node]
    }

    /// The cell node of a canonical value text within a column, if any.
    pub fn cell_node(&self, col: usize, key: &str) -> Option<u32> {
        self.cell_index[col].get(key).copied()
    }

    /// The cell node of a table cell's current value, if non-null.
    pub fn cell_node_of(&self, table: &Table, row: usize, col: usize) -> Option<u32> {
        value_key(table, row, col, self.config.numeric_decimals)
            .and_then(|k| self.cell_node(col, &k))
    }

    /// All cell nodes of one attribute with their canonical texts, in
    /// ascending node-id order. Deterministic ordering matters: consumers
    /// sum floats over this iterator and build sampling structures from it,
    /// so HashMap iteration order must not leak out.
    pub fn column_cells(&self, col: usize) -> impl Iterator<Item = (&str, u32)> {
        let mut cells: Vec<(&str, u32)> = self.cell_index[col]
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        cells.sort_unstable_by_key(|&(_, v)| v);
        cells.into_iter()
    }

    /// Number of distinct cell nodes of an attribute.
    pub fn n_column_cells(&self, col: usize) -> usize {
        self.cell_index[col].len()
    }

    /// Typed edge list of one attribute.
    pub fn edges_of(&self, col: usize) -> &TypedEdges {
        &self.edges[col]
    }

    /// The construction config.
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// Symmetric per-type neighbor lists over all nodes: entry `t` maps every
    /// node to its neighbors through edges of type `t` (RID → cells of
    /// column `t`; cell of column `t` → RIDs) — the unpacked form of
    /// [`TableGraph::csr_adjacency`].
    pub fn neighbor_lists(&self) -> Vec<Vec<Vec<u32>>> {
        self.csr_adjacency()
            .iter()
            .map(|csr| {
                (0..csr.n_nodes())
                    .map(|v| csr.neighbors_of(v).to_vec())
                    .collect()
            })
            .collect()
    }

    /// Per-type CSR adjacencies over all nodes, symmetric, each node's
    /// neighbors in edge-list order. The neighbor sampler reads these
    /// instead of nested lists so each epoch's resampling is a
    /// cache-friendly linear scan.
    pub fn csr_adjacency(&self) -> Vec<TypeCsr> {
        let n = self.n_nodes();
        self.edges
            .iter()
            .map(|e| {
                let mut offsets = vec![0u32; n + 1];
                for &(rid, cell) in &e.pairs {
                    offsets[rid as usize + 1] += 1;
                    offsets[cell as usize + 1] += 1;
                }
                for i in 0..n {
                    offsets[i + 1] += offsets[i];
                }
                let mut neighbors = vec![0u32; offsets[n] as usize];
                let mut cursor = offsets.clone();
                for &(rid, cell) in &e.pairs {
                    neighbors[cursor[rid as usize] as usize] = cell;
                    cursor[rid as usize] += 1;
                    neighbors[cursor[cell as usize] as usize] = rid;
                    cursor[cell as usize] += 1;
                }
                TypeCsr { offsets, neighbors }
            })
            .collect()
    }
}

/// Compressed-sparse-row adjacency of one edge type, symmetric like
/// [`TableGraph::neighbor_lists`]: RID nodes point at the column's cell
/// nodes and vice versa.
#[derive(Clone, Debug)]
pub struct TypeCsr {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated neighbor ids, per-node order matching the edge list.
    neighbors: Vec<u32>,
}

impl TypeCsr {
    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of `node` through this edge type.
    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// The neighbors of `node` through this edge type.
    pub fn neighbors_of(&self, node: usize) -> &[u32] {
        &self.neighbors[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// The raw CSR arrays `(offsets, neighbors)`: node `v`'s neighbors are
    /// `neighbors[offsets[v]..offsets[v + 1]]`.
    pub fn into_raw(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.neighbors)
    }
}

/// Deterministic per-epoch neighbor sampler over [`TypeCsr`] edge sets.
///
/// For every epoch it produces per-type neighbor lists shaped exactly like
/// [`TableGraph::neighbor_lists`], but with every node's neighborhood capped
/// at `fanout` via reservoir sampling (uniform without replacement). The
/// random stream of a node is derived purely from `(seed, epoch, type,
/// node)` with SplitMix64, so the sample is:
///
/// - **reproducible** — same seed + epoch ⇒ bit-identical lists, on any
///   backend and at any thread count;
/// - **epoch-indexed** — consecutive epochs see different neighborhoods,
///   which is what makes the expectation over epochs cover every edge;
/// - **isolated** — no draws are taken from the training RNG, so full-batch
///   runs are unaffected by the sampler's existence.
///
/// Output buffers are allocated once in [`NeighborSampler::new`] (capacity
/// `min(degree, fanout)` per node, which is invariant across epochs) and
/// refilled in place: after the first call to
/// [`NeighborSampler::sample_epoch`] no further allocation happens — the
/// grow-once contract the training loop's 0-allocs invariant relies on.
#[derive(Clone, Debug)]
pub struct NeighborSampler {
    seed: u64,
    fanout: usize,
    csr: Vec<TypeCsr>,
    lists: Vec<Vec<Vec<u32>>>,
}

impl NeighborSampler {
    /// Snapshot the graph's CSR edge sets and pre-size the per-epoch output
    /// buffers. `fanout` must be positive.
    pub fn new(graph: &TableGraph, seed: u64, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        let csr = graph.csr_adjacency();
        let n = graph.n_nodes();
        let lists = csr
            .iter()
            .map(|t| {
                (0..n)
                    .map(|v| Vec::with_capacity(t.degree(v).min(fanout)))
                    .collect()
            })
            .collect();
        NeighborSampler {
            seed,
            fanout,
            csr,
            lists,
        }
    }

    /// The fanout cap the sampler was built with.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Resample every node's neighborhood for `epoch`, refilling the
    /// internal buffers. Returns the total number of directed sampled
    /// edges (the sum of all list lengths).
    pub fn sample_epoch(&mut self, epoch: u64) -> u64 {
        let mut total = 0u64;
        for (t, csr) in self.csr.iter().enumerate() {
            let out = &mut self.lists[t];
            for (v, list) in out.iter_mut().enumerate() {
                let neigh = csr.neighbors_of(v);
                list.clear();
                if neigh.len() <= self.fanout {
                    list.extend_from_slice(neigh);
                } else {
                    // Reservoir sampling with a per-(seed, epoch, type,
                    // node) stream: uniform without replacement, O(degree),
                    // and entirely within the preallocated capacity.
                    let mut state = self.seed;
                    state = splitmix64(state ^ epoch);
                    state = splitmix64(state ^ t as u64);
                    state = splitmix64(state ^ v as u64);
                    list.extend_from_slice(&neigh[..self.fanout]);
                    for (i, &cand) in neigh.iter().enumerate().skip(self.fanout) {
                        state = splitmix64(state);
                        let j = (state % (i as u64 + 1)) as usize;
                        if j < self.fanout {
                            list[j] = cand;
                        }
                    }
                }
                total += list.len() as u64;
            }
        }
        total
    }

    /// The sampled per-type neighbor lists of the last
    /// [`NeighborSampler::sample_epoch`] call, shaped like
    /// [`TableGraph::neighbor_lists`].
    pub fn lists(&self) -> &[Vec<Vec<u32>>] {
        &self.lists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_table::{ColumnKind, Schema};

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("country", ColumnKind::Categorical),
            ("year", ColumnKind::Numerical),
        ]);
        Table::from_rows(
            schema,
            &[
                vec![Some("FR"), Some("2015")],
                vec![Some("FR"), Some("2014")],
                vec![None, Some("2015")],
            ],
        )
    }

    #[test]
    fn node_layout_is_rids_then_cells() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        assert_eq!(g.n_rids(), 3);
        // cells: FR (country), 2015, 2014 (year)
        assert_eq!(g.n_nodes(), 3 + 1 + 2);
        assert_eq!(g.label(0), &NodeLabel::Rid(0));
        assert!(matches!(g.label(3), NodeLabel::Cell { .. }));
    }

    #[test]
    fn null_cells_contribute_no_edges() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        // country edges: rows 0, 1 only; year edges: rows 0, 1, 2.
        assert_eq!(g.edges_of(0).pairs.len(), 2);
        assert_eq!(g.edges_of(1).pairs.len(), 3);
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn same_value_in_two_columns_gets_two_nodes() {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(schema, &[vec![Some("x"), Some("x")]]);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let na = g.cell_node(0, "x").unwrap();
        let nb = g.cell_node(1, "x").unwrap();
        assert_ne!(na, nb, "values must be disambiguated per attribute");
    }

    #[test]
    fn excluded_cells_keep_nodes_but_lose_edges() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[(0, 0), (1, 0)]);
        // FR node still exists (it is a candidate for imputation)…
        assert!(g.cell_node(0, "FR").is_some());
        // …but no country edges remain.
        assert_eq!(g.edges_of(0).pairs.len(), 0);
    }

    #[test]
    fn numeric_values_are_rounded_into_keys() {
        let schema = Schema::from_pairs(&[("x", ColumnKind::Numerical)]);
        let t = Table::from_rows(schema, &[vec![Some("1.00001")], vec![Some("1.00002")]]);
        let g = TableGraph::build(
            &t,
            GraphConfig {
                numeric_decimals: 4,
                ..GraphConfig::default()
            },
            &[],
        );
        // both round to "1.0000" → a single cell node
        assert_eq!(g.n_column_cells(0), 1);
        let g8 = TableGraph::build(
            &t,
            GraphConfig {
                numeric_decimals: 8,
                ..GraphConfig::default()
            },
            &[],
        );
        assert_eq!(g8.n_column_cells(0), 2);
    }

    /// 12 rows of column "v": value "a" ×6, "b" ×4, "c" ×1, "d" ×1
    /// (c before d), next to a low-cardinality anchor column.
    fn skewed_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("v", ColumnKind::Categorical),
            ("k", ColumnKind::Categorical),
        ]);
        let vs = ["a", "a", "b", "a", "c", "b", "a", "d", "b", "a", "b", "a"];
        let mut t = Table::empty(schema);
        for (i, v) in vs.iter().enumerate() {
            let k = if i % 2 == 0 { "k0" } else { "k1" };
            t.push_str_row(&[Some(v), Some(k)]);
        }
        t
    }

    #[test]
    fn cell_node_cap_keeps_the_most_frequent_values() {
        let t = skewed_table();
        let cfg = GraphConfig {
            max_cells_per_column: Some(2),
            ..GraphConfig::default()
        };
        let g = TableGraph::build(&t, cfg, &[]);
        assert_eq!(g.n_column_cells(0), 2);
        assert!(g.cell_node(0, "a").is_some());
        assert!(g.cell_node(0, "b").is_some());
        assert!(g.cell_node(0, "c").is_none());
        assert!(g.cell_node(0, "d").is_none());
        // Columns under the cap are untouched.
        assert_eq!(g.n_column_cells(1), 2);
        // Capped-out cells resolve to no node and contribute no edges:
        // 10 "a"/"b" edges survive in column 0, all 12 in column 1.
        assert_eq!(g.cell_node_of(&t, 4, 0), None);
        assert_eq!(g.edges_of(0).pairs.len(), 10);
        assert_eq!(g.edges_of(1).pairs.len(), 12);
    }

    #[test]
    fn cell_node_cap_breaks_frequency_ties_by_first_occurrence() {
        let t = skewed_table();
        let cfg = GraphConfig {
            max_cells_per_column: Some(3),
            ..GraphConfig::default()
        };
        let g = TableGraph::build(&t, cfg, &[]);
        // "c" and "d" both appear once; "c" appears first and wins slot 3.
        assert!(g.cell_node(0, "c").is_some());
        assert!(g.cell_node(0, "d").is_none());
    }

    #[test]
    fn uncapped_build_is_identical_to_a_generous_cap() {
        let t = skewed_table();
        let free = TableGraph::build(&t, GraphConfig::default(), &[]);
        let capped = TableGraph::build(
            &t,
            GraphConfig {
                max_cells_per_column: Some(100),
                ..GraphConfig::default()
            },
            &[],
        );
        assert_eq!(free.n_nodes(), capped.n_nodes());
        for n in 0..free.n_nodes() {
            assert_eq!(free.label(n), capped.label(n), "node {n}");
        }
        for c in 0..2 {
            assert_eq!(free.edges_of(c).pairs, capped.edges_of(c).pairs);
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        for lists in g.neighbor_lists() {
            for (node, neigh) in lists.iter().enumerate() {
                for &m in neigh {
                    assert!(
                        lists[m as usize].contains(&(node as u32)),
                        "edge {node} -> {m} missing its reverse"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_node_of_resolves_current_values() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        assert_eq!(g.cell_node_of(&t, 0, 0), g.cell_node(0, "FR"));
        assert_eq!(g.cell_node_of(&t, 2, 0), None);
    }

    /// Per-type neighbor lists built straight from the edge lists, apart
    /// from the CSR path: each edge `(rid, cell)` puts `cell` on `rid`'s
    /// list and `rid` on `cell`'s, in edge-list order.
    fn reference_lists(g: &TableGraph) -> Vec<Vec<Vec<u32>>> {
        (0..g.n_edge_types())
            .map(|t| {
                let mut lists = vec![Vec::new(); g.n_nodes()];
                for &(rid, cell) in &g.edges_of(t).pairs {
                    lists[rid as usize].push(cell);
                    lists[cell as usize].push(rid);
                }
                lists
            })
            .collect()
    }

    #[test]
    fn csr_adjacency_and_neighbor_lists_follow_the_edge_lists() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let reference = reference_lists(&g);
        let csr = g.csr_adjacency();
        assert_eq!(reference.len(), csr.len());
        for (t, type_csr) in csr.iter().enumerate() {
            assert_eq!(type_csr.n_nodes(), g.n_nodes());
            for (v, list) in reference[t].iter().enumerate() {
                assert_eq!(
                    type_csr.neighbors_of(v),
                    list.as_slice(),
                    "type {t} node {v}"
                );
                assert_eq!(type_csr.degree(v), list.len());
            }
        }
        assert_eq!(g.neighbor_lists(), reference);
    }

    #[test]
    fn sampler_caps_fanout_and_subsets_the_true_neighborhood() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let full = g.neighbor_lists();
        let fanout = 2;
        let mut s = NeighborSampler::new(&g, 7, fanout);
        let total = s.sample_epoch(0);
        let mut seen = 0u64;
        for (t, lists) in s.lists().iter().enumerate() {
            for (v, list) in lists.iter().enumerate() {
                assert!(list.len() <= fanout, "type {t} node {v} exceeds fanout");
                assert_eq!(list.len(), full[t][v].len().min(fanout));
                for &m in list {
                    assert!(full[t][v].contains(&m), "sampled edge not in graph");
                }
                // sampling without replacement: no duplicate neighbors
                // beyond what the true multiset already contains
                let mut sorted = list.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), list.len(), "duplicate sampled neighbor");
                seen += list.len() as u64;
            }
        }
        assert_eq!(total, seen);
    }

    #[test]
    fn sampler_is_deterministic_per_epoch_and_varies_across_epochs() {
        let g = TableGraph::build(&skewed_table(), GraphConfig::default(), &[]);
        let mut a = NeighborSampler::new(&g, 42, 2);
        let mut b = NeighborSampler::new(&g, 42, 2);
        a.sample_epoch(3);
        b.sample_epoch(3);
        assert_eq!(a.lists(), b.lists(), "same seed + epoch must agree");

        // replaying an epoch after sampling others reproduces it exactly
        let third: Vec<Vec<Vec<u32>>> = a.lists().to_vec();
        a.sample_epoch(4);
        a.sample_epoch(9);
        a.sample_epoch(3);
        assert_eq!(a.lists(), third.as_slice(), "epoch replay must be stable");

        // different epochs (or seeds) must not all collapse to one sample
        b.sample_epoch(4);
        assert_ne!(a.lists(), b.lists(), "epochs 3 and 4 sampled identically");
        let mut c = NeighborSampler::new(&g, 43, 2);
        c.sample_epoch(3);
        assert_ne!(a.lists(), c.lists(), "seeds 42 and 43 sampled identically");
    }

    #[test]
    fn sampler_keeps_small_neighborhoods_whole() {
        let g = TableGraph::build(&table(), GraphConfig::default(), &[]);
        let full = reference_lists(&g);
        // fanout larger than any degree: the sample is the full graph
        let mut s = NeighborSampler::new(&g, 0, 64);
        let total = s.sample_epoch(0);
        assert_eq!(s.lists(), full.as_slice());
        assert_eq!(
            total,
            full.iter().flatten().map(|l| l.len() as u64).sum::<u64>()
        );
    }
}
