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
use std::collections::HashMap;

use grimp_obs::splitmix64;
use grimp_table::{Column, Table, Value};

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

/// Entry of the per-cell node index for a cell without a node: `∅`, or a
/// value the `max_cells_per_column` cutoff dropped.
const NO_NODE: u32 = u32::MAX;

/// The heterogeneous table graph.
#[derive(Clone, Debug)]
pub struct TableGraph {
    n_rows: usize,
    n_cols: usize,
    labels: Vec<NodeLabel>,
    /// The cell nodes of column `j` are `col_start[j]..col_start[j + 1]`.
    col_start: Vec<u32>,
    /// Per column: every row's cell node id, [`NO_NODE`] when it has none.
    cell_nodes: Vec<Vec<u32>>,
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

/// One column's distinct value texts in first-seen order, with their
/// occurrence counts.
#[derive(Default)]
struct ColumnKeys {
    texts: Vec<String>,
    counts: Vec<usize>,
    by_text: HashMap<String, u32>,
}

impl ColumnKeys {
    /// The key index of `text`, registered on first sight.
    fn intern(&mut self, text: String) -> u32 {
        match self.by_text.entry(text) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let k = self.texts.len() as u32;
                self.texts.push(e.key().clone());
                self.counts.push(0);
                *e.insert(k)
            }
        }
    }

    /// Discover `column`'s keys, writing each row's key index into `slots`
    /// ([`NO_NODE`] for `∅`). A key's text is made once per distinct
    /// dictionary code or `f64` bit pattern, so values that print alike —
    /// `-0.00001` and `-0.0` at 4 decimals, every NaN payload — share one
    /// key. Returns the keys and the number of texts made.
    fn discover(column: &Column, decimals: usize, slots: &mut [u32]) -> (Self, u64) {
        let mut keys = ColumnKeys::default();
        let mut made = 0u64;
        match column {
            Column::Categorical { dict, codes } => {
                let mut key_of_code = vec![NO_NODE; dict.len()];
                for (slot, code) in slots.iter_mut().zip(codes) {
                    let Some(code) = *code else { continue };
                    let mut k = key_of_code[code as usize];
                    if k == NO_NODE {
                        made += 1;
                        k = keys.intern(dict[code as usize].clone());
                        key_of_code[code as usize] = k;
                    }
                    keys.counts[k as usize] += 1;
                    *slot = k;
                }
            }
            Column::Numerical { values } => {
                let mut key_of_bits: HashMap<u64, u32> = HashMap::new();
                for (slot, value) in slots.iter_mut().zip(values) {
                    let Some(v) = *value else { continue };
                    let k = match key_of_bits.entry(v.to_bits()) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            made += 1;
                            *e.insert(keys.intern(format_rounded(v, decimals)))
                        }
                    };
                    keys.counts[k as usize] += 1;
                    *slot = k;
                }
            }
        }
        (keys, made)
    }

    /// The key indices that keep a node under `cap`, in first-seen order:
    /// the most frequent keys, ties broken by first occurrence.
    fn kept(&self, cap: Option<usize>) -> Vec<usize> {
        let mut ranked: Vec<usize> = (0..self.texts.len()).collect();
        if let Some(cap) = cap {
            if ranked.len() > cap {
                ranked.sort_by_key(|&k| (Reverse(self.counts[k]), k));
                ranked.truncate(cap);
                ranked.sort_unstable();
            }
        }
        ranked
    }
}

impl TableGraph {
    /// Build the graph from a dirty table, excluding the given cells (in
    /// addition to `∅` cells, which never produce edges). Exclusions that
    /// repeat or fall outside the table are ignored.
    ///
    /// Node ids are all RIDs first, then column by column every distinct
    /// value in first-seen order. Every value gets its node even when all
    /// its occurrences are excluded — imputation candidates must exist as
    /// nodes so they can be scored. Under a `max_cells_per_column` cap a
    /// column keeps its most frequent values (ties broken by first
    /// occurrence), still numbered in first-seen order; capped-out values
    /// contribute no edge.
    pub fn build(table: &Table, config: GraphConfig, excluded: &[(usize, usize)]) -> Self {
        Self::build_counted(table, config, excluded).0
    }

    /// [`TableGraph::build`], also returning the number of value texts the
    /// build made: one per distinct dictionary code and distinct numerical
    /// bit pattern.
    fn build_counted(
        table: &Table,
        config: GraphConfig,
        excluded: &[(usize, usize)],
    ) -> (Self, u64) {
        let n_rows = table.n_rows();
        let n_cols = table.n_columns();
        let mut labels: Vec<NodeLabel> = (0..n_rows).map(|i| NodeLabel::Rid(i as u32)).collect();
        let mut col_start = Vec::with_capacity(n_cols + 1);
        let mut cell_nodes = Vec::with_capacity(n_cols);
        let mut keys_made = 0u64;

        // Key discovery, then numbering: each column's row → key index
        // array is rewritten in place into its row → cell node array.
        for col in 0..n_cols {
            let mut nodes = vec![NO_NODE; n_rows];
            let (mut keys, made) =
                ColumnKeys::discover(table.column(col), config.numeric_decimals, &mut nodes);
            keys_made += made;
            col_start.push(labels.len() as u32);
            let mut node_of_key = vec![NO_NODE; keys.texts.len()];
            for k in keys.kept(config.max_cells_per_column) {
                node_of_key[k] = labels.len() as u32;
                labels.push(NodeLabel::Cell {
                    col: col as u32,
                    text: std::mem::take(&mut keys.texts[k]),
                });
            }
            assert!(labels.len() < NO_NODE as usize, "node ids fit u32");
            for node in nodes.iter_mut().filter(|n| **n != NO_NODE) {
                *node = node_of_key[*node as usize];
            }
            cell_nodes.push(nodes);
        }
        col_start.push(labels.len() as u32);

        // Edges, each column's list in row order, skipping excluded cells.
        let mut dropped = vec![0u64; (n_rows * n_cols).div_ceil(64)];
        for &(row, col) in excluded {
            if row < n_rows && col < n_cols {
                let bit = col * n_rows + row;
                dropped[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        let edges = cell_nodes
            .iter()
            .enumerate()
            .map(|(col, nodes)| {
                let pairs = nodes
                    .iter()
                    .enumerate()
                    .filter(|&(row, &node)| {
                        let bit = col * n_rows + row;
                        node != NO_NODE && dropped[bit / 64] & (1u64 << (bit % 64)) == 0
                    })
                    .map(|(row, &node)| (row as u32, node))
                    .collect();
                TypedEdges { pairs }
            })
            .collect();
        let graph = TableGraph {
            n_rows,
            n_cols,
            labels,
            col_start,
            cell_nodes,
            edges,
            config,
        };
        (graph, keys_made)
    }

    /// [`TableGraph::build`] wrapped in a [`grimp_obs::names::GRAPH_BUILD`]
    /// span, also emitting node, edge and value-key counters into the
    /// trace.
    pub fn build_traced(
        table: &Table,
        config: GraphConfig,
        excluded: &[(usize, usize)],
        trace: &mut grimp_obs::Trace<'_>,
    ) -> Self {
        use grimp_obs::names;
        let span = trace.enter(names::GRAPH_BUILD, 0);
        let (graph, keys_made) = Self::build_counted(table, config, excluded);
        trace.counter(names::GRAPH_NODES, 0, graph.n_nodes() as u64);
        trace.counter(names::GRAPH_EDGES, 0, graph.n_edges() as u64);
        trace.counter(names::GRAPH_KEYS, 0, keys_made);
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

    /// The cell node of table cell `(row, col)` of the table the graph was
    /// built from: `None` for `∅` and for values the `max_cells_per_column`
    /// cutoff dropped. An excluded cell keeps its node (exclusion drops
    /// edges only). One array read, no key formatting.
    pub fn node_of(&self, row: usize, col: usize) -> Option<u32> {
        let node = self.cell_nodes[col][row];
        (node != NO_NODE).then_some(node)
    }

    /// The cell node of a canonical value text within a column, if any — a
    /// scan of the column's cell nodes; [`TableGraph::node_of`] is the
    /// lookup for cells of the graph's own table.
    pub fn cell_node(&self, col: usize, key: &str) -> Option<u32> {
        self.column_cells(col)
            .find(|&(text, _)| text == key)
            .map(|(_, node)| node)
    }

    /// All cell nodes of one attribute with their canonical texts, in
    /// ascending node-id order. Deterministic ordering matters: consumers
    /// sum floats over this iterator and build sampling structures from it.
    pub fn column_cells(&self, col: usize) -> impl Iterator<Item = (&str, u32)> {
        let nodes = self.col_start[col]..self.col_start[col + 1];
        nodes.map(|node| match &self.labels[node as usize] {
            NodeLabel::Cell { text, .. } => (text.as_str(), node),
            NodeLabel::Rid(_) => unreachable!("invariant: column ranges hold cell nodes only"),
        })
    }

    /// Number of distinct cell nodes of an attribute.
    pub fn n_column_cells(&self, col: usize) -> usize {
        (self.col_start[col + 1] - self.col_start[col]) as usize
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
        assert_eq!(g.node_of(4, 0), None);
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
    fn node_of_resolves_every_cell() {
        let t = table();
        let g = TableGraph::build(&t, GraphConfig::default(), &[(0, 0)]);
        // an excluded cell keeps its node; ∅ has none
        assert_eq!(g.node_of(0, 0), g.cell_node(0, "FR"));
        assert_eq!(g.node_of(1, 0), g.cell_node(0, "FR"));
        assert_eq!(g.node_of(2, 0), None);
        assert_eq!(g.node_of(0, 1), g.cell_node(1, "2015.0000"));
        assert_eq!(g.node_of(1, 1), g.cell_node(1, "2014.0000"));
        assert_eq!(g.node_of(2, 1), g.node_of(0, 1));
    }

    #[test]
    fn values_that_print_alike_share_a_node() {
        let schema = Schema::from_pairs(&[("x", ColumnKind::Numerical)]);
        let mut t = Table::empty(schema);
        for v in [-0.00001, -0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY] {
            t.push_value_row(&[Value::Num(v)]);
        }
        let mut sink = grimp_obs::MemorySink::new();
        let g = TableGraph::build_traced(
            &t,
            GraphConfig::default(),
            &[],
            &mut grimp_obs::Trace::new(&mut sink),
        );
        // "-0.0000" ×2, "0.0000", "NaN" ×2, "inf"
        let texts: Vec<&str> = g.column_cells(0).map(|(text, _)| text).collect();
        assert_eq!(texts, ["-0.0000", "0.0000", "NaN", "inf"]);
        assert_eq!(g.node_of(0, 0), g.node_of(1, 0));
        assert_eq!(g.node_of(3, 0), g.node_of(4, 0));
        assert_ne!(g.node_of(1, 0), g.node_of(2, 0));
        // one text made per distinct bit pattern
        let keys: Vec<u64> = sink
            .events()
            .iter()
            .filter(|e| e.name == grimp_obs::names::GRAPH_KEYS)
            .map(|e| e.value as u64)
            .collect();
        assert_eq!(keys, [6]);
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
