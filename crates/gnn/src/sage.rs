//! Heterogeneous GraphSAGE (paper §3.5, Eq. 1).
//!
//! Each layer `L_k` holds one sub-module `l_{kt}` per edge type `t` (one per
//! table attribute). A sub-module is a GraphSAGE mean-aggregator operating
//! only on edges of its type:
//!
//! `z_t = h · W_self^{kt} + mean_{u ∈ N_t(v)}(h_u) · W_neigh^{kt} + b^{kt}`
//!
//! The per-type outputs are combined by the aggregation `γ` (summation) and
//! passed through the nonlinearity `σ` (ReLU):
//!
//! `h^{(k)} = σ( Σ_t z_t )`
//!
//! The `W_self` term realizes the self-loops the paper adds to the graph.
//! Weights are **not** shared across sub-modules ("allows some independence
//! between each column").

use std::ops::Range;
use std::sync::Arc;

use rand::Rng;

use grimp_graph::{NeighborSampler, TableGraph};
use grimp_tensor::{init, Adjacency, Tape, Tensor, Var, GEMM_K_BLOCK};

/// Hyperparameters of the heterogeneous GNN.
#[derive(Clone, Copy, Debug)]
pub struct GnnConfig {
    /// Number of message-passing layers (`L_GNN`; paper default 2).
    pub layers: usize,
    /// Width of every layer (`#P_GNN`; paper default 64).
    pub hidden: usize,
    /// Optional neighbor-sampling cap: at most this many neighbors per
    /// node per edge type are kept, drawn uniformly without replacement by
    /// a [`grimp_graph::NeighborSampler`] at a fixed key and epoch, so every
    /// binding of one graph keeps the same neighbors and no draw comes from
    /// the training RNG. This implements the graph-pruning efficiency
    /// direction of the paper's §7 — the original GraphSAGE neighborhood
    /// sampling — trading a little accuracy on high-degree cell nodes for
    /// linear-in-cap aggregation cost. `None` aggregates over the full
    /// neighborhood (the paper's default); `Some(0)` is invalid.
    pub neighbor_cap: Option<usize>,
    /// Which convolution operator the sub-modules use. The paper notes each
    /// sub-module could use a different architecture ("l11 using GCN, l12
    /// uses GraphSAGE…") but employs GraphSAGE everywhere; all three
    /// assignments are available here.
    pub operator: OperatorAssignment,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            layers: 2,
            hidden: 64,
            neighbor_cap: None,
            operator: OperatorAssignment::AllSage,
        }
    }
}

/// How convolution operators are assigned to sub-modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatorAssignment {
    /// GraphSAGE mean aggregation everywhere (the paper's choice).
    AllSage,
    /// Kipf–Welling GCN (symmetric-normalized aggregation with self-loops)
    /// everywhere.
    AllGcn,
    /// The paper's illustrative mix: even-indexed columns use GraphSAGE,
    /// odd-indexed columns use GCN.
    Alternating,
}

impl OperatorAssignment {
    fn is_gcn(self, edge_type: usize) -> bool {
        match self {
            OperatorAssignment::AllSage => false,
            OperatorAssignment::AllGcn => true,
            OperatorAssignment::Alternating => edge_type % 2 == 1,
        }
    }
}

/// One sub-module `l_{kt}`: GraphSAGE mean-aggregator or GCN.
#[derive(Clone, Debug)]
enum Module {
    /// `z = h·W_self + mean_N(h)·W_neigh + b`.
    Sage {
        w_self: Var,
        w_neigh: Var,
        bias: Var,
    },
    /// `z = (Â h)·W + b` with `Â` the symmetric-normalized adjacency with
    /// self-loops (Kipf & Welling, 2017).
    Gcn { w: Var, bias: Var },
}

impl Module {
    fn new_sage(tape: &mut Tape, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Module::Sage {
            w_self: tape.param(init::xavier_uniform(in_dim, out_dim, rng)),
            w_neigh: tape.param(init::xavier_uniform(in_dim, out_dim, rng)),
            bias: tape.param(Tensor::zeros(1, out_dim)),
        }
    }

    fn new_gcn(tape: &mut Tape, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Module::Gcn {
            w: tape.param(init::xavier_uniform(in_dim, out_dim, rng)),
            bias: tape.param(Tensor::zeros(1, out_dim)),
        }
    }

    /// The sub-module's output for the node rows `rows` (its neighbors may
    /// be any row of `h`). Over all rows the self term reads `h` itself;
    /// over fewer it reads a row slice, taken after the aggregation so the
    /// backward pass accumulates into `h` in the same order either way.
    fn forward(&self, tape: &mut Tape, h: Var, adj: &TypeAdjacency, rows: Range<usize>) -> Var {
        match (self, adj) {
            (
                Module::Sage {
                    w_self,
                    w_neigh,
                    bias,
                },
                TypeAdjacency::Mean(mean),
            ) => {
                let all_rows = rows.start == 0 && rows.end == tape.value(h).rows();
                let neigh = tape.scatter_mean_rows(h, Arc::clone(mean), rows.clone());
                let h_rows = if all_rows {
                    h
                } else {
                    tape.slice_rows(h, rows)
                };
                let self_part = tape.matmul(h_rows, *w_self);
                let neigh_part = tape.matmul(neigh, *w_neigh);
                let sum = tape.add(self_part, neigh_part);
                tape.add_row_broadcast(sum, *bias)
            }
            (Module::Gcn { w, bias }, TypeAdjacency::Gcn { adj, weights }) => {
                let agg = tape.scatter_weighted_rows(h, Arc::clone(adj), Arc::clone(weights), rows);
                let z = tape.matmul(agg, *w);
                tape.add_row_broadcast(z, *bias)
            }
            _ => unreachable!("an edge type's adjacency is built for its operator"),
        }
    }

    fn n_weights(&self, in_dim: usize, out_dim: usize) -> usize {
        match self {
            Module::Sage { .. } => 2 * in_dim * out_dim + out_dim,
            Module::Gcn { .. } => in_dim * out_dim + out_dim,
        }
    }
}

/// One edge type's aggregation structure, built for the operator its
/// sub-modules use: the plain neighbor lists for GraphSAGE's mean, or their
/// self-looped, symmetric-normalized version for GCN.
#[derive(Clone)]
enum TypeAdjacency {
    Mean(Arc<Adjacency>),
    Gcn {
        adj: Arc<Adjacency>,
        weights: Arc<Vec<f32>>,
    },
}

impl TypeAdjacency {
    fn new(lists: Adjacency, gcn: bool) -> Self {
        if gcn {
            let (adj, weights) = gcn_normalize(&lists);
            TypeAdjacency::Gcn {
                adj: Arc::new(adj),
                weights: Arc::new(weights),
            }
        } else {
            TypeAdjacency::Mean(Arc::new(lists))
        }
    }
}

/// Append self-loops and compute `1/sqrt((d_i+1)(d_j+1))` edge weights,
/// with every degree taken over all of `lists`.
fn gcn_normalize(lists: &Adjacency) -> (Adjacency, Vec<f32>) {
    let n = lists.n_rows();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(lists.n_edges() + n);
    offsets.push(0u32);
    let mut weights = Vec::with_capacity(lists.n_edges() + n);
    for i in 0..n {
        let di = lists.degree(i) + 1;
        // the neighbors, then the self-loop
        for &j in lists
            .neighbors(i)
            .iter()
            .chain(std::iter::once(&(i as u32)))
        {
            targets.push(j);
            let dj = lists.degree(j as usize) + 1;
            weights.push(1.0 / ((di * dj) as f32).sqrt());
        }
        offsets.push(u32::try_from(targets.len()).expect("edge count fits u32"));
    }
    (Adjacency::from_raw(offsets, targets), weights)
}

/// The fixed sampler key and epoch of a [`GnnConfig::neighbor_cap`] draw:
/// every binding of one graph draws the same capped lists.
const NEIGHBOR_CAP_SEED: u64 = 0x5a9e;
const NEIGHBOR_CAP_EPOCH: u64 = 0;

/// The node rows the task heads read: the cell nodes `n_rids..n_nodes`
/// (vectors gather cell embeddings only, §3.3), with the start rounded
/// down to a multiple of [`GEMM_K_BLOCK`]. A graph without cell nodes (a
/// table with no observed value) keeps its last RID row, so that masked
/// vector slots, which point at the range's first row, have a row to read.
///
/// Running the last layer and the merge over these rows instead of all
/// nodes leaves every value the heads read, and every parameter gradient,
/// bit-identical: the rows left out carry zero gradient, and with the
/// aligned start the weight-gradient products sum the remaining rows in the
/// same [`GEMM_K_BLOCK`]-row groups as the all-rows pass. The range is
/// decided here only; callers hand it to [`HeteroSage::forward_rows`] and
/// rebase their gather indices onto its start.
pub fn readout_rows(graph: &TableGraph) -> Range<usize> {
    let first_cell = graph.n_rids().min(graph.n_nodes().saturating_sub(1));
    first_cell / GEMM_K_BLOCK * GEMM_K_BLOCK..graph.n_nodes()
}

/// The heterogeneous GNN: `layers × edge_types` GraphSAGE sub-modules plus
/// the per-type CSR adjacencies of one table graph. A clone shares the
/// adjacencies and the parameter handles, so rebinding a clone to another
/// graph leaves the original bound to its own.
#[derive(Clone)]
pub struct HeteroSage {
    modules: Vec<Vec<Module>>,
    adj: Vec<TypeAdjacency>,
    in_dim: usize,
    config: GnnConfig,
}

impl HeteroSage {
    /// Register the GNN's parameters on `tape` and precompute the per-type
    /// adjacencies of `graph`.
    pub fn new(
        tape: &mut Tape,
        graph: &TableGraph,
        in_dim: usize,
        config: GnnConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(config.layers >= 1, "at least one GNN layer required");
        let n_types = graph.n_edge_types();
        let mut modules = Vec::with_capacity(config.layers);
        for layer in 0..config.layers {
            let d_in = if layer == 0 { in_dim } else { config.hidden };
            let row: Vec<Module> = (0..n_types)
                .map(|t| {
                    if config.operator.is_gcn(t) {
                        Module::new_gcn(tape, d_in, config.hidden, rng)
                    } else {
                        Module::new_sage(tape, d_in, config.hidden, rng)
                    }
                })
                .collect();
            modules.push(row);
        }
        let mut sage = HeteroSage {
            modules,
            adj: Vec::new(),
            in_dim,
            config,
        };
        sage.bind_graph(graph);
        sage
    }

    /// Install `graph`'s per-type neighbor lists: whole, or drawn down to
    /// `neighbor_cap` by the [`NeighborSampler`] at a fixed key and epoch.
    fn bind_graph(&mut self, graph: &TableGraph) {
        match self.config.neighbor_cap {
            None => self.bind(
                graph
                    .csr_adjacency()
                    .into_iter()
                    .map(|csr| {
                        let (offsets, targets) = csr.into_raw();
                        Adjacency::from_raw(offsets, targets)
                    })
                    .collect(),
            ),
            Some(cap) => {
                let mut sampler = NeighborSampler::new(graph, NEIGHBOR_CAP_SEED, cap);
                sampler.sample_epoch(NEIGHBOR_CAP_EPOCH);
                self.rebind_lists(sampler.lists());
            }
        }
    }

    /// Install per-type neighbor lists, each in the form its operator
    /// aggregates over.
    fn bind(&mut self, per_type: Vec<Adjacency>) {
        self.adj = per_type
            .into_iter()
            .enumerate()
            .map(|(t, lists)| TypeAdjacency::new(lists, self.config.operator.is_gcn(t)))
            .collect();
    }

    /// Rebind the GNN to a different graph with the same number of edge
    /// types (used when the underlying table's edges change, e.g. fresh
    /// corruption or inductive reuse, while keeping trained weights). The
    /// lists are those [`HeteroSage::new`] binds for the same graph.
    pub fn rebind(&mut self, graph: &TableGraph) {
        assert_eq!(
            graph.n_edge_types(),
            self.modules[0].len(),
            "graph has a different number of edge types"
        );
        self.bind_graph(graph);
    }

    /// Rebind the GNN to explicit per-type neighbor lists (shaped like
    /// [`TableGraph::neighbor_lists`]) instead of a graph — the sampled
    /// training path hands in each epoch's fanout-capped lists from the
    /// deterministic neighbor sampler. The node count must stay fixed so
    /// tensor shapes (and hence the training workspace) are unchanged; the
    /// configured `neighbor_cap` is **not** re-applied on top, the lists are
    /// used verbatim.
    pub fn rebind_lists(&mut self, per_type: &[Vec<Vec<u32>>]) {
        assert_eq!(
            per_type.len(),
            self.modules[0].len(),
            "lists cover a different number of edge types"
        );
        self.bind(
            per_type
                .iter()
                .map(|lists| Adjacency::from_lists(lists))
                .collect(),
        );
    }

    /// Message passing over all layers. `features` must be
    /// `n_nodes × in_dim`; the result is `n_nodes × hidden`.
    pub fn forward(&self, tape: &mut Tape, features: Var) -> Var {
        let n = tape.value(features).rows();
        self.forward_rows(tape, features, 0..n)
    }

    /// Message passing with the last layer computed for the node rows
    /// `rows` only. Every earlier layer runs over all nodes, since the last
    /// one aggregates from any of them; the result is `rows.len() ×
    /// hidden`, its row `i` being node `rows.start + i`'s embedding with the
    /// bits [`HeteroSage::forward`] gives it. Over [`readout_rows`] the
    /// parameter gradients of a loss that reads only these rows are those
    /// of the all-rows pass, bit for bit, too.
    pub fn forward_rows(&self, tape: &mut Tape, features: Var, rows: Range<usize>) -> Var {
        let (n, cols) = tape.value(features).shape();
        assert_eq!(
            cols, self.in_dim,
            "feature width does not match GNN input dim"
        );
        assert!(
            rows.start <= rows.end && rows.end <= n,
            "node rows {rows:?} beyond the {n} feature rows"
        );
        let last = self.modules.len() - 1;
        let mut h = features;
        for (layer, modules) in self.modules.iter().enumerate() {
            let out_rows = if layer == last { rows.clone() } else { 0..n };
            let per_type: Vec<Var> = modules
                .iter()
                .zip(&self.adj)
                .map(|(module, adj)| module.forward(tape, h, adj, out_rows.clone()))
                .collect();
            let combined = tape.add_n(&per_type);
            h = tape.relu(combined);
        }
        h
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.config.hidden
    }

    /// Configured shape.
    pub fn config(&self) -> GnnConfig {
        self.config
    }

    /// Number of scalar weights actually allocated (all sub-modules).
    pub fn n_weights(&self) -> usize {
        let mut total = 0;
        for (layer, row) in self.modules.iter().enumerate() {
            let d_in = if layer == 0 {
                self.in_dim
            } else {
                self.config.hidden
            };
            total += row
                .iter()
                .map(|m| m.n_weights(d_in, self.config.hidden))
                .sum::<usize>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grimp_graph::GraphConfig;
    use grimp_table::{ColumnKind, Schema, Table};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn graph() -> (Table, TableGraph) {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let t = Table::from_rows(
            schema,
            &[
                vec![Some("x"), Some("p")],
                vec![Some("x"), Some("q")],
                vec![Some("y"), None],
            ],
        );
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        (t, g)
    }

    #[test]
    fn forward_produces_hidden_width_for_all_nodes() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            8,
            GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            &mut rng,
        );
        tape.freeze();
        let x = tape.input(Tensor::full(g.n_nodes(), 8, 0.1));
        let h = sage.forward(&mut tape, x);
        assert_eq!(tape.value(h).shape(), (g.n_nodes(), 16));
        assert!(tape.value(h).all_finite());
    }

    #[test]
    fn gradients_flow_to_every_submodule() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            4,
            GnnConfig {
                layers: 2,
                hidden: 8,
                ..Default::default()
            },
            &mut rng,
        );
        tape.freeze();
        let x = tape.input(Tensor::full(g.n_nodes(), 4, 0.5));
        let h = sage.forward(&mut tape, x);
        let sq = tape.mul_elem(h, h);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        let mut with_grad = 0;
        for i in 0..tape.param_count() {
            if tape.grad(Var::from_index(i)).is_some() {
                with_grad += 1;
            }
        }
        // 2 layers x 2 types x 3 tensors
        assert_eq!(with_grad, 12);
    }

    #[test]
    fn isolated_nodes_still_get_representations() {
        // A node with no edges in some type must not produce NaNs
        // (scatter_mean yields a zero row; the self term carries it).
        let schema = Schema::from_pairs(&[("a", ColumnKind::Categorical)]);
        let t = Table::from_rows(schema, &[vec![Some("x")], vec![None]]);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            4,
            GnnConfig {
                layers: 2,
                hidden: 8,
                ..Default::default()
            },
            &mut rng,
        );
        tape.freeze();
        let x = tape.input(Tensor::full(g.n_nodes(), 4, 1.0));
        let h = sage.forward(&mut tape, x);
        assert!(tape.value(h).all_finite());
    }

    #[test]
    fn isolated_node_aggregation_is_bit_identical_across_backends() {
        // The degree-0 path (scatter_mean zero rows) must agree bit-for-bit
        // between the serial and parallel kernel backends, through the full
        // hetero forward + backward — outputs and parameter gradients alike.
        let schema = Schema::from_pairs(&[("a", ColumnKind::Categorical)]);
        let t = Table::from_rows(schema, &[vec![Some("x")], vec![None], vec![Some("y")]]);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let run = |kind: grimp_tensor::BackendKind| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut tape = Tape::new();
            tape.set_backend(kind);
            let sage = HeteroSage::new(
                &mut tape,
                &g,
                4,
                GnnConfig {
                    layers: 2,
                    hidden: 8,
                    ..Default::default()
                },
                &mut rng,
            );
            tape.freeze();
            let x = tape.input(Tensor::full(g.n_nodes(), 4, 0.5));
            let h = sage.forward(&mut tape, x);
            let sq = tape.mul_elem(h, h);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            let grads: Vec<u32> = (0..tape.param_count())
                .filter_map(|i| tape.grad(Var::from_index(i)))
                .flat_map(|gr| {
                    gr.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect();
            let out: Vec<u32> = tape
                .value(h)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (out, grads)
        };
        let serial = run(grimp_tensor::BackendKind::Serial);
        for threads in [1, 2, 8] {
            let parallel = run(grimp_tensor::BackendKind::Parallel { threads });
            assert_eq!(serial.0, parallel.0, "outputs, {threads} threads");
            assert_eq!(serial.1, parallel.1, "gradients, {threads} threads");
        }
    }

    #[test]
    fn neighbors_influence_each_other() {
        // Changing a neighbor's features must change a node's output.
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(3);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            4,
            GnnConfig {
                layers: 1,
                hidden: 8,
                ..Default::default()
            },
            &mut rng,
        );
        tape.freeze();

        let run = |tape: &mut Tape, feat: Tensor| -> Tensor {
            let x = tape.input(feat);
            let h = sage.forward(tape, x);
            let out = tape.value(h).clone();
            tape.reset();
            out
        };
        let base = Tensor::full(g.n_nodes(), 4, 0.5);
        let mut changed = base.clone();
        // perturb the cell node shared by rows 0 and 1 (value "x" in col a)
        let shared = g.cell_node(0, "x").unwrap() as usize;
        for d in 0..4 {
            changed.set(shared, d, 5.0);
        }
        let h_base = run(&mut tape, base);
        let h_changed = run(&mut tape, changed);
        // row 0 and row 1 RID outputs must differ, row 2's must not
        // (row 2 holds value "y", not "x", and has no column-b edge).
        let diff = |r: usize| -> f32 {
            h_base
                .row_slice(r)
                .iter()
                .zip(h_changed.row_slice(r))
                .map(|(&a, &b)| (a - b).abs())
                .sum()
        };
        assert!(diff(0) > 1e-4);
        assert!(diff(1) > 1e-4);
        assert!(diff(2) < 1e-6);
    }

    #[test]
    fn neighbor_cap_bounds_every_adjacency_list() {
        // a table where one cell value is shared by many rows → high degree
        let schema = Schema::from_pairs(&[("a", ColumnKind::Categorical)]);
        let rows: Vec<Vec<Option<&str>>> = (0..50).map(|_| vec![Some("hot")]).collect();
        let t = Table::from_rows(schema, &rows);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut tape = Tape::new();
        let cfg = GnnConfig {
            layers: 1,
            hidden: 8,
            neighbor_cap: Some(4),
            ..Default::default()
        };
        let sage = HeteroSage::new(&mut tape, &g, 4, cfg, &mut rng);
        tape.freeze();
        // the hot cell node has degree 50 uncapped; forward must behave as
        // if degree ≤ 4 — verify via the adjacency actually used
        for adj in &sage.adj {
            let TypeAdjacency::Mean(mean) = adj else {
                panic!("GraphSAGE types aggregate plain lists");
            };
            for node in 0..mean.n_rows() {
                assert!(
                    mean.degree(node) <= 4,
                    "node {node} degree {}",
                    mean.degree(node)
                );
            }
        }
        // and the forward pass still works
        let x = tape.input(Tensor::full(g.n_nodes(), 4, 0.5));
        let h = sage.forward(&mut tape, x);
        assert!(tape.value(h).all_finite());
    }

    #[test]
    fn capped_new_and_rebind_bind_the_fixed_sampler_draw() {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let rows: Vec<Vec<Option<&str>>> = (0..30)
            .map(|i| vec![Some("hot"), Some(["p", "q", "r"][i % 3])])
            .collect();
        let t = Table::from_rows(schema, &rows);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let cfg = GnnConfig {
            layers: 1,
            hidden: 8,
            neighbor_cap: Some(4),
            ..Default::default()
        };
        let bound = |sage: &HeteroSage| -> Vec<Vec<Vec<u32>>> {
            sage.adj
                .iter()
                .map(|adj| {
                    let TypeAdjacency::Mean(mean) = adj else {
                        panic!("GraphSAGE types aggregate plain lists");
                    };
                    (0..mean.n_rows())
                        .map(|v| mean.neighbors(v).to_vec())
                        .collect()
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let mut sage = HeteroSage::new(&mut Tape::new(), &g, 4, cfg, &mut rng);
        let at_new = bound(&sage);
        let mut sampler = NeighborSampler::new(&g, NEIGHBOR_CAP_SEED, 4);
        sampler.sample_epoch(NEIGHBOR_CAP_EPOCH);
        assert_eq!(at_new, sampler.lists());
        sage.rebind(&g);
        assert_eq!(bound(&sage), at_new);

        // The draw takes nothing from the build RNG: it continues exactly
        // as after an uncapped build.
        let mut uncapped_rng = StdRng::seed_from_u64(10);
        let uncapped = GnnConfig {
            neighbor_cap: None,
            ..cfg
        };
        HeteroSage::new(&mut Tape::new(), &g, 4, uncapped, &mut uncapped_rng);
        assert_eq!(rng.next_u64(), uncapped_rng.next_u64());
    }

    #[test]
    fn uncapped_config_keeps_full_neighborhoods() {
        let schema = Schema::from_pairs(&[("a", ColumnKind::Categorical)]);
        let rows: Vec<Vec<Option<&str>>> = (0..20).map(|_| vec![Some("hot")]).collect();
        let t = Table::from_rows(schema, &rows);
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            4,
            GnnConfig {
                layers: 1,
                hidden: 8,
                ..Default::default()
            },
            &mut rng,
        );
        let hot = g.cell_node(0, "hot").unwrap() as usize;
        let TypeAdjacency::Mean(mean) = &sage.adj[0] else {
            panic!("GraphSAGE types aggregate plain lists");
        };
        assert_eq!(mean.degree(hot), 20);
    }

    #[test]
    fn gcn_modules_forward_and_train() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        let cfg = GnnConfig {
            layers: 2,
            hidden: 8,
            operator: OperatorAssignment::AllGcn,
            ..Default::default()
        };
        let sage = HeteroSage::new(&mut tape, &g, 4, cfg, &mut rng);
        tape.freeze();
        let x = tape.input(Tensor::full(g.n_nodes(), 4, 0.5));
        let h = sage.forward(&mut tape, x);
        assert!(tape.value(h).all_finite());
        let sq = tape.mul_elem(h, h);
        let loss = tape.sum_all(sq);
        tape.backward(loss);
        let with_grad = (0..tape.param_count())
            .filter(|&i| tape.grad(Var::from_index(i)).is_some())
            .count();
        // 2 layers x 2 types x 2 tensors (GCN has W + bias)
        assert_eq!(with_grad, 8);
    }

    #[test]
    fn alternating_assignment_mixes_operators() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(8);
        let mut tape = Tape::new();
        let cfg = GnnConfig {
            layers: 1,
            hidden: 8,
            operator: OperatorAssignment::Alternating,
            ..Default::default()
        };
        let sage = HeteroSage::new(&mut tape, &g, 4, cfg, &mut rng);
        // column 0 = SAGE (3 tensors), column 1 = GCN (2 tensors)
        assert_eq!(tape.total_param_elems(), sage.n_weights());
        assert_eq!(sage.n_weights(), (2 * 4 * 8 + 8) + (4 * 8 + 8));
    }

    #[test]
    fn gcn_normalization_weights_are_symmetric_stochasticish() {
        // hand check: path graph 0-1 plus self loops
        let lists = Adjacency::from_lists(&[vec![1u32], vec![0u32]]);
        let (adj, w) = gcn_normalize(&lists);
        assert_eq!(adj.n_edges(), 4); // 2 edges + 2 self-loops
                                      // all degrees are 1 (+1 self) → every weight = 1/2
        assert!(w.iter().all(|&x| (x - 0.5).abs() < 1e-6), "{w:?}");
    }

    #[test]
    fn rebind_lists_swaps_the_adjacency_and_back() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(9);
        let mut tape = Tape::new();
        let mut sage = HeteroSage::new(
            &mut tape,
            &g,
            4,
            GnnConfig {
                layers: 1,
                hidden: 8,
                ..Default::default()
            },
            &mut rng,
        );
        tape.freeze();
        let full = g.neighbor_lists();
        let run = |tape: &mut Tape, sage: &HeteroSage| -> Vec<u32> {
            let x = tape.input(Tensor::full(g.n_nodes(), 4, 0.5));
            let h = sage.forward(tape, x);
            let bits = tape
                .value(h)
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            tape.reset();
            bits
        };
        let h_full = run(&mut tape, &sage);

        // empty column-0 neighborhoods → different aggregation result
        let mut stripped = full.clone();
        for list in &mut stripped[0] {
            list.clear();
        }
        sage.rebind_lists(&stripped);
        let h_stripped = run(&mut tape, &sage);
        assert_ne!(h_full, h_stripped, "stripped adjacency must change output");

        // rebinding the verbatim full lists restores the original bits
        sage.rebind_lists(&full);
        assert_eq!(run(&mut tape, &sage), h_full);
    }

    #[test]
    fn n_weights_matches_shape_arithmetic() {
        let (_, g) = graph();
        let mut rng = StdRng::seed_from_u64(4);
        let mut tape = Tape::new();
        let sage = HeteroSage::new(
            &mut tape,
            &g,
            8,
            GnnConfig {
                layers: 2,
                hidden: 16,
                ..Default::default()
            },
            &mut rng,
        );
        // layer 0: 2 types x (2*8*16 + 16); layer 1: 2 types x (2*16*16 + 16)
        assert_eq!(
            sage.n_weights(),
            2 * (2 * 8 * 16 + 16) + 2 * (2 * 16 * 16 + 16)
        );
        assert_eq!(tape.total_param_elems(), sage.n_weights());
    }
}
