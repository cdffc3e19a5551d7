//! Layer replays for the traced run. Calls that happen inside another
//! public function (the graph build inside `FittedModel::impute`, the
//! neighbor sample inside the epoch loop, the kernels inside the tape) are
//! timed by replaying the same inputs through that layer's own public
//! function, after the timed phase so they cannot perturb it.

use std::hint::black_box;

use grimp::GrimpConfig;
use grimp_gnn::HeteroSage;
use grimp_graph::{fasttext_features, NeighborSampler, TableGraph};
use grimp_obs::{Event, EventKind};
use grimp_table::{ColumnKind, Corpus, Normalizer, Table};
use grimp_tensor::{make_backend, Adjacency, BackendKind, Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{time_ms, RunResult};

/// Repetitions of each replayed call; the median is reported.
const REPS: usize = 5;

/// The graph and FastText seed a fit builds, rebuilt the way `fit_model`
/// does: normalize, draw the validation split from the model seed, drop
/// the samples of columns with fewer than two distinct observed values
/// (they never train a head), drop validation edges (chunked when
/// sampled), then draw the feature seed.
pub struct FitGraph {
    pub graph: TableGraph,
    pub ft_seed: u64,
}

pub fn fit_graph(cfg: &GrimpConfig, dirty: &Table) -> FitGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut norm = dirty.clone();
    Normalizer::fit(dirty).apply(&mut norm);
    let mut corpus = Corpus::build(&norm, cfg.validation_fraction, &mut rng);
    for j in 0..dirty.n_columns() {
        if distinct_observed(dirty, j) < 2 {
            corpus.validation[j].clear();
        }
    }
    let excluded: Vec<(usize, usize)> = corpus
        .validation_flat()
        .map(|s| (s.row, s.target_col))
        .collect();
    let graph = match &cfg.sampler {
        Some(s) => TableGraph::build_chunked(&norm, cfg.graph, &excluded, s.batch_rows),
        None => TableGraph::build(&norm, cfg.graph, &excluded),
    };
    FitGraph {
        graph,
        ft_seed: rng.gen(),
    }
}

/// Distinct observed (finite, for numerical columns) values of column `j`,
/// counted as the fit's column-tier detection counts them.
fn distinct_observed(table: &Table, j: usize) -> usize {
    match table.schema().column(j).kind {
        ColumnKind::Categorical => table.column(j).n_distinct(),
        ColumnKind::Numerical => {
            let mut bits: Vec<u64> = (0..table.n_rows())
                .filter_map(|i| table.get(i, j).as_num())
                .filter(|v| v.is_finite())
                .map(f64::to_bits)
                .collect();
            bits.sort_unstable();
            bits.dedup();
            bits.len()
        }
    }
}

/// The `graph_nodes` and `graph_edges` counters a traced fit emitted.
pub fn graph_counts(events: &[Event]) -> (f64, f64) {
    let counter = |name: &str| {
        events
            .iter()
            .find(|e| e.kind == EventKind::Counter && e.name == name)
            .map_or(f64::NAN, |e| e.value)
    };
    (counter("graph_nodes"), counter("graph_edges"))
}

/// Rebuild a fit's graph for the replays and check it against the
/// fit's own counters, which are what `graph.nodes`/`graph.edges` report.
pub fn checked_fit_graph(
    cfg: &GrimpConfig,
    dirty: &Table,
    (nodes, edges): (f64, f64),
    out: &mut RunResult,
) -> FitGraph {
    let fg = fit_graph(cfg, dirty);
    if (nodes, edges) != (fg.graph.n_nodes() as f64, fg.graph.n_edges() as f64) {
        out.problem(format!(
            "replayed graph has {} nodes and {} edges, the fit's has {nodes} and {edges}",
            fg.graph.n_nodes(),
            fg.graph.n_edges()
        ));
    }
    out.set("graph.nodes", nodes);
    out.set("graph.edges", edges);
    fg
}

/// Median `NeighborSampler::sample_epoch` time over the fit's epochs.
pub fn sample_epoch_ms(cfg: &GrimpConfig, graph: &TableGraph) -> f64 {
    let Some(s) = &cfg.sampler else {
        return 0.0;
    };
    let mut sampler = NeighborSampler::new(graph, cfg.seed, s.fanout);
    let mut epoch = 0u64;
    time_ms(cfg.max_epochs.max(REPS), || {
        black_box(sampler.sample_epoch(epoch));
        epoch += 1;
    })
}

/// Median `HeteroSage::forward` time on `graph` with the model's shapes
/// (on epoch 0's sampled adjacency when the fit samples).
pub fn gnn_forward_ms(cfg: &GrimpConfig, graph: &TableGraph, ft_seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tape = Tape::new();
    tape.set_backend(cfg.backend);
    let mut gnn = HeteroSage::new(&mut tape, graph, cfg.feature_dim, cfg.gnn, &mut rng);
    if let Some(s) = &cfg.sampler {
        let mut sampler = NeighborSampler::new(graph, cfg.seed, s.fanout);
        sampler.sample_epoch(0);
        gnn.rebind_lists(sampler.lists());
    }
    let features = fasttext_features(graph, cfg.feature_dim, ft_seed);
    let x = tape.input(Tensor::from_vec(
        graph.n_nodes(),
        cfg.feature_dim,
        features.node_matrix,
    ));
    tape.freeze();
    time_ms(REPS, || {
        black_box(gnn.forward(&mut tape, x));
        tape.reset();
    })
}

/// A deterministic, non-constant tensor.
fn varied(rows: usize, cols: usize, salt: u32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 - 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Time the `TensorBackend` kernels at the shapes of the first GNN layer
/// on `graph` (node features × weight, and the two gradient products),
/// every edge type's mean aggregation, and the cross-entropy loss and
/// backward of the widest categorical head on a training batch. FLOPs are
/// computed from the shapes, not counted.
pub fn tensor_kernels(cfg: &GrimpConfig, graph: &TableGraph, table: &Table, out: &mut RunResult) {
    let backend = make_backend(BackendKind::Serial);
    let (n, d, h) = (graph.n_nodes(), cfg.feature_dim, cfg.gnn.hidden);
    let x = varied(n, d, 1);
    let w = varied(d, h, 2);
    let g = varied(n, h, 3);
    let mut y = Tensor::zeros(n, h);
    let mut gw = Tensor::zeros(d, h);
    let mut gx = Tensor::zeros(n, d);
    let mm = time_ms(REPS, || backend.matmul_into(&x, &w, &mut y));
    let tn = time_ms(REPS, || backend.matmul_tn_into(&x, &g, &mut gw));
    let nt = time_ms(REPS, || backend.matmul_nt_into(&g, &w, &mut gx));
    let lists = graph.neighbor_lists();
    let adjs: Vec<Adjacency> = lists.iter().map(|l| Adjacency::from_lists(l)).collect();
    let mut agg = Tensor::zeros(n, h);
    let scatter = time_ms(REPS, || {
        for adj in &adjs {
            backend.scatter_mean_into(&g, adj, &mut agg);
        }
    });
    let classes = (0..table.n_columns())
        .filter(|&j| table.schema().column(j).kind == ColumnKind::Categorical)
        .map(|j| table.dictionary(j).len())
        .max()
        .unwrap_or(2)
        .max(2);
    let batch = match &cfg.sampler {
        Some(s) => s.batch_rows,
        None => cfg.max_train_samples_per_task.unwrap_or(table.n_rows()),
    }
    .min(table.n_rows());
    let logits = varied(batch, classes, 4);
    let targets: Vec<u32> = (0..batch).map(|i| (i % classes) as u32).collect();
    let mut dl = logits.clone();
    let ce = time_ms(REPS, || {
        black_box(backend.softmax_ce_loss(&logits, &targets));
        dl.as_mut_slice().copy_from_slice(logits.as_slice());
        backend.softmax_ce_backward(&mut dl, &targets, 1.0 / batch as f32);
    });
    black_box((&y, &gw, &gx, &agg, &dl));
    out.set("tensor.matmul_ms", mm);
    out.set("tensor.matmul_tn_ms", tn);
    out.set("tensor.matmul_nt_ms", nt);
    out.set("tensor.scatter_mean_ms", scatter);
    out.set("tensor.softmax_ce_ms", ce);
    let flops = 3.0 * 2.0 * (n * d * h) as f64;
    out.set(
        "tensor.matmul_gflops",
        flops / ((mm + tn + nt) * 1e-3) / 1e9,
    );
}

/// Per-call replay times of one request body through the layers inside
/// `FittedModel::impute`, in milliseconds.
pub struct RequestReplay {
    pub graph_build_ms: f64,
    pub fasttext_ms: f64,
    pub forward_ms: f64,
}

/// Replay the inductive path's graph build, FastText features and GNN
/// forward for `request`, normalized with the served table's statistics.
pub fn request_layers(
    cfg: &GrimpConfig,
    normalizer: &Normalizer,
    request: &Table,
    ft_seed: u64,
) -> RequestReplay {
    let mut norm = request.clone();
    normalizer.apply(&mut norm);
    let mut graph = None;
    let graph_build_ms = time_ms(1, || graph = Some(TableGraph::build(&norm, cfg.graph, &[])));
    let graph = graph.expect("built above");
    let mut features = None;
    let fasttext_ms = time_ms(1, || {
        features = Some(fasttext_features(&graph, cfg.feature_dim, ft_seed));
    });
    let features = features.expect("computed above");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tape = Tape::new();
    let gnn = HeteroSage::new(&mut tape, &graph, cfg.feature_dim, cfg.gnn, &mut rng);
    let x = tape.input(Tensor::from_vec(
        graph.n_nodes(),
        cfg.feature_dim,
        features.node_matrix,
    ));
    tape.freeze();
    let forward_ms = time_ms(1, || {
        black_box(gnn.forward(&mut tape, x));
        tape.reset();
    });
    RequestReplay {
        graph_build_ms,
        fasttext_ms,
        forward_ms,
    }
}
