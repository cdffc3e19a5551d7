//! Criterion micro-benchmarks of the hot components: graph construction,
//! pre-trained features, GNN forward/backward, task heads, the random
//! forest, and the raw tensor kernels they all sit on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use grimp::{GrimpConfig, Task, TaskKind, VectorBatch};
use grimp_baselines::{ForestConfig, RandomForest, TreeLabels, TreeTarget};
use grimp_bench::{corrupt, prepare, Profile};
use grimp_datasets::DatasetId;
use grimp_gnn::{GnnConfig, HeteroSage};
use grimp_graph::{build_features, EmbdiConfig, FeatureSource, GraphConfig, TableGraph};
use grimp_table::FdSet;
use grimp_tensor::{Adjacency, Tape, Tensor};

fn bench_tensor_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = grimp_tensor::init::xavier_uniform(256, 256, &mut rng);
    let b = grimp_tensor::init::xavier_uniform(256, 256, &mut rng);
    c.bench_function("tensor/matmul_256", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)))
    });
    c.bench_function("tensor/matmul_256_ref", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_ref(&b)))
    });
    c.bench_function("tensor/matmul_tn_256", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_tn(&b)))
    });
    c.bench_function("tensor/matmul_tn_256_ref", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_tn_ref(&b)))
    });
    c.bench_function("tensor/softmax_rows_256", |bench| {
        bench.iter(|| std::hint::black_box(grimp_tensor::softmax_rows(&a)))
    });

    // Scatter-mean over a pseudo-random adjacency shaped like the cell→row
    // aggregation of a mid-sized table: 512 source rows, 64 dims, ~8
    // neighbors per output row.
    let src = grimp_tensor::init::xavier_uniform(512, 64, &mut rng);
    let lists: Vec<Vec<u32>> = (0..512u32)
        .map(|i| (0..8).map(|k| (i * 37 + k * 131 + 17) % 512).collect())
        .collect();
    let adj = Adjacency::from_lists(&lists);
    let mut out = Tensor::zeros(512, 64);
    c.bench_function("tensor/scatter_mean_512x64", |bench| {
        bench.iter(|| {
            grimp_tensor::scatter_mean_into(&src, &adj, &mut out);
            std::hint::black_box(out.get(0, 0))
        })
    });
}

fn bench_graph_construction(c: &mut Criterion) {
    let prepared = prepare(DatasetId::Adult, Profile::Standard, 0);
    let instance = corrupt(&prepared, 0.20, 1);
    c.bench_function("graph/build_adult_700", |bench| {
        bench.iter(|| {
            std::hint::black_box(TableGraph::build(
                &instance.dirty,
                GraphConfig::default(),
                &[],
            ))
        })
    });
}

fn bench_features(c: &mut Criterion) {
    let prepared = prepare(DatasetId::Mammogram, Profile::Standard, 0);
    let instance = corrupt(&prepared, 0.20, 1);
    let graph = TableGraph::build(&instance.dirty, GraphConfig::default(), &[]);
    for source in [FeatureSource::FastText, FeatureSource::Embdi] {
        c.bench_function(&format!("features/{}_mammogram", source.label()), |bench| {
            bench.iter_batched(
                || StdRng::seed_from_u64(3),
                |mut rng| {
                    std::hint::black_box(build_features(
                        &graph,
                        &instance.dirty,
                        source,
                        24,
                        &EmbdiConfig::default(),
                        &mut rng,
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_gnn(c: &mut Criterion) {
    let prepared = prepare(DatasetId::Mammogram, Profile::Standard, 0);
    let instance = corrupt(&prepared, 0.20, 1);
    let graph = TableGraph::build(&instance.dirty, GraphConfig::default(), &[]);
    let mut rng = StdRng::seed_from_u64(0);
    let mut tape = Tape::new();
    let sage = HeteroSage::new(
        &mut tape,
        &graph,
        24,
        GnnConfig {
            layers: 2,
            hidden: 32,
            ..Default::default()
        },
        &mut rng,
    );
    tape.freeze();
    let features = Tensor::full(graph.n_nodes(), 24, 0.1);
    c.bench_function("gnn/forward_backward_mammogram", |bench| {
        bench.iter(|| {
            let x = tape.input(features.clone());
            let h = sage.forward(&mut tape, x);
            let sq = tape.mul_elem(h, h);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            tape.reset();
        })
    });
}

fn bench_task_heads(c: &mut Criterion) {
    let prepared = prepare(DatasetId::Mammogram, Profile::Standard, 0);
    let instance = corrupt(&prepared, 0.20, 1);
    let graph = TableGraph::build(&instance.dirty, GraphConfig::default(), &[]);
    let dim = 32;
    let samples: Vec<(usize, usize)> = (0..200).map(|i| (i % instance.dirty.n_rows(), 0)).collect();
    let batch = VectorBatch::build(&graph, &samples, dim);
    let cfg = GrimpConfig::fast();
    for kind in [TaskKind::Linear, TaskKind::Attention] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let task = Task::new(
            &mut tape,
            kind,
            instance.dirty.n_columns(),
            dim,
            cfg.merge_hidden,
            5,
            0,
            cfg.k_strategy,
            &FdSet::empty(),
            None,
            &mut rng,
        );
        tape.freeze();
        let h = Tensor::full(graph.n_nodes(), dim, 0.1);
        let label = format!("task/{kind:?}_forward_200").to_lowercase();
        c.bench_function(&label, |bench| {
            bench.iter(|| {
                let hv = tape.input(h.clone());
                let out = task.forward(&mut tape, hv, &batch);
                std::hint::black_box(tape.value(out).sum());
                tape.reset();
            })
        });
    }
}

fn bench_forest(c: &mut Criterion) {
    let prepared = prepare(DatasetId::Mammogram, Profile::Standard, 0);
    let filled = grimp_baselines::mean_mode_fill(&prepared.clean);
    let features = grimp_baselines::FeatureMatrix::from_complete_table(&filled);
    let rows: Vec<usize> = (0..features.n_rows()).collect();
    let labels = TreeLabels::Classes((0..features.n_rows()).map(|i| (i % 3) as u32).collect());
    c.bench_function("forest/fit_mammogram_12trees", |bench| {
        bench.iter_batched(
            || StdRng::seed_from_u64(5),
            |mut rng| {
                std::hint::black_box(RandomForest::fit(
                    &features,
                    &rows,
                    &labels,
                    TreeTarget::Classification(3),
                    &[1, 2, 3, 4, 5],
                    &[],
                    ForestConfig::default(),
                    &mut rng,
                ))
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_tensor_kernels,
    bench_graph_construction,
    bench_features,
    bench_gnn,
    bench_task_heads,
    bench_forest
);
criterion_main!(benches);
