//! End-to-end backend parity: a full `fit` + `impute` on the parallel
//! backend must be **bit-identical** to the serial backend — same epoch
//! losses, same gradient norms, same on-disk checkpoint bytes, same imputed
//! table — on random dirty tables, for 1, 2 and 8 threads. This is the
//! contract that makes `--threads` safe to flip on an existing workflow:
//! checkpoints written by one backend resume exactly under another.

use grimp::{BackendKind, GrimpConfig, Pipeline, TaskKind, CHECKPOINT_FILE};
use grimp_graph::FeatureSource;
use grimp_table::{inject_mcar, ColumnKind, Schema, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn small_config(seed: u64) -> GrimpConfig {
    GrimpConfig {
        features: FeatureSource::FastText,
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 1,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        task_kind: TaskKind::Linear,
        max_epochs: 3,
        patience: 3,
        seed,
        ..GrimpConfig::fast()
    }
}

fn dirty_table(rows: usize, seed: u64) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", ColumnKind::Categorical),
        ("v", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let k = format!("k{}", i % 5);
        let v = format!("v{}", (i + seed as usize) % 4);
        let x = format!("{}", (i % 6) as f64 * 2.5);
        t.push_str_row(&[Some(&k), Some(&v), Some(&x)]);
    }
    inject_mcar(&mut t, 0.15, &mut StdRng::seed_from_u64(seed));
    t
}

/// One full run on `kind`: (train losses, val losses, grad norms, imputed
/// cells, final checkpoint bytes). With `sampler` set the run trains on
/// neighbor-sampled mini-batches instead of the full graph.
#[allow(clippy::type_complexity)]
fn run_sampled(
    dirty: &Table,
    seed: u64,
    kind: BackendKind,
    sampler: Option<grimp::SamplerConfig>,
) -> (Vec<u32>, Vec<u32>, Vec<u64>, Vec<String>, Vec<u8>) {
    let dir = std::env::temp_dir().join(format!(
        "grimp-backend-e2e-{}-{}-{}-{}",
        std::process::id(),
        seed,
        kind.threads(),
        sampler.as_ref().map_or(0, |s| s.batch_rows),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = small_config(seed);
    cfg.backend = kind;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.sampler = sampler;
    let pipeline = Pipeline::new(cfg).expect("valid config");
    let fitted = pipeline.fit(dirty).expect("fit");
    let imputed = fitted.impute(dirty).expect("impute");
    let report = fitted.report();
    assert_eq!(report.backend_threads, kind.threads());
    let bits32 = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let bits64 = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let cells = (0..imputed.n_rows())
        .flat_map(|i| (0..imputed.n_columns()).map(move |j| (i, j)))
        .map(|(i, j)| imputed.display(i, j))
        .collect();
    let ckpt = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("checkpoint written");
    let out = (
        bits32(report.train_losses()),
        bits32(report.val_losses()),
        bits64(report.grad_norms()),
        cells,
        ckpt,
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[allow(clippy::type_complexity)]
fn run(
    dirty: &Table,
    seed: u64,
    kind: BackendKind,
) -> (Vec<u32>, Vec<u32>, Vec<u64>, Vec<String>, Vec<u8>) {
    run_sampled(dirty, seed, kind, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_fit_is_bit_identical_to_serial(rows in 20usize..40, seed in 0u64..100) {
        let dirty = dirty_table(rows, seed);
        let want = run(&dirty, seed, BackendKind::Serial);
        for threads in THREAD_COUNTS {
            let got = run(&dirty, seed, BackendKind::Parallel { threads });
            prop_assert_eq!(&got.0, &want.0, "train losses, {} threads", threads);
            prop_assert_eq!(&got.1, &want.1, "val losses, {} threads", threads);
            prop_assert_eq!(&got.2, &want.2, "grad norms, {} threads", threads);
            prop_assert_eq!(&got.3, &want.3, "imputed cells, {} threads", threads);
            prop_assert_eq!(&got.4, &want.4, "checkpoint bytes, {} threads", threads);
        }
    }

    #[test]
    fn sampled_training_is_bit_identical_across_backends_and_runs(
        rows in 30usize..60,
        seed in 0u64..100,
    ) {
        // Mini-batch draws and neighbor sampling are keyed on (seed, epoch,
        // task/node), never on backend or thread count, so the serial run
        // pins the reference for every thread count — and for a repeat run.
        let dirty = dirty_table(rows, seed);
        let sampler = grimp::SamplerConfig { batch_rows: 8, fanout: 3 };
        let want = run_sampled(&dirty, seed, BackendKind::Serial, Some(sampler));
        let again = run_sampled(&dirty, seed, BackendKind::Serial, Some(sampler));
        prop_assert_eq!(&again, &want, "same-seed rerun diverged");
        for threads in THREAD_COUNTS {
            let got = run_sampled(&dirty, seed, BackendKind::Parallel { threads }, Some(sampler));
            prop_assert_eq!(&got.0, &want.0, "train losses, {} threads", threads);
            prop_assert_eq!(&got.1, &want.1, "val losses, {} threads", threads);
            prop_assert_eq!(&got.2, &want.2, "grad norms, {} threads", threads);
            prop_assert_eq!(&got.3, &want.3, "imputed cells, {} threads", threads);
            prop_assert_eq!(&got.4, &want.4, "checkpoint bytes, {} threads", threads);
        }
    }
}
