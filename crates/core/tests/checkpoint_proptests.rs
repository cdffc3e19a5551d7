//! Property-based tests of the fault-tolerance machinery: the checkpoint
//! codec must roundtrip arbitrary state bit-exactly (including non-finite
//! floats), and an interrupted-then-resumed training run must produce the
//! same table as an uninterrupted one, bit for bit.

use grimp::{GrimpConfig, Pipeline, TaskKind, TrainCheckpoint, TrainReport};
use grimp_graph::FeatureSource;
use grimp_table::{inject_mcar, ColumnKind, Schema, Table, Value};
use grimp_tensor::{AdamState, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    let element = prop_oneof![
        12 => (-100.0f32..100.0).prop_map(|v| v),
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
    ];
    (
        1usize..4,
        1usize..4,
        proptest::collection::vec(element, 1..10),
    )
        .prop_map(|(rows, cols, pool)| {
            let data: Vec<f32> = (0..rows * cols).map(|i| pool[i % pool.len()]).collect();
            Tensor::from_vec(rows, cols, data)
        })
}

fn arb_checkpoint() -> impl Strategy<Value = TrainCheckpoint> {
    let params = proptest::collection::vec(arb_tensor(), 1..5);
    let adam_pair = proptest::collection::vec((arb_tensor(), arb_tensor()), 1..5);
    let scalars = (
        0u64..1000,
        prop_oneof![4 => 1e-6f32..1.0, 1 => Just(f32::NAN)],
        0u32..8,
    );
    let more = (
        prop_oneof![3 => -10.0f32..10.0, 1 => Just(f32::INFINITY)],
        0u64..50,
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        ),
    );
    (scalars, more, params, (adam_pair, 0u32..3)).prop_map(
        |((epoch, lr, recoveries), (best_val, since_best, rng), params, (adam_pair, best))| {
            let (m, v): (Vec<Tensor>, Vec<Tensor>) = adam_pair.into_iter().unzip();
            let best_params = match best {
                0 => None,
                _ => Some(params.clone()),
            };
            TrainCheckpoint {
                epoch,
                lr,
                recoveries,
                best_val,
                since_best,
                rng: [rng.0, rng.1, rng.2, rng.3],
                params,
                adam: AdamState {
                    t: epoch as u32,
                    m,
                    v,
                },
                best_params,
            }
        },
    )
}

fn tensors_bit_equal(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn checkpoint_roundtrips_bit_exactly(ck in arb_checkpoint()) {
        let bytes = ck.to_bytes();
        let back = TrainCheckpoint::from_bytes(&bytes).expect("roundtrip decodes");
        // scalars: compare float fields by bit pattern so NaN/Inf count
        prop_assert_eq!(back.epoch, ck.epoch);
        prop_assert_eq!(back.lr.to_bits(), ck.lr.to_bits());
        prop_assert_eq!(back.recoveries, ck.recoveries);
        prop_assert_eq!(back.best_val.to_bits(), ck.best_val.to_bits());
        prop_assert_eq!(back.since_best, ck.since_best);
        prop_assert_eq!(back.rng, ck.rng);
        prop_assert!(tensors_bit_equal(&back.params, &ck.params));
        prop_assert_eq!(back.adam.t, ck.adam.t);
        prop_assert!(tensors_bit_equal(&back.adam.m, &ck.adam.m));
        prop_assert!(tensors_bit_equal(&back.adam.v, &ck.adam.v));
        match (&back.best_params, &ck.best_params) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!(tensors_bit_equal(a, b)),
            _ => prop_assert!(false, "best_params presence flag did not roundtrip"),
        }
        // and the re-encoding is byte-identical
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncated_checkpoints_never_decode(ck in arb_checkpoint(), frac in 0.0f64..1.0) {
        let bytes = ck.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(TrainCheckpoint::from_bytes(&bytes[..cut]).is_err());
    }
}

fn training_table(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", ColumnKind::Categorical),
        ("v", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let k = format!("k{}", i % 4);
        let v = format!("v{}", i % 4);
        let x = format!("{}", (i % 4) as f64 * 10.0);
        t.push_str_row(&[Some(&k), Some(&v), Some(&x)]);
    }
    t
}

fn resume_config(seed: u64, epochs: usize) -> GrimpConfig {
    GrimpConfig {
        features: FeatureSource::FastText,
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        task_kind: TaskKind::Linear,
        max_epochs: epochs,
        patience: epochs,
        lr: 2e-2,
        seed,
        ..GrimpConfig::paper()
    }
}

/// Fit through `Pipeline`, then impute the training table: the imputed
/// table and the fit's report.
fn fit_impute(config: GrimpConfig, dirty: &Table) -> (Table, TrainReport) {
    let fitted = Pipeline::new(config)
        .expect("valid config")
        .fit(dirty)
        .expect("fits");
    let imputed = fitted.impute(dirty).expect("training table");
    (imputed, fitted.report().clone())
}

fn assert_bit_identical(a: &Table, b: &Table) {
    assert_eq!(a.n_rows(), b.n_rows());
    assert_eq!(a.n_columns(), b.n_columns());
    for j in 0..a.n_columns() {
        for i in 0..a.n_rows() {
            match (a.get(i, j), b.get(i, j)) {
                (Value::Num(x), Value::Num(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "cell ({i}, {j}) differs")
                }
                (x, y) => assert_eq!(x, y, "cell ({i}, {j}) differs"),
            }
        }
    }
}

proptest! {
    // a fit is expensive; a handful of (seed, split point) cases is
    // enough to cover resuming early, in the middle, and near the end.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn interrupted_runs_resume_bit_identically(seed in 0u64..1000, split in 2usize..11) {
        const EPOCHS: usize = 12;
        let mut dirty = training_table(40);
        inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(seed));

        let reference = fit_impute(resume_config(seed, EPOCHS), &dirty).0;

        let dir = std::env::temp_dir().join(format!(
            "grimp-resume-prop-{}-{seed}-{split}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // phase 1: train only `split` epochs, checkpointing to disk
        let cfg1 = GrimpConfig {
            checkpoint_dir: Some(dir.clone()),
            ..resume_config(seed, split)
        };
        fit_impute(cfg1, &dirty);

        // phase 2: resume and finish the remaining epochs
        let cfg2 = GrimpConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..resume_config(seed, EPOCHS)
        };
        let (resumed, report) = fit_impute(cfg2, &dirty);
        prop_assert_eq!(report.resumed_from_epoch, Some(split));

        assert_bit_identical(&reference, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
