//! Inductive reuse of a fitted model (paper §7, future work #4): once
//! trained, a [`FittedModel`] imputes schema-compatible tables it has never
//! seen — the graph is rebuilt over the new rows, a copy of the GNN is
//! bound to it, and the seed-deterministic FastText features map equal
//! value texts to equal vectors — and exposes each task's learned attention
//! profile. The model is immutable, so threads can share it.

use std::sync::{Arc, Barrier};

use grimp::{FittedModel, GrimpConfig, GrimpError, Pipeline, TaskKind};
use grimp_graph::FeatureSource;
use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rows `offset..offset + n` of a table where `b` is a function of `a` and
/// `x` of both: tables with different offsets share the schema and the
/// value domain, not the rows.
fn functional_table(n: usize, offset: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in offset..offset + n {
        let a = format!("a{}", i % 4);
        let b = format!("b{}", i % 4);
        let x = format!("{}", (i % 4) as f64 * 10.0);
        t.push_str_row(&[Some(&a), Some(&b), Some(&x)]);
    }
    t
}

fn config() -> GrimpConfig {
    GrimpConfig {
        features: FeatureSource::FastText,
        feature_dim: 16,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 16,
            ..Default::default()
        },
        merge_hidden: 32,
        embed_dim: 16,
        task_kind: TaskKind::Attention,
        max_epochs: 60,
        patience: 12,
        lr: 2e-2,
        seed: 7,
        ..GrimpConfig::paper()
    }
}

fn fit(config: GrimpConfig, dirty: &Table) -> FittedModel {
    Pipeline::new(config)
        .expect("valid config")
        .fit(dirty)
        .expect("table has columns")
}

fn dirty(n: usize, offset: usize, rate: f64, seed: u64) -> Table {
    let mut t = functional_table(n, offset);
    inject_mcar(&mut t, rate, &mut StdRng::seed_from_u64(seed));
    t
}

#[test]
fn fitted_model_transfers_to_disjoint_unseen_tuples() {
    // train on one sample of the distribution, impute a fresh one
    let model = fit(config(), &dirty(80, 0, 0.1, 2));
    let test_clean = functional_table(60, 1);
    let mut test_dirty = test_clean.clone();
    let log = inject_mcar(&mut test_dirty, 0.15, &mut StdRng::seed_from_u64(3));
    let imputed = model.impute(&test_dirty).unwrap();
    check_imputation_contract(&test_dirty, &imputed).unwrap();
    let cat: Vec<_> = log.cells.iter().filter(|c| c.col < 2).collect();
    let correct = cat
        .iter()
        .filter(|c| imputed.display(c.row, c.col) == test_clean.display(c.row, c.col))
        .count();
    let acc = correct as f64 / cat.len().max(1) as f64;
    assert!(acc > 0.5, "inductive transfer accuracy {acc}");
}

#[test]
fn repeated_unseen_imputes_are_stable() {
    let train = dirty(50, 0, 0.1, 4);
    let model = fit(config(), &train);
    let unseen = dirty(30, 2, 0.15, 5);
    let first = model.impute(&unseen).unwrap();
    assert_eq!(first, model.impute(&unseen).unwrap());
    // a transductive impute in between must not disturb the model
    let _ = model.impute(&train).unwrap();
    assert_eq!(first, model.impute(&unseen).unwrap());
}

#[test]
fn unseen_tables_of_another_schema_are_a_typed_error() {
    let model = fit(
        GrimpConfig {
            max_epochs: 3,
            ..config()
        },
        &dirty(30, 0, 0.1, 5),
    );
    let other = Table::empty(Schema::from_pairs(&[("z", ColumnKind::Numerical)]));
    assert!(matches!(
        model.impute(&other),
        Err(GrimpError::SchemaMismatch { .. })
    ));
    assert!(matches!(
        model.attention_profile(&other, 10),
        Err(GrimpError::SchemaMismatch { .. })
    ));
}

#[test]
fn attention_profile_reveals_the_informative_column() {
    // b is a deterministic function of a (and vice versa): each task's
    // attention must be a valid distribution, and mass on the target's own
    // (masked) slot must be ~0 — on the training table and on an unseen one
    // alike.
    let train = dirty(80, 0, 0.05, 7);
    let model = fit(config(), &train);
    for table in [&train, &functional_table(40, 3)] {
        let profiles = model.attention_profile(table, 50).unwrap();
        assert_eq!(profiles.len(), 3);
        for (j, profile) in profiles.iter().enumerate() {
            let p = profile.as_ref().expect("attention tasks");
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "task {j} attention sums to {sum}");
            assert!(
                p[j] < 0.05,
                "task {j} attends to its own masked slot: {}",
                p[j]
            );
        }
    }
    // imputing still works after profiling
    let imputed = model.impute(&train).unwrap();
    check_imputation_contract(&train, &imputed).unwrap();
}

#[test]
fn transductive_features_cannot_profile_unseen_tables() {
    let train = dirty(30, 0, 0.1, 6);
    let model = fit(
        GrimpConfig {
            max_epochs: 3,
            features: FeatureSource::Random,
            ..config()
        },
        &train,
    );
    assert!(model.attention_profile(&train, 10).is_ok());
    assert!(matches!(
        model.attention_profile(&functional_table(20, 1), 10),
        Err(GrimpError::InductiveUnsupported)
    ));
}

/// Every cell of `t`, numericals by their bit pattern.
fn cell_bits(t: &Table) -> Vec<String> {
    let mut cells = Vec::new();
    for i in 0..t.n_rows() {
        for j in 0..t.n_columns() {
            cells.push(match t.get(i, j) {
                Value::Num(x) => format!("num {:#x}", x.to_bits()),
                _ => format!("{:?}", t.display(i, j)),
            });
        }
    }
    cells
}

#[test]
fn fitted_model_is_send_and_sync() {
    fn shareable<T: Send + Sync>() {}
    shareable::<FittedModel>();
}

#[test]
fn neighbor_capped_training_imputes_ignore_unseen_imputes_in_between() {
    // The cap is drawn once at fit time; imputing an unseen table binds a
    // copy of the GNN to that table's graph and leaves the fitted one be.
    let cfg = GrimpConfig {
        gnn: grimp_gnn::GnnConfig {
            neighbor_cap: Some(2),
            ..config().gnn
        },
        ..config()
    };
    let train = dirty(80, 0, 0.2, 2);
    let model = fit(cfg, &train);
    let before = model.impute(&train).unwrap();
    model.impute(&dirty(40, 1, 0.2, 3)).unwrap();
    let after = model.impute(&train).unwrap();
    assert_eq!(cell_bits(&before), cell_bits(&after));
}

#[test]
fn four_threads_share_one_model_bit_for_bit() {
    let train = dirty(60, 0, 0.1, 8);
    let model = Arc::new(fit(config(), &train));
    let unseen: Vec<Table> = (0..4)
        .map(|t| dirty(24 + 4 * t, t + 1, 0.15, 20 + t as u64))
        .collect();
    type Outputs = (Vec<String>, Vec<String>, Vec<Option<Vec<u32>>>);
    let run = |model: &FittedModel, unseen: &Table| -> Outputs {
        let profile = model.attention_profile(unseen, 20).unwrap();
        (
            cell_bits(&model.impute(&train).unwrap()),
            cell_bits(&model.impute(unseen).unwrap()),
            profile
                .into_iter()
                .map(|p| p.map(|p| p.iter().map(|v| v.to_bits()).collect()))
                .collect(),
        )
    };
    let sequential: Vec<Outputs> = unseen.iter().map(|u| run(&model, u)).collect();
    let barrier = Barrier::new(unseen.len());
    let concurrent: Vec<Outputs> = std::thread::scope(|scope| {
        let handles: Vec<_> = unseen
            .iter()
            .map(|u| {
                let (model, barrier, run) = (Arc::clone(&model), &barrier, &run);
                scope.spawn(move || {
                    barrier.wait();
                    run(&model, u)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, (got, want)) in concurrent.iter().zip(&sequential).enumerate() {
        assert!(got == want, "thread {t} diverged from the sequential run");
    }
}

/// An unseen table without a single observed value has no cell nodes, so
/// its graph is RID nodes only. Every vector slot is masked and must still
/// find an embedding row to point at, whatever the row count mod 4.
#[test]
fn unseen_tables_without_a_single_value_still_impute() {
    let model = fit(
        GrimpConfig {
            max_epochs: 4,
            ..config()
        },
        &dirty(80, 0, 0.15, 3),
    );
    for rows in [1, 3, 4, 8] {
        let mut empty = functional_table(rows, 0);
        for i in 0..rows {
            for j in 0..empty.n_columns() {
                empty.set(i, j, Value::Null);
            }
        }
        let imputed = model.impute(&empty).expect("same schema");
        check_imputation_contract(&empty, &imputed).unwrap();
        assert_eq!(imputed.n_missing(), 0, "{rows} rows");
    }
}
