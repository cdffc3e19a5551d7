//! End-to-end integration tests: the full pipeline (generate → corrupt →
//! impute → evaluate) across crates, for every imputer in the workspace.

use grimp::{GnnMc, GrimpConfig, Pipeline, TaskKind};
use grimp_baselines::{
    AimNetConfig, AimNetLike, DataWigConfig, DataWigLike, EmbdiMc, EmbdiMcConfig, KnnImputer,
    MeanMode, Mice, MiceConfig, MissForest, MissForestConfig, TurlConfig, TurlSub,
};
use grimp_datasets::{generate, DatasetId};
use grimp_graph::FeatureSource;
use grimp_metrics::evaluate;
use grimp_table::{check_imputation_contract, inject_mcar, Imputer, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn head(table: &Table, n: usize) -> Table {
    let mut out = Table::empty(Schema::clone(table.schema()));
    for i in 0..n.min(table.n_rows()) {
        let row: Vec<Value> = (0..table.n_columns())
            .map(|j| match table.get(i, j) {
                Value::Cat(_) => Value::Cat(out.intern(j, &table.display(i, j))),
                v => v,
            })
            .collect();
        out.push_value_row(&row);
    }
    out
}

fn small_config(seed: u64) -> GrimpConfig {
    GrimpConfig {
        feature_dim: 16,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 16,
            ..Default::default()
        },
        merge_hidden: 32,
        embed_dim: 16,
        max_epochs: 40,
        patience: 8,
        lr: 2e-2,
        seed,
        ..GrimpConfig::fast()
    }
}

/// GRIMP over `config`: a `Pipeline` imputes as an `Imputer` by fitting
/// the table it is given.
fn pipeline(config: GrimpConfig) -> Pipeline {
    Pipeline::new(config).expect("valid config")
}

/// Every imputer satisfies the contract and beats random guessing on a
/// clustered mixed dataset.
#[test]
fn all_imputers_run_the_full_pipeline() {
    let clean = head(&generate(DatasetId::Mammogram, 0).table, 250);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(1));

    let roster: Vec<Box<dyn Imputer>> = vec![
        Box::new(pipeline(small_config(0))),
        Box::new(pipeline(GrimpConfig {
            features: FeatureSource::Embdi,
            ..small_config(0)
        })),
        Box::new(pipeline(GrimpConfig {
            task_kind: TaskKind::Linear,
            ..small_config(0)
        })),
        Box::new(GnnMc::new(small_config(0))),
        Box::new(MissForest::new(MissForestConfig::default())),
        Box::new(AimNetLike::new(AimNetConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(TurlSub::new(TurlConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(EmbdiMc::new(EmbdiMcConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(DataWigLike::new(DataWigConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(Mice::new(MiceConfig {
            epochs: 40,
            ..Default::default()
        })),
        Box::new(KnnImputer::new(5)),
        Box::new(MeanMode),
    ];
    for mut algo in roster {
        let imputed = algo.impute(&dirty);
        check_imputation_contract(&dirty, &imputed)
            .unwrap_or_else(|e| panic!("{} violated the contract: {e}", algo.name()));
        let eval = evaluate(&clean, &imputed, &log);
        let acc = eval.accuracy().expect("categorical cells exist");
        // Mammogram columns have ≤5 values: random ≈ 0.2–0.5; every method
        // should clear 0.30 on this clustered table.
        assert!(acc > 0.30, "{} accuracy too low: {acc}", algo.name());
        let rmse = eval.rmse().expect("numerical cells exist");
        assert!(
            rmse.is_finite() && rmse < 3.0,
            "{} rmse out of range: {rmse}",
            algo.name()
        );
    }
}

/// GRIMP beats the mode/mean floor on structured data — the minimal bar for
/// "the model learned something".
#[test]
fn grimp_beats_the_mode_floor() {
    let clean = head(&generate(DatasetId::Contraceptive, 0).table, 300);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.20, &mut StdRng::seed_from_u64(2));

    let mut grimp = pipeline(small_config(1));
    let grimp_acc = evaluate(&clean, &grimp.impute(&dirty), &log)
        .accuracy()
        .unwrap();
    let mode_acc = evaluate(&clean, &MeanMode.impute(&dirty), &log)
        .accuracy()
        .unwrap();
    assert!(
        grimp_acc >= mode_acc,
        "GRIMP ({grimp_acc:.3}) must not lose to mode fill ({mode_acc:.3})"
    );
}

/// High missingness (50 %) still trains and imputes — the paper's hardest
/// setting.
#[test]
fn pipeline_survives_fifty_percent_missingness() {
    let clean = head(&generate(DatasetId::Flare, 0).table, 250);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.50, &mut StdRng::seed_from_u64(3));
    assert!((dirty.missing_fraction() - 0.5).abs() < 0.01);

    let mut grimp = pipeline(small_config(2));
    let imputed = grimp.impute(&dirty);
    check_imputation_contract(&dirty, &imputed).unwrap();
    let eval = evaluate(&clean, &imputed, &log);
    assert!(
        eval.accuracy().unwrap() > 0.2,
        "degenerate output at 50% missingness"
    );
}

/// Multiple missing values in the same row (the Fig. 5 scenario) are
/// handled: the same input vector yields different per-task imputations.
#[test]
fn multiple_missing_values_in_one_row() {
    let clean = head(&generate(DatasetId::TicTacToe, 0).table, 200);
    let mut dirty = clean.clone();
    // blank entire rows' worth of cells
    for j in 0..4 {
        for i in 0..30 {
            dirty.set(i, j, Value::Null);
        }
    }
    let mut grimp = pipeline(small_config(3));
    let imputed = grimp.impute(&dirty);
    assert_eq!(imputed.n_missing(), 0);
    // the per-column domains must be respected even for fully-masked slots
    for i in 0..30 {
        for j in 0..4 {
            let v = imputed.display(i, j);
            assert!(["x", "o", "b"].contains(&v.as_str()), "illegal value {v}");
        }
    }
}

/// Imputation is deterministic for a fixed seed (GRIMP and MissForest).
#[test]
fn imputation_is_deterministic_per_seed() {
    let clean = head(&generate(DatasetId::Mammogram, 0).table, 150);
    let mut dirty = clean.clone();
    inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(4));

    let a = pipeline(small_config(9)).impute(&dirty);
    let b = pipeline(small_config(9)).impute(&dirty);
    assert_eq!(a, b, "GRIMP must be deterministic per seed");

    let a = MissForest::new(MissForestConfig {
        seed: 9,
        ..Default::default()
    })
    .impute(&dirty);
    let b = MissForest::new(MissForestConfig {
        seed: 9,
        ..Default::default()
    })
    .impute(&dirty);
    assert_eq!(a, b, "MissForest must be deterministic per seed");
}
