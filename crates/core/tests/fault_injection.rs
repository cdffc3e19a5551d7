//! End-to-end fault-injection suite, compiled only with
//! `--features fault-injection`. Exercises the external surface of the
//! harness — `GrimpConfig::fault_injection`, `FaultPlan`, `FaultKind`,
//! `TrainAnomaly` — the way an outside robustness test would, proving the
//! feature gate actually exports everything needed.
#![cfg(feature = "fault-injection")]

use grimp::{
    ColumnTier, FaultKind, FaultPlan, GrimpConfig, Pipeline, TaskKind, TrainAnomaly, TrainReport,
};
use grimp_graph::FeatureSource;
use grimp_table::{inject_mcar, ColumnKind, Schema, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

fn tiny_config() -> GrimpConfig {
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
        max_epochs: 20,
        patience: 20,
        lr: 2e-2,
        seed: 11,
        ..GrimpConfig::paper()
    }
}

#[test]
fn feature_gated_gradient_fault_is_detected_and_recovered() {
    let mut dirty = training_table(40);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(5));

    let mut cfg = tiny_config();
    cfg.fault_injection = Some(FaultPlan {
        at_epoch: 4,
        times: 1,
        kind: FaultKind::GradNan,
    });
    let (imputed, report) = fit_impute(cfg, &dirty);

    assert_eq!(report.recoveries, 1);
    assert!(matches!(
        report.anomalies.as_slice(),
        [TrainAnomaly::NonFiniteGradient { epoch: 4, .. }]
    ));
    assert!(!report.degraded_to_baseline);
    assert_eq!(imputed.n_missing(), 0);
}

#[test]
fn feature_gated_exhaustion_degrades_but_still_imputes() {
    let mut dirty = training_table(40);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(6));

    let mut cfg = tiny_config();
    cfg.max_recoveries = 1;
    cfg.fault_injection = Some(FaultPlan {
        at_epoch: 2,
        times: usize::MAX,
        kind: FaultKind::ParamNan,
    });
    let (imputed, report) = fit_impute(cfg, &dirty);

    assert!(report.degraded_to_baseline);
    assert_eq!(report.recoveries, 2);
    assert_eq!(imputed.n_missing(), 0, "degraded run must fill every cell");
}

#[test]
fn task_loss_fault_demotes_only_the_poisoned_column() {
    let mut dirty = training_table(40);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(7));

    let mut cfg = tiny_config();
    cfg.fault_injection = Some(FaultPlan {
        at_epoch: 3,
        times: 1,
        kind: FaultKind::TaskLossNan(1),
    });
    let (imputed, report) = fit_impute(cfg, &dirty);

    // Exactly column 1 steps down the ladder; its neighbours keep their
    // trained heads and the run neither rolls back nor degrades globally.
    assert_eq!(
        report.column_tiers,
        vec![ColumnTier::Gnn, ColumnTier::Baseline, ColumnTier::Gnn]
    );
    assert!(matches!(
        report.anomalies.as_slice(),
        [TrainAnomaly::NonFiniteTaskLoss {
            epoch: 3,
            column: 1
        }]
    ));
    assert!(!report.degraded_to_baseline);
    assert_eq!(
        report.recoveries, 0,
        "per-column demotion is not a rollback"
    );
    assert!(
        report.epochs_run > 4,
        "training continues after the demotion (ran {})",
        report.epochs_run
    );
    assert_eq!(imputed.n_missing(), 0);
}

#[test]
fn checkpoint_write_fault_is_reported_and_training_completes() {
    let mut dirty = training_table(40);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(8));

    let dir = std::env::temp_dir().join(format!("grimp-ckpt-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = tiny_config();
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.fault_injection = Some(FaultPlan {
        at_epoch: 2,
        times: 1,
        kind: FaultKind::CheckpointWrite,
    });
    let (imputed, report) = fit_impute(cfg, &dirty);

    assert_eq!(
        report.io_errors.len(),
        1,
        "io errors: {:?}",
        report.io_errors
    );
    assert!(
        report.io_errors[0].contains("checkpoint write failed"),
        "{}",
        report.io_errors[0]
    );
    assert!(
        report.anomalies.is_empty(),
        "an IO fault is not a divergence"
    );
    assert!(!report.degraded_to_baseline);
    assert_eq!(imputed.n_missing(), 0);
    assert!(
        dir.join(grimp::CHECKPOINT_FILE).exists(),
        "later saves still land on disk"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
