//! Deterministic chaos harness: every adversarial input in
//! `grimp_table::adversarial` must uphold the never-panic/always-impute
//! contract — fit succeeds, every missing cell is filled (possibly from a
//! degraded ladder tier), and the emitted trace replays into the same
//! per-column tier assignment the live report carries. Malformed CSV is
//! rejected with a typed error, and a bit-flipped checkpoint falls back to
//! the previous good generation on resume.

use grimp::{ColumnTier, GrimpConfig, Pipeline, TrainReport};
use grimp_obs::MemorySink;
use grimp_table::adversarial::{self, Scenario};
use grimp_table::csv::read_csv_str;
use grimp_table::ColumnKind;

fn chaos_config() -> GrimpConfig {
    GrimpConfig::builder()
        .feature_dim(8)
        .gnn(grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 8,
            ..Default::default()
        })
        .merge_hidden(16)
        .embed_dim(8)
        .max_epochs(6)
        .patience(6)
        .learning_rate(2e-2)
        .max_train_samples_per_task(Some(400))
        .seed(3)
        .build()
        .expect("valid config")
}

/// Run one scenario end-to-end with a full trace and return the live report
/// plus the imputed-table missing count.
fn run_scenario(s: &Scenario) -> (TrainReport, usize) {
    let mut sink = MemorySink::new();
    let pipeline = Pipeline::new(chaos_config()).expect("validated");
    let fitted = pipeline
        .fit_traced(&s.table, &mut sink)
        .unwrap_or_else(|e| panic!("{}: fit must not fail: {e}", s.name));
    let imputed = fitted
        .impute_traced(&s.table, &mut sink)
        .unwrap_or_else(|e| panic!("{}: impute must not fail: {e}", s.name));
    let live = fitted.report().clone();

    // Contract: trace and report tell the same story.
    let replayed = TrainReport::from_events(sink.events());
    assert_eq!(
        replayed.column_tiers, live.column_tiers,
        "{}: replayed tiers diverge from the live report",
        s.name
    );
    assert_eq!(replayed.epochs_run, live.epochs_run, "{}", s.name);
    assert_eq!(replayed.anomalies.len(), live.anomalies.len(), "{}", s.name);

    // Contract: shape preserved, observed cells untouched.
    assert_eq!(imputed.n_rows(), s.table.n_rows(), "{}", s.name);
    assert_eq!(imputed.schema(), s.table.schema(), "{}", s.name);
    for i in 0..s.table.n_rows() {
        for j in 0..s.table.n_columns() {
            if !s.table.is_missing(i, j) {
                assert_eq!(
                    imputed.display(i, j),
                    s.table.display(i, j),
                    "{}: observed cell ({i},{j}) was rewritten",
                    s.name
                );
            }
        }
    }
    (live, imputed.n_missing())
}

#[test]
fn every_adversarial_scenario_upholds_the_contract() {
    for s in adversarial::scenarios() {
        let (report, missing_after) = run_scenario(&s);
        assert_eq!(
            missing_after, 0,
            "{}: {missing_after} cells left missing",
            s.name
        );
        assert_eq!(
            report.column_tiers.len(),
            s.table.n_columns(),
            "{}: one tier per column",
            s.name
        );
    }
}

#[test]
fn degenerate_columns_take_the_advertised_ladder_tier() {
    // A column with zero observed values can only be filled by the constant
    // tier; a cardinality-1 column steps down to the mode/mean baseline.
    let s = adversarial::scenarios();
    let by_name = |name: &str| s.iter().find(|s| s.name == name).expect("scenario");

    let ghost_cat = by_name("all_missing_categorical");
    let (report, _) = run_scenario(ghost_cat);
    assert_eq!(report.column_tiers[1], ColumnTier::Constant);

    let ghost_num = by_name("all_missing_numerical");
    let (report, _) = run_scenario(ghost_num);
    assert_eq!(report.column_tiers[1], ColumnTier::Constant);

    let single = by_name("single_distinct_column");
    let (report, _) = run_scenario(single);
    assert_eq!(report.column_tiers[0], ColumnTier::Baseline);
}

#[test]
fn constant_tier_fills_are_the_documented_sentinels() {
    let pipeline = Pipeline::new(chaos_config()).expect("validated");

    let t = adversarial::all_missing_categorical();
    let fitted = pipeline.fit(&t).expect("fit");
    let imputed = fitted.impute(&t).expect("impute");
    for i in 0..t.n_rows() {
        if t.is_missing(i, 1) {
            assert_eq!(imputed.display(i, 1), "(unknown)");
        }
    }

    let t = adversarial::all_missing_numerical();
    let fitted = pipeline.fit(&t).expect("fit");
    let imputed = fitted.impute(&t).expect("impute");
    for i in 0..t.n_rows() {
        if t.is_missing(i, 1) {
            let v = imputed.get(i, 1).as_num().expect("numeric fill");
            assert_eq!(v, 0.0, "constant numeric fill is 0.0");
        }
    }
}

#[test]
fn healthy_columns_keep_their_gnn_heads_next_to_degenerate_ones() {
    // The ladder is per-column: a pathological neighbour must not drag a
    // healthy column off its trained head.
    for s in adversarial::scenarios() {
        let (report, _) = run_scenario(&s);
        for (j, tier) in report.column_tiers.iter().enumerate() {
            let col = s.table.column(j);
            let observed = s.table.n_rows() - col.n_missing();
            let healthy = match s.table.schema().column(j).kind {
                ColumnKind::Categorical => col.n_distinct() >= 2,
                ColumnKind::Numerical => observed >= 2,
            };
            if healthy && report.epochs_run > 0 && !report.degraded_to_baseline {
                assert_eq!(
                    *tier,
                    ColumnTier::Gnn,
                    "{}: healthy column {j} lost its GNN head",
                    s.name
                );
            }
        }
    }
}

#[test]
fn malformed_csv_inputs_are_rejected_with_typed_errors() {
    for (name, text) in adversarial::malformed_csvs() {
        match read_csv_str(text) {
            Err(_) => {}
            Ok(t) => panic!(
                "{name}: malformed CSV parsed into a {}x{} table",
                t.n_rows(),
                t.n_columns()
            ),
        }
    }
}

#[test]
fn bit_flipped_checkpoint_falls_back_to_the_previous_generation() {
    use grimp::{Grimp, CHECKPOINT_FILE, CHECKPOINT_PREV_FILE};
    use grimp_table::inject_mcar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let dir = std::env::temp_dir().join(format!("grimp-chaos-bitflip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut dirty = adversarial::high_cardinality(60);
    inject_mcar(&mut dirty, 0.1, &mut StdRng::seed_from_u64(9));

    let mut cfg = chaos_config();
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1;
    let mut model = Grimp::new(cfg.clone());
    let _ = model.fit_impute(&dirty);

    let current = dir.join(CHECKPOINT_FILE);
    let prev = dir.join(CHECKPOINT_PREV_FILE);
    assert!(current.exists() && prev.exists(), "two generations on disk");

    // Flip one bit in the middle of the newest checkpoint. The CRC-32
    // footer must reject it and resume must fall back to the previous
    // generation instead of restarting from scratch.
    let mut bytes = std::fs::read(&current).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&current, &bytes).unwrap();

    cfg.resume = true;
    let mut resumed = Grimp::new(cfg);
    let imputed = resumed.fit_impute(&dirty);
    let report = resumed.last_report().expect("report");

    assert!(
        report.resumed_from_epoch.is_some(),
        "resume must recover from the previous generation, not restart"
    );
    assert_eq!(
        report.io_errors.len(),
        1,
        "io errors: {:?}",
        report.io_errors
    );
    assert!(
        report.io_errors[0].contains("CRC-32"),
        "the rejection names the CRC check: {}",
        report.io_errors[0]
    );
    assert_eq!(imputed.n_missing(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
