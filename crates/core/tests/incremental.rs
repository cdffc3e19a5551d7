//! Integration suite for crash-safe incremental imputation: the WAL-backed
//! append state machine (`Pipeline::append`), its recovery edge cases
//! (torn tails, foreign generations, double replay), and the kill-point
//! sweep proving an interrupted append converges bit-identically to the
//! uninterrupted run.

use std::path::{Path, PathBuf};

use grimp::{
    table_to_wal_rows, AppendPath, ErrorCategory, FinetuneConfig, GrimpConfig, GrimpError,
    Pipeline, ShutdownFlag, TrainReport, WalBase, WalRead, WalRow, WalSegment, CHECKPOINT_FILE,
    CHECKPOINT_PREV_FILE, WAL_APPLIED_FILE, WAL_FILE,
};
use grimp_obs::{names, MemorySink, RealFs};
use grimp_table::csv::to_csv_string;
use grimp_table::{ColumnKind, Schema, Table};

/// Base table: two correlated categoricals plus a numerical, with a few
/// missing cells sprinkled deterministically.
fn base_table(rows: usize) -> Table {
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
        let row: [Option<&str>; 3] = match i % 9 {
            7 => [None, Some(&v), Some(&x)],
            5 => [Some(&k), Some(&v), None],
            _ => [Some(&k), Some(&v), Some(&x)],
        };
        t.push_str_row(&row);
    }
    t
}

/// Rows to append, following the base pattern (no new dictionary values)
/// with one missing cell per row.
fn delta_rows() -> Vec<WalRow> {
    vec![
        vec![Some("k1".into()), None, Some("10".into())],
        vec![None, Some("v2".into()), Some("20".into())],
        vec![Some("k3".into()), Some("v3".into()), None],
    ]
}

fn incr_config(dir: &Path) -> GrimpConfig {
    GrimpConfig {
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        max_epochs: 5,
        patience: 50,
        lr: 2e-2,
        seed: 17,
        checkpoint_dir: Some(dir.to_path_buf()),
        finetune: FinetuneConfig {
            epochs: 3,
            drift_band: 0.25,
        },
        ..GrimpConfig::paper()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grimp-incr-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        if entry.file_type().expect("type").is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
        }
    }
}

/// Fit the base model so a checkpoint generation exists under `dir`.
fn fit_base(dir: &Path, base: &Table) {
    let pipeline = Pipeline::new(incr_config(dir)).expect("validated");
    let fitted = pipeline.fit(base).expect("base fit");
    assert!(
        !fitted.report().degraded_to_baseline,
        "base fit must keep its GNN"
    );
    assert!(
        dir.join(CHECKPOINT_FILE).exists(),
        "base checkpoint on disk"
    );
}

#[test]
fn append_finetunes_rotates_the_wal_and_reports_drift() {
    let dir = fresh_dir("happy");
    let base = base_table(45);
    fit_base(&dir, &base);

    let mut sink = MemorySink::new();
    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline
        .append_traced(&base, &delta_rows(), &mut sink)
        .expect("append");

    assert_eq!(out.path, AppendPath::Finetune);
    assert_eq!(out.appended_rows, 3);
    assert!(!out.replayed);
    assert_eq!(out.table.n_rows(), base.n_rows() + 3);
    assert_eq!(out.imputed.n_missing(), 0, "every cell filled");
    for i in 0..base.n_rows() {
        for j in 0..base.n_columns() {
            if !base.is_missing(i, j) {
                assert_eq!(
                    out.imputed.display(i, j),
                    base.display(i, j),
                    "observed base cell ({i},{j}) rewritten"
                );
            }
        }
    }
    assert!(!dir.join(WAL_FILE).exists(), "WAL rotated away");
    assert!(dir.join(WAL_APPLIED_FILE).exists(), "applied segment kept");
    assert!(
        out.report.epochs_run > 0 && out.report.epochs_run <= 3,
        "fine-tune ran at most finetune.epochs ({})",
        out.report.epochs_run
    );
    assert!(
        out.report.resumed_from_epoch.is_some(),
        "fine-tune resumes the base checkpoint"
    );

    // The drift check ran and its verdict is consistent with the band.
    let drift = out.report.drift.expect("drift check on fine-tune");
    assert_eq!(out.report.refit_scheduled, drift > 0.25);

    // The trace carries the append lifecycle and replays to the same report.
    let events = sink.events();
    for name in [
        names::WAL_WRITE,
        names::WAL_ROTATE,
        names::APPEND,
        names::FINETUNE,
    ] {
        assert!(
            events.iter().any(|e| e.name == name),
            "missing {name:?} event"
        );
    }
    let replayed = TrainReport::from_events(events);
    assert_eq!(replayed.drift, out.report.drift);
    assert_eq!(replayed.refit_scheduled, out.report.refit_scheduled);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_dictionary_values_take_the_refit_path() {
    let dir = fresh_dir("refit");
    let base = base_table(45);
    fit_base(&dir, &base);

    let rows: Vec<WalRow> = vec![vec![Some("k-brand-new".into()), None, Some("12.5".into())]];
    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &rows).expect("append");

    assert_eq!(out.path, AppendPath::Refit);
    assert_eq!(out.imputed.n_missing(), 0);
    assert_eq!(out.imputed.display(base.n_rows(), 0), "k-brand-new");
    assert!(dir.join(WAL_APPLIED_FILE).exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_without_a_checkpoint_dir_is_a_config_error() {
    let mut cfg = incr_config(Path::new("/tmp/unused"));
    cfg.checkpoint_dir = None;
    let pipeline = Pipeline::new(cfg).expect("validated");
    let err = pipeline
        .append(&base_table(20), &delta_rows())
        .expect_err("must reject");
    assert_eq!(err.category(), ErrorCategory::Config);
}

#[test]
fn append_with_no_prior_fit_refits_from_the_data() {
    let dir = fresh_dir("cold");
    let base = base_table(40);
    // No fit_base: the directory is empty, so the WAL is tagged with the
    // zero generation and the append must do the full first fit itself.
    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &delta_rows()).expect("append");

    assert_eq!(out.path, AppendPath::Refit);
    assert_eq!(out.imputed.n_missing(), 0);
    assert!(dir.join(CHECKPOINT_FILE).exists(), "refit checkpointed");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_append_with_nothing_pending_trains_nothing_but_still_imputes() {
    let dir = fresh_dir("empty");
    let base = base_table(40);
    fit_base(&dir, &base);

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &[]).expect("append");

    assert_eq!(out.appended_rows, 0);
    assert_eq!(out.table.n_rows(), base.n_rows());
    assert_eq!(
        out.report.epochs_run, 0,
        "an empty delta has no training samples"
    );
    assert_eq!(out.imputed.n_missing(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The generation identity of the checkpoint file on disk: its stored
/// payload CRC-32.
fn ckpt_identity(dir: &Path) -> u32 {
    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("ckpt");
    grimp::checkpoint::stored_crc(&bytes).expect("a footer")
}

/// Write a pending WAL tagged with the *current* on-disk generation, the
/// way an interrupted append would have left it.
fn plant_wal(dir: &Path, rows: &[WalRow], n_columns: usize) -> WalSegment {
    let ck = grimp::TrainCheckpoint::load(&dir.join(CHECKPOINT_FILE)).expect("decode");
    let mut segment = WalSegment::new(
        WalBase {
            ckpt_crc: ckpt_identity(dir),
            epoch: ck.epoch,
        },
        n_columns,
    );
    segment.rows = rows.to_vec();
    let mut fs = RealFs;
    segment
        .write(&mut fs, &dir.join(WAL_FILE))
        .expect("wal write");
    segment
}

#[test]
fn a_wal_records_the_identity_of_the_generation_it_appends_to() {
    let dir = fresh_dir("identity");
    let base = base_table(45);
    fit_base(&dir, &base);
    let base_identity = ckpt_identity(&dir);

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &delta_rows()).expect("append");
    assert_eq!(out.path, AppendPath::Finetune);
    let finetuned_identity = ckpt_identity(&dir);
    assert_ne!(
        base_identity, finetuned_identity,
        "checkpoints at different epochs are different generations"
    );

    let mut fs = RealFs;
    let WalRead::Segment { segment, .. } =
        WalSegment::read(&mut fs, &dir.join(WAL_APPLIED_FILE)).expect("read the applied log")
    else {
        panic!("the append left an applied log");
    };
    assert_eq!(segment.base.ckpt_crc, base_identity);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A served append installs the model its fine-tune returned instead of
/// restoring the checkpoint it wrote: the two must be the same model.
#[test]
fn the_finetuned_model_is_the_model_its_checkpoint_restores() {
    let dir = fresh_dir("handover");
    let base = base_table(45);
    fit_base(&dir, &base);

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &delta_rows()).expect("append");
    assert_eq!(out.path, AppendPath::Finetune);
    let ck = grimp::TrainCheckpoint::load(&dir.join(CHECKPOINT_FILE)).expect("final checkpoint");
    let restored = pipeline.restore(&out.table, &ck).expect("restore");

    assert_eq!(out.model.column_tiers(), restored.column_tiers());
    assert_eq!(out.model.training_table(), restored.training_table());
    let unseen = base_table(20);
    let bits = |profile: Vec<Option<Vec<f32>>>| -> Vec<Option<Vec<u32>>> {
        profile
            .into_iter()
            .map(|p| p.map(|v| v.into_iter().map(f32::to_bits).collect()))
            .collect()
    };
    for (label, table) in [("grown", &out.table), ("unseen", &unseen)] {
        let (a, b) = (
            out.model.impute(table).expect("impute"),
            restored.impute(table).expect("impute"),
        );
        assert_eq!(
            to_csv_string(&a),
            to_csv_string(&b),
            "{label}: imputes differ"
        );
        let a = bits(out.model.attention_profile(table, 64).expect("profile"));
        let b = bits(restored.attention_profile(table, 64).expect("profile"));
        assert!(a.iter().any(Option::is_some), "{label}: attention tasks");
        assert_eq!(a, b, "{label}: attention profiles differ");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_pending_wal_is_recovered_from_the_full_request() {
    let dir = fresh_dir("torn-full");
    let base = base_table(40);
    fit_base(&dir, &base);

    // Tear the last record off the planted segment, as a crash mid-write
    // through a non-atomic disk would.
    let segment = plant_wal(&dir, &delta_rows(), base.n_columns());
    let whole = segment.to_bytes();
    std::fs::write(dir.join(WAL_FILE), &whole[..whole.len() - 5]).expect("tear");

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &delta_rows()).expect("append");

    assert!(out.replayed);
    assert!(out.torn_tail);
    assert_eq!(out.appended_rows, 3, "full request restores the torn rows");
    assert_eq!(out.path, AppendPath::Finetune);
    assert_eq!(out.imputed.n_missing(), 0);
    assert!(!dir.join(WAL_FILE).exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_pending_wal_replayed_bare_keeps_the_intact_prefix() {
    let dir = fresh_dir("torn-bare");
    let base = base_table(40);
    fit_base(&dir, &base);

    let segment = plant_wal(&dir, &delta_rows(), base.n_columns());
    let whole = segment.to_bytes();
    std::fs::write(dir.join(WAL_FILE), &whole[..whole.len() - 5]).expect("tear");

    // Recovery without the original rows (e.g. `grimp append` re-run with
    // no request) applies what survived and flags the tear.
    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &[]).expect("append");

    assert!(out.replayed && out.torn_tail);
    assert_eq!(out.appended_rows, 2, "last row was torn away");
    assert_eq!(out.imputed.n_missing(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn conflicting_pending_wal_is_a_typed_data_error() {
    let dir = fresh_dir("conflict");
    let base = base_table(40);
    fit_base(&dir, &base);
    plant_wal(&dir, &delta_rows(), base.n_columns());

    let other: Vec<WalRow> = vec![vec![Some("k0".into()), Some("v0".into()), None]];
    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let err = pipeline.append(&base, &other).expect_err("must conflict");

    assert_eq!(err.category(), ErrorCategory::Data);
    assert!(matches!(err, GrimpError::PendingAppend { .. }), "{err}");
    assert!(
        dir.join(WAL_FILE).exists(),
        "the pending segment must survive a rejected conflicting append"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_pending_wal_is_a_typed_data_error() {
    let dir = fresh_dir("unusable");
    let base = base_table(40);
    fit_base(&dir, &base);
    std::fs::write(dir.join(WAL_FILE), b"GARBAGE").expect("plant garbage");

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let err = pipeline.append(&base, &delta_rows()).expect_err("reject");
    assert_eq!(err.category(), ErrorCategory::Data);
    assert!(matches!(err, GrimpError::PendingAppend { .. }), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_referencing_a_vanished_checkpoint_refits() {
    let dir = fresh_dir("vanished");
    let base = base_table(40);
    fit_base(&dir, &base);
    plant_wal(&dir, &delta_rows(), base.n_columns());
    std::fs::remove_file(dir.join(CHECKPOINT_FILE)).expect("rm ckpt");
    let _ = std::fs::remove_file(dir.join(CHECKPOINT_PREV_FILE));

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &[]).expect("append");

    assert!(out.replayed);
    assert_eq!(
        out.path,
        AppendPath::Refit,
        "no generation on disk matches the WAL's lineage"
    );
    assert_eq!(out.imputed.n_missing(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_from_a_foreign_generation_refits() {
    let dir = fresh_dir("foreign");
    let base = base_table(40);
    fit_base(&dir, &base);

    // A WAL claiming a future epoch: the checkpoint on disk predates it,
    // so the fine-tune lineage is broken and the append must refit.
    let mut segment = WalSegment::new(
        WalBase {
            ckpt_crc: 0x1234_5678,
            epoch: 999,
        },
        base.n_columns(),
    );
    segment.rows = delta_rows();
    let mut fs = RealFs;
    segment
        .write(&mut fs, &dir.join(WAL_FILE))
        .expect("wal write");

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let out = pipeline.append(&base, &[]).expect("append");
    assert_eq!(out.path, AppendPath::Refit);
    assert_eq!(out.imputed.n_missing(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_replay_is_a_noop_and_bit_identical() {
    let dir = fresh_dir("double");
    let base = base_table(45);
    fit_base(&dir, &base);

    let pipeline = Pipeline::new(incr_config(&dir)).expect("validated");
    let first = pipeline.append(&base, &delta_rows()).expect("append");
    assert_eq!(first.path, AppendPath::Finetune);
    let ckpt_after_first = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("ckpt");

    // Crash-before-rotation: put the applied segment back as pending and
    // replay it. The fine-tune target is already reached, so nothing
    // trains and the imputation is byte-for-byte the same.
    std::fs::rename(dir.join(WAL_APPLIED_FILE), dir.join(WAL_FILE)).expect("un-rotate");
    let second = pipeline.append(&base, &delta_rows()).expect("replay");

    assert_eq!(second.path, AppendPath::NoOp);
    assert!(second.replayed);
    assert_eq!(second.report.epochs_run, 0);
    assert_eq!(second.imputed, first.imputed, "replay diverged");
    let ckpt_after_second = std::fs::read(dir.join(CHECKPOINT_FILE)).expect("ckpt");
    assert_eq!(
        ckpt_after_first, ckpt_after_second,
        "replay must not move the checkpoint generation"
    );
    assert!(!dir.join(WAL_FILE).exists(), "replay rotates the WAL again");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_point_sweep_recovers_bit_identical_to_the_uninterrupted_run() {
    let base = base_table(45);
    let rows = delta_rows();

    // The base fit, done once; every sweep arm starts from a copy.
    let seed_dir = fresh_dir("sweep-seed");
    fit_base(&seed_dir, &base);

    // Reference: one uninterrupted append.
    let ref_dir = fresh_dir("sweep-ref");
    copy_dir(&seed_dir, &ref_dir);
    let reference = Pipeline::new(incr_config(&ref_dir))
        .expect("validated")
        .append(&base, &rows)
        .expect("reference append");
    assert_eq!(reference.path, AppendPath::Finetune);
    assert_eq!(reference.imputed.n_missing(), 0);
    let ref_ckpt = std::fs::read(ref_dir.join(CHECKPOINT_FILE)).expect("ckpt");

    // Kill point 0: shutdown lands before the first fine-tune epoch. The
    // run still imputes (never an unfilled cell) but leaves the WAL
    // pending, and the recovery append resumes it to the reference state.
    let d0 = fresh_dir("sweep-k0");
    copy_dir(&seed_dir, &d0);
    let mut interrupted_cfg = incr_config(&d0);
    let flag = ShutdownFlag::new();
    flag.request();
    interrupted_cfg.shutdown = Some(flag);
    let interrupted = Pipeline::new(interrupted_cfg)
        .expect("validated")
        .append(&base, &rows)
        .expect("interrupted append");
    assert!(interrupted.report.interrupted);
    assert_eq!(interrupted.imputed.n_missing(), 0);
    assert!(
        d0.join(WAL_FILE).exists() && !d0.join(WAL_APPLIED_FILE).exists(),
        "an interrupted append must leave its WAL pending"
    );
    let recovered = Pipeline::new(incr_config(&d0))
        .expect("validated")
        .append(&base, &rows)
        .expect("recovery append");
    assert!(recovered.replayed);
    assert_eq!(recovered.imputed, reference.imputed, "kill point 0");
    assert_eq!(
        std::fs::read(d0.join(CHECKPOINT_FILE)).expect("ckpt"),
        ref_ckpt,
        "kill point 0 checkpoint"
    );

    // Kill points 1..epochs-1: simulate a kill -9 after fine-tune epoch k
    // (every epoch checkpoints, so each is durable; a kill mid-epoch loses
    // only the in-flight epoch, which resume replays identically) by
    // running the append with a k-epoch budget and putting its WAL back.
    for k in 1..3usize {
        let dk = fresh_dir(&format!("sweep-k{k}"));
        copy_dir(&seed_dir, &dk);
        let mut partial_cfg = incr_config(&dk);
        partial_cfg.finetune.epochs = k;
        let partial = Pipeline::new(partial_cfg)
            .expect("validated")
            .append(&base, &rows)
            .expect("partial append");
        assert_eq!(partial.path, AppendPath::Finetune, "kill point {k}");
        std::fs::rename(dk.join(WAL_APPLIED_FILE), dk.join(WAL_FILE)).expect("un-rotate");

        let resumed = Pipeline::new(incr_config(&dk))
            .expect("validated")
            .append(&base, &rows)
            .expect("resumed append");
        assert!(resumed.replayed, "kill point {k}");
        assert_eq!(resumed.imputed, reference.imputed, "kill point {k}");
        assert_eq!(
            std::fs::read(dk.join(CHECKPOINT_FILE)).expect("ckpt"),
            ref_ckpt,
            "kill point {k} checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dk);
    }

    for d in [&seed_dir, &ref_dir, &d0] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn unseen_categories_at_impute_take_the_ladder_not_an_error() {
    // Regression: with a non-inductive feature source, imputing a table
    // that isn't the training table used to fail with
    // `InductiveUnsupported`. It now steps down the degradation ladder.
    let dir = fresh_dir("unseen");
    let base = base_table(40);
    let mut cfg = incr_config(&dir);
    cfg.features = grimp_graph::FeatureSource::Random;
    let pipeline = Pipeline::new(cfg).expect("validated");
    let fitted = pipeline.fit(&base).expect("fit");

    let mut unseen = base.clone();
    unseen.push_str_row(&[Some("k-never-seen"), None, Some("7.5")]);
    unseen.push_str_row(&[None, Some("v-never-seen"), None]);
    let imputed = fitted
        .impute(&unseen)
        .expect("unseen table imputes via the ladder");
    assert_eq!(imputed.n_missing(), 0);
    assert_eq!(imputed.n_rows(), base.n_rows() + 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_to_wal_rows_round_trips_missing_and_numerics() {
    let t = base_table(18);
    let rows = table_to_wal_rows(&t);
    assert_eq!(rows.len(), t.n_rows());
    let mut rebuilt = Table::empty(t.schema().clone());
    for row in &rows {
        let r: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
        rebuilt.try_push_str_row(&r).expect("round trip");
    }
    assert_eq!(rebuilt, t);
}
