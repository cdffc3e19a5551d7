//! Resource-governance integration suite: deadlines, memory budgets,
//! cooperative shutdown, the checkpoint-directory lock, and the
//! fault-injectable IO layer — all through the public API, the way an
//! operator-facing harness would drive them.
//!
//! The invariant under test everywhere: governance may stop or shrink
//! *training*, but the imputation contract (every missing cell filled,
//! observed cells untouched, no panic) holds unconditionally.

use grimp::{
    ColumnTier, DownscaleRung, ErrorCategory, GrimpConfig, GrimpError, Pipeline, ShutdownFlag,
    TaskKind, TrainReport, CHECKPOINT_FILE, CHECKPOINT_PREV_FILE, LOCK_FILE,
};
use grimp_graph::FeatureSource;
use grimp_obs::{IoFaultKind, IoFaultPlan};
use grimp_table::csv::to_csv_string;
use grimp_table::{check_imputation_contract, inject_mcar, ColumnKind, Schema, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn functional_table(rows: usize) -> Table {
    let schema = Schema::from_pairs(&[
        ("k", ColumnKind::Categorical),
        ("v", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..rows {
        let k = format!("k{}", i % 5);
        let v = format!("v{}", i % 5);
        let x = format!("{}", (i % 5) as f64 * 10.0);
        t.push_str_row(&[Some(&k), Some(&v), Some(&x)]);
    }
    t
}

fn tiny_config() -> GrimpConfig {
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
        max_epochs: 6,
        patience: 6,
        seed: 13,
        ..GrimpConfig::fast()
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

fn dirty_table(rows: usize, seed: u64) -> Table {
    let mut t = functional_table(rows);
    inject_mcar(&mut t, 0.15, &mut StdRng::seed_from_u64(seed));
    t
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("grimp-res-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn expired_deadline_stops_before_training_and_still_fills_every_cell() {
    let dirty = dirty_table(40, 2);
    let mut cfg = tiny_config();
    cfg.deadline_secs = Some(1e-12); // already expired at the first boundary
    let (imputed, report) = fit_impute(cfg, &dirty);
    assert!(report.deadline_hit, "deadline must register");
    assert_eq!(report.stopped_at_epoch, Some(0));
    assert_eq!(report.epochs_run, 0, "no epoch fits inside 1e-12 s");
    // Untrained heads are noise: every would-be GNN column steps down.
    assert!(
        report.column_tiers.iter().all(|t| *t != ColumnTier::Gnn),
        "{:?}",
        report.column_tiers
    );
    check_imputation_contract(&dirty, &imputed).expect("contract");
    assert_eq!(imputed.n_missing(), 0);
}

#[test]
fn generous_deadline_changes_nothing() {
    let dirty = dirty_table(40, 2);
    let reference = fit_impute(tiny_config(), &dirty).0;
    let mut cfg = tiny_config();
    cfg.deadline_secs = Some(3600.0);
    let (governed, report) = fit_impute(cfg, &dirty);
    assert!(!report.deadline_hit);
    assert_eq!(
        to_csv_string(&reference),
        to_csv_string(&governed),
        "an unhit deadline must not perturb training"
    );
}

/// The deadline path composes with checkpoint/resume bit-exactly: for every
/// epoch k, a run killed at k, resumed under an already-expired deadline
/// (which must impute successfully from the checkpointed state), and then
/// resumed again without a deadline finishes bit-identical to a run that
/// was never interrupted.
#[test]
fn deadline_interrupt_at_every_epoch_resumes_bit_identically() {
    let dirty = dirty_table(40, 3);
    let base = tiny_config();
    let total = base.max_epochs;
    let reference = fit_impute(base.clone(), &dirty).0;
    let reference_csv = to_csv_string(&reference);

    for k in 1..total {
        let dir = fresh_dir(&format!("every-epoch-{k}"));

        // Phase 1: "killed" after k epochs, checkpointing every epoch.
        let mut phase1 = base.clone();
        phase1.max_epochs = k;
        phase1.checkpoint_dir = Some(dir.clone());
        fit_impute(phase1, &dirty);

        // Phase 2: resume under an expired deadline — stops at the first
        // epoch boundary and must impute from the checkpointed state.
        let mut phase2 = base.clone();
        phase2.checkpoint_dir = Some(dir.clone());
        phase2.resume = true;
        phase2.deadline_secs = Some(1e-12);
        let (deadline_imputed, report) = fit_impute(phase2, &dirty);
        assert!(report.deadline_hit, "epoch {k}: deadline must register");
        assert_eq!(report.stopped_at_epoch, Some(k));
        assert_eq!(report.resumed_from_epoch, Some(k));
        assert_eq!(deadline_imputed.n_missing(), 0, "epoch {k}");
        check_imputation_contract(&dirty, &deadline_imputed).expect("contract");

        // Phase 3: resume again without a deadline and finish.
        let mut phase3 = base.clone();
        phase3.checkpoint_dir = Some(dir.clone());
        phase3.resume = true;
        let (resumed, report) = fit_impute(phase3, &dirty);
        assert_eq!(report.resumed_from_epoch, Some(k), "epoch {k}");
        assert_eq!(
            to_csv_string(&resumed),
            reference_csv,
            "resume after a deadline stop at epoch {k} must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn shutdown_request_stops_at_the_next_boundary_and_fills_every_cell() {
    let dirty = dirty_table(40, 4);
    let flag = ShutdownFlag::new();
    flag.request(); // "Ctrl-C" before training starts
    let mut cfg = tiny_config();
    cfg.shutdown = Some(flag);
    let (imputed, report) = fit_impute(cfg, &dirty);
    assert!(report.interrupted);
    assert!(!report.deadline_hit);
    assert_eq!(report.stopped_at_epoch, Some(0));
    check_imputation_contract(&dirty, &imputed).expect("contract");
    assert_eq!(imputed.n_missing(), 0);
}

#[test]
fn unrequested_shutdown_flag_changes_nothing() {
    let dirty = dirty_table(40, 4);
    let reference = fit_impute(tiny_config(), &dirty).0;
    let mut cfg = tiny_config();
    cfg.shutdown = Some(ShutdownFlag::new());
    let (governed, report) = fit_impute(cfg, &dirty);
    assert!(!report.interrupted);
    assert_eq!(to_csv_string(&reference), to_csv_string(&governed));
}

#[test]
fn tight_memory_budget_downscales_and_still_fills_every_cell() {
    // 200 rows with a high-cardinality key column: plenty of value nodes
    // for the ladder's first rung to cut.
    let schema = Schema::from_pairs(&[
        ("id", ColumnKind::Categorical),
        ("grp", ColumnKind::Categorical),
        ("x", ColumnKind::Numerical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..400 {
        let id = format!("id{i}");
        let grp = format!("g{}", i % 4);
        let x = format!("{}", (i % 7) as f64);
        t.push_str_row(&[Some(&id), Some(&grp), Some(&x)]);
    }
    inject_mcar(&mut t, 0.1, &mut StdRng::seed_from_u64(5));

    let mut cfg = tiny_config();
    cfg.memory_budget_mb = Some(1);
    let (imputed, report) = fit_impute(cfg, &t);
    assert!(
        !report.downscales.is_empty(),
        "a 1 MB budget must force downscaling"
    );
    // Rung order: every value-node-cap decision precedes any dims decision.
    if let Some(first_dims) = report
        .downscales
        .iter()
        .position(|d| d.rung == DownscaleRung::HiddenDims)
    {
        assert!(report.downscales[..first_dims]
            .iter()
            .all(|d| d.rung == DownscaleRung::ValueNodeCap));
    }
    check_imputation_contract(&t, &imputed).expect("contract");
    assert_eq!(imputed.n_missing(), 0);
}

#[test]
fn generous_memory_budget_records_no_downscales() {
    let dirty = dirty_table(40, 6);
    let mut cfg = tiny_config();
    cfg.memory_budget_mb = Some(65_536);
    let (_, report) = fit_impute(cfg, &dirty);
    assert!(report.downscales.is_empty());
}

#[test]
fn held_lock_is_a_typed_busy_error() {
    // Plant a lock owned by a *live* process (this one) so the stale-lock
    // reclaim must not kick in: a live holder is a hard Busy error.
    let live_pid = std::process::id();
    let dirty = dirty_table(30, 7);
    let dir = fresh_dir("lock-held");
    std::fs::write(dir.join(LOCK_FILE), live_pid.to_string()).expect("plant lock");

    let mut cfg = tiny_config();
    cfg.checkpoint_dir = Some(dir.clone());
    let pipeline = Pipeline::new(cfg).expect("valid config");
    let err = match pipeline.fit(&dirty) {
        Err(e) => e,
        Ok(_) => panic!("must refuse to start with a held lock"),
    };
    match &err {
        GrimpError::LockHeld { path, owner_pid } => {
            assert_eq!(*owner_pid, Some(live_pid));
            assert!(path.ends_with(LOCK_FILE), "{}", path.display());
        }
        other => panic!("expected LockHeld, got {other}"),
    }
    assert_eq!(err.category(), ErrorCategory::Busy);
    assert_eq!(err.category().exit_code(), 7);
    assert!(
        dir.join(LOCK_FILE).exists(),
        "a live holder's lock must not be reclaimed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn stale_lock_from_a_dead_process_is_reclaimed() {
    // u32::MAX far exceeds the kernel's pid_max, so no process can hold it:
    // the lock is provably stale and the run must reclaim it and proceed
    // instead of livelocking every future run on this directory.
    let dead_pid = u32::MAX;
    let dirty = dirty_table(30, 7);
    let dir = fresh_dir("lock-stale");
    std::fs::write(dir.join(LOCK_FILE), dead_pid.to_string()).expect("plant stale lock");

    let mut cfg = tiny_config();
    cfg.max_epochs = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    let pipeline = Pipeline::new(cfg).expect("valid config");
    let mut sink = grimp_obs::MemorySink::new();
    let fitted = pipeline
        .fit_traced(&dirty, &mut sink)
        .expect("stale lock must be reclaimed, not fatal");
    assert_eq!(fitted.report().locks_reclaimed, 1);
    assert!(
        sink.events().iter().any(|e| {
            e.kind == grimp_obs::EventKind::Counter
                && e.name == grimp_obs::names::LOCK_RECLAIMED
                && e.index == u64::from(dead_pid)
        }),
        "reclaim must be traced with the dead holder's pid"
    );
    assert!(
        !dir.join(LOCK_FILE).exists(),
        "the reclaimed lock is released again after fit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn unparseable_lock_file_is_treated_as_stale() {
    // A torn write from a crashed run leaves garbage in the lock file; with
    // no PID to probe, the lock counts as stale (index 0 in the trace).
    let dirty = dirty_table(30, 7);
    let dir = fresh_dir("lock-garbage");
    std::fs::write(dir.join(LOCK_FILE), b"not-a-pid").expect("plant torn lock");

    let mut cfg = tiny_config();
    cfg.max_epochs = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    let pipeline = Pipeline::new(cfg).expect("valid config");
    let mut sink = grimp_obs::MemorySink::new();
    let fitted = pipeline
        .fit_traced(&dirty, &mut sink)
        .expect("unreadable lock must be reclaimed, not fatal");
    assert_eq!(fitted.report().locks_reclaimed, 1);
    assert!(sink.events().iter().any(|e| {
        e.kind == grimp_obs::EventKind::Counter
            && e.name == grimp_obs::names::LOCK_RECLAIMED
            && e.index == 0
    }));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_lock_is_released_when_fit_finishes() {
    let dirty = dirty_table(30, 8);
    let dir = fresh_dir("lock-released");
    let mut cfg = tiny_config();
    cfg.max_epochs = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    fit_impute(cfg.clone(), &dirty);
    assert!(
        !dir.join(LOCK_FILE).exists(),
        "lock must be released after fit"
    );
    // And a second run can take it again.
    fit_impute(cfg, &dirty);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every injected fault kind × the checkpoint path: training must absorb
/// the fault (retry transients, degrade on persistent failures) and the
/// imputation contract must hold.
#[test]
fn every_io_fault_kind_degrades_without_losing_the_imputation() {
    let dirty = dirty_table(40, 9);
    for kind in IoFaultKind::all() {
        let dir = fresh_dir(&format!("fault-{}", kind.label()));
        let plan = match kind {
            IoFaultKind::Transient => IoFaultPlan::transient(2),
            other => IoFaultPlan::persistent(other),
        };
        let mut cfg = tiny_config();
        cfg.max_epochs = 4;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.io_fault = Some(plan);
        let (imputed, report) = fit_impute(cfg, &dirty);
        check_imputation_contract(&dirty, &imputed)
            .unwrap_or_else(|e| panic!("{}: contract broken: {e}", kind.label()));
        assert_eq!(imputed.n_missing(), 0, "{}", kind.label());
        match kind {
            // Retried transparently: the checkpoint survives and no
            // warning-level IO error needs to surface.
            IoFaultKind::Transient => {
                assert!(
                    dir.join(CHECKPOINT_FILE).exists(),
                    "transient faults must be retried through"
                );
            }
            // Persistent faults: structured warnings, checkpointing is
            // degraded at admission (dir/lock IO already fails), and no
            // half-written checkpoint is ever published.
            _ => {
                assert!(
                    !report.io_errors.is_empty(),
                    "{}: persistent faults must be reported",
                    kind.label()
                );
                assert!(
                    !dir.join(CHECKPOINT_FILE).exists(),
                    "{}: no checkpoint may be published through a faulty disk",
                    kind.label()
                );
                assert!(
                    report.epochs_run > 0,
                    "{}: training must continue",
                    kind.label()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn write mid-rotation must never destroy the previous good
/// generation: resume falls back to it.
#[test]
fn torn_checkpoint_write_leaves_the_previous_generation_resumable() {
    let dirty = dirty_table(40, 10);
    let dir = fresh_dir("torn-rotation");

    // Phase 1: two clean epochs → a valid grimp.ckpt (+ prev).
    let mut cfg = tiny_config();
    cfg.max_epochs = 2;
    cfg.checkpoint_dir = Some(dir.clone());
    fit_impute(cfg, &dirty);
    assert!(dir.join(CHECKPOINT_FILE).exists());

    // Phase 2: resume, but every checkpoint write after the lock tears
    // (from_op 2 skips dir creation and the lock file, so the torn writes
    // land exactly on the epoch saves).
    let mut cfg = tiny_config();
    cfg.max_epochs = 4;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.resume = true;
    cfg.io_fault = Some(IoFaultPlan {
        kind: IoFaultKind::TornWrite,
        from_op: 2,
        times: usize::MAX,
    });
    let (imputed, report) = fit_impute(cfg, &dirty);
    assert_eq!(report.resumed_from_epoch, Some(2));
    assert!(!report.io_errors.is_empty(), "torn writes must be reported");
    assert!(
        report.checkpoints_disabled,
        "repeated torn saves must disable checkpointing"
    );
    assert_eq!(imputed.n_missing(), 0);

    // The rotation's atomicity held: at least one on-disk generation still
    // decodes (the torn bytes only ever landed in the .tmp sibling).
    let current = grimp::TrainCheckpoint::load(&dir.join(CHECKPOINT_FILE));
    let prev = grimp::TrainCheckpoint::load(&dir.join(CHECKPOINT_PREV_FILE));
    assert!(
        current.is_ok() || prev.is_ok(),
        "a good generation must survive torn writes (current: {current:?})"
    );

    // Phase 3: a plain resume still works.
    let mut cfg = tiny_config();
    cfg.max_epochs = 6;
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.resume = true;
    let (resumed, report) = fit_impute(cfg, &dirty);
    assert!(
        report.resumed_from_epoch.is_some(),
        "resume must find a good generation"
    );
    assert_eq!(resumed.n_missing(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile mixed-kind table: empty strings, NaN/±inf, missing cells,
/// possibly a fully-blank column — the same shape the core proptest suite
/// uses, here crossed with the IO-fault matrix.
fn arb_hostile_table() -> impl Strategy<Value = Table> {
    let cat = prop_oneof![
        3 => (0u32..3).prop_map(|v| Some(format!("c{v}"))),
        1 => Just(Some(String::new())),
        2 => Just(None),
    ];
    let num = prop_oneof![
        3 => (-4i32..4).prop_map(|v| Some(format!("{}.5", v))),
        1 => Just(Some("NaN".to_string())),
        1 => Just(Some("inf".to_string())),
        2 => Just(None),
    ];
    let rows = proptest::collection::vec((cat.clone(), cat, num), 1..16);
    (rows, 0usize..5).prop_map(|(rows, blank_col)| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
            ("x", ColumnKind::Numerical),
        ]);
        let mut t = Table::empty(schema);
        for (a, b, x) in &rows {
            let cell = |j: usize, v: &Option<String>| {
                if j == blank_col {
                    None
                } else {
                    v.clone()
                }
            };
            let (a, b, x) = (cell(0, a), cell(1, b), cell(2, x));
            t.push_str_row(&[a.as_deref(), b.as_deref(), x.as_deref()]);
        }
        t
    })
}

static PROP_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any adversarial table × any single IO fault kind: the run never
    /// panics, fills every cell, and persistent faults surface as
    /// structured warnings rather than lost output.
    #[test]
    fn any_table_under_any_io_fault_still_fills(t in arb_hostile_table(), kind_ix in 0usize..4) {
        let kind = IoFaultKind::all()[kind_ix];
        let seq = PROP_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = fresh_dir(&format!("prop-{}-{seq}", kind.label()));
        let plan = match kind {
            IoFaultKind::Transient => IoFaultPlan::transient(2),
            other => IoFaultPlan::persistent(other),
        };
        let mut cfg = tiny_config();
        cfg.max_epochs = 2;
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.io_fault = Some(plan);
        let (imputed, report) = fit_impute(cfg, &t);
        prop_assert_eq!(imputed.n_missing(), 0, "kind {}", kind.label());
        if let Err(e) = check_imputation_contract(&t, &imputed) {
            panic!("{}: contract broken: {e}", kind.label());
        }
        if kind != IoFaultKind::Transient {
            prop_assert!(
                !report.io_errors.is_empty(),
                "{}: persistent faults must be reported", kind.label()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
