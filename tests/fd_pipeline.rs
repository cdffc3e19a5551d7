//! Integration tests of the FD-aware pipeline (paper §4.3): FD-REPAIR,
//! FUNFOREST and GRIMP-A on generated Tax data whose FDs hold exactly.

use grimp::{GrimpConfig, KStrategy, Pipeline};
use grimp_baselines::{FdRepair, MissForest, MissForestConfig};
use grimp_datasets::{generate, DatasetId};
use grimp_metrics::evaluate;
use grimp_table::{inject_mcar, Imputer, Schema, Table, Value};
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

#[test]
fn generated_tax_fds_hold_and_survive_truncation() {
    let tax = generate(DatasetId::Tax, 0);
    assert_eq!(tax.fds.len(), 6);
    let small = head(&tax.table, 400);
    for fd in &tax.fds.fds {
        assert!(
            fd.holds_on(&small),
            "FD {:?} -> {} broken by truncation",
            fd.lhs,
            fd.rhs
        );
    }
}

#[test]
fn fd_repair_is_precise_on_fd_covered_cells() {
    let tax = generate(DatasetId::Tax, 0);
    let clean = head(&tax.table, 400);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.10, &mut StdRng::seed_from_u64(1));

    let mut repair = FdRepair::new(tax.fds.clone());
    let imputed = repair.impute(&dirty);
    assert!(repair.last_fd_imputations > 0, "FDs must reach some cells");

    // Cells in FD conclusions whose premise is observed elsewhere must be
    // imputed exactly (minimality repair on exact FDs is precise).
    let conclusion_cols: Vec<usize> = tax.fds.fds.iter().map(|fd| fd.rhs).collect();
    let mut covered = 0;
    let mut correct = 0;
    for cell in &log.cells {
        if !conclusion_cols.contains(&cell.col) {
            continue;
        }
        // premise observed in the dirty tuple and group has evidence?
        let fd = tax.fds.fds.iter().find(|fd| fd.rhs == cell.col).unwrap();
        let premise_known = fd.lhs.iter().all(|&l| !dirty.is_missing(cell.row, l));
        if !premise_known {
            continue;
        }
        covered += 1;
        let truth = clean.display(cell.row, cell.col);
        if imputed.display(cell.row, cell.col) == truth {
            correct += 1;
        }
    }
    assert!(covered > 5, "test needs FD-covered cells, got {covered}");
    let precision = correct as f64 / covered as f64;
    assert!(
        precision > 0.9,
        "FD repair precision {precision} on covered cells"
    );
}

#[test]
fn funforest_matches_or_beats_missforest_on_fd_columns() {
    let tax = generate(DatasetId::Tax, 0);
    let clean = head(&tax.table, 400);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.20, &mut StdRng::seed_from_u64(2));

    let cfg = MissForestConfig {
        seed: 0,
        ..Default::default()
    };
    let plain = MissForest::new(cfg).impute(&dirty);
    let fdful = MissForest::funforest(cfg, tax.fds.clone()).impute(&dirty);

    let acc = |imp: &Table| evaluate(&clean, imp, &log).accuracy().unwrap();
    let (plain_acc, fd_acc) = (acc(&plain), acc(&fdful));
    // FUNFOREST should not be materially worse than MissForest with true FDs.
    assert!(
        fd_acc >= plain_acc - 0.05,
        "FUNFOREST {fd_acc:.3} fell behind MissForest {plain_acc:.3}"
    );
}

#[test]
fn grimp_a_consumes_fds_and_imputes_conclusions() {
    let tax = generate(DatasetId::Tax, 0);
    let clean = head(&tax.table, 300);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.15, &mut StdRng::seed_from_u64(3));

    let cfg = GrimpConfig {
        feature_dim: 16,
        gnn: grimp_gnn::GnnConfig {
            layers: 2,
            hidden: 16,
            ..Default::default()
        },
        merge_hidden: 32,
        embed_dim: 16,
        max_epochs: 50,
        patience: 10,
        seed: 0,
        k_strategy: KStrategy::WeakDiagonalFd,
        ..GrimpConfig::fast()
    };
    let fitted = Pipeline::new(cfg)
        .unwrap()
        .with_fds(tax.fds.clone())
        .fit(&dirty)
        .unwrap();
    let imputed = fitted.impute(&dirty).unwrap();
    let eval = evaluate(&clean, &imputed, &log);
    // city/state/region are functions of zip: with FD-weighted attention
    // the conclusion columns should be imputed well above chance.
    let conclusion_cols: Vec<usize> = tax.fds.fds.iter().map(|fd| fd.rhs).collect();
    let mut total = 0;
    let mut correct = 0;
    for cell in log
        .cells
        .iter()
        .filter(|c| conclusion_cols.contains(&c.col))
    {
        if let Value::Cat(_) = cell.truth {
            total += 1;
            if imputed.display(cell.row, cell.col) == clean.display(cell.row, cell.col) {
                correct += 1;
            }
        }
    }
    assert!(total > 0);
    let acc = correct as f64 / total as f64;
    assert!(
        acc > 0.3,
        "GRIMP-A accuracy on FD conclusions too low: {acc:.3}"
    );
    assert!(eval.accuracy().unwrap() > 0.3);
}
