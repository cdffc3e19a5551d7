//! Integration tests pinning the paper-level properties the reproduction
//! claims: self-supervision (no clean data), inductive graph behavior,
//! error-analysis shape, and the Fig. 4 / Fig. 5 training-corpus semantics.

use grimp::{GrimpConfig, Pipeline};
use grimp_datasets::{generate, DatasetId};
use grimp_graph::{GraphConfig, TableGraph};
use grimp_metrics::{dataset_stats, evaluate, per_value_errors};
use grimp_table::{inject_mcar, inject_typos, Corpus, Imputer, Schema, Table, Value};
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

fn small_config() -> GrimpConfig {
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
        ..GrimpConfig::fast()
    }
}

/// §3.3: a tuple with K non-missing attributes yields exactly K samples,
/// bounded by the column count, independent of domain sizes.
#[test]
fn training_corpus_counts_match_fig4() {
    let clean = head(&generate(DatasetId::Adult, 0).table, 100);
    let mut dirty = clean.clone();
    inject_mcar(&mut dirty, 0.3, &mut StdRng::seed_from_u64(0));
    let corpus = Corpus::build(&dirty, 0.0, &mut StdRng::seed_from_u64(1));
    let mut per_row = vec![0usize; dirty.n_rows()];
    for bucket in &corpus.train {
        for s in bucket {
            per_row[s.row] += 1;
        }
    }
    for (i, &k) in per_row.iter().enumerate() {
        let non_missing = (0..dirty.n_columns())
            .filter(|&j| !dirty.is_missing(i, j))
            .count();
        assert_eq!(k, non_missing, "row {i}");
        assert!(k <= dirty.n_columns());
    }
}

/// §3.2/§4.2: test-cell edges are absent from the graph — the model can
/// never read the answer off the graph.
#[test]
fn test_cells_have_no_edges_in_the_graph() {
    let clean = head(&generate(DatasetId::Mammogram, 0).table, 150);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.2, &mut StdRng::seed_from_u64(2));
    let graph = TableGraph::build(&dirty, GraphConfig::default(), &[]);
    for cell in &log.cells {
        // the rid→cell edge for the blanked value must not exist
        for t in 0..graph.n_edge_types() {
            for &(rid, _) in &graph.edges_of(t).pairs {
                if rid as usize == cell.row && t == cell.col {
                    panic!("edge present for blanked cell ({}, {})", cell.row, cell.col);
                }
            }
        }
    }
}

/// §4.2 noise experiment: 10 % typos cost only a modest accuracy drop.
#[test]
fn typo_noise_has_bounded_impact() {
    let clean = head(&generate(DatasetId::TicTacToe, 0).table, 250);

    let run = |table: &Table, seed: u64| -> f64 {
        let mut dirty = table.clone();
        let log = inject_mcar(&mut dirty, 0.05, &mut StdRng::seed_from_u64(seed));
        let fitted = Pipeline::new(small_config()).unwrap().fit(&dirty).unwrap();
        let imputed = fitted.impute(&dirty).unwrap();
        evaluate(table, &imputed, &log).accuracy().unwrap_or(0.0)
    };
    let acc_clean = run(&clean, 10);
    let mut noisy = clean.clone();
    inject_typos(&mut noisy, 0.10, &mut StdRng::seed_from_u64(11));
    let acc_noisy = run(&noisy, 10);
    assert!(
        acc_clean - acc_noisy < 0.25,
        "typos cost too much: clean {acc_clean:.3} vs noisy {acc_noisy:.3}"
    );
}

/// §5 shape: on a skewed column, measured per-value wrong fractions
/// increase from frequent to rare values for a mode-style floor.
#[test]
fn error_analysis_shape_holds() {
    let clean = head(&generate(DatasetId::Thoracic, 0).table, 300);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.5, &mut StdRng::seed_from_u64(4));
    let imputed = grimp_baselines::MeanMode.impute(&dirty);
    // pick a skewed binary column
    let col = (0..clean.n_columns())
        .find(|&j| {
            clean.schema().column(j).kind == grimp_table::ColumnKind::Categorical
                && clean.dictionary(j).len() == 2
        })
        .expect("thoracic has binary columns");
    let rows = per_value_errors(&clean, &log, &[("mode", &imputed)], col);
    assert_eq!(rows.len(), 2);
    // frequent first; the mode imputer's wrong fraction must be weakly
    // increasing toward the rare value
    let freq_wrong = rows[0].wrong_fraction[0].unwrap_or(0.0);
    let rare_wrong = rows[1].wrong_fraction[0].unwrap_or(1.0);
    assert!(
        freq_wrong <= rare_wrong,
        "shape violated: {freq_wrong} > {rare_wrong}"
    );
    // and E_v ordering matches
    assert!(rows[0].expected_wrong <= rows[1].expected_wrong);
}

/// Table 1 machinery: generated statistics vary across datasets in the
/// published direction (IMDB hardest, Flare/TT easiest frequency profiles).
#[test]
fn difficulty_ordering_matches_the_paper() {
    let imdb = dataset_stats(&generate(DatasetId::Imdb, 0).table);
    let flare = dataset_stats(&generate(DatasetId::Flare, 0).table);
    let ttt = dataset_stats(&generate(DatasetId::TicTacToe, 0).table);
    assert!(
        imdb.k_avg > flare.k_avg,
        "IMDB must have heavier tails than Flare"
    );
    assert!(imdb.n_plus_avg > flare.n_plus_avg);
    assert!(ttt.k_avg < 0.0, "Tic-Tac-Toe is flat");
    assert!(imdb.distinct > 10 * ttt.distinct);
}

/// Self-supervision: GRIMP trains on a table where *every* row contains at
/// least one missing value (no clean subset exists).
#[test]
fn no_clean_subset_is_required() {
    let clean = head(&generate(DatasetId::Mammogram, 0).table, 200);
    let mut dirty = clean.clone();
    // blank one cell in every row
    for i in 0..dirty.n_rows() {
        dirty.set(i, i % dirty.n_columns(), Value::Null);
    }
    assert!((0..dirty.n_rows()).all(|i| { (0..dirty.n_columns()).any(|j| dirty.is_missing(i, j)) }));
    let config = GrimpConfig {
        seed: 5,
        ..small_config()
    };
    let fitted = Pipeline::new(config).unwrap().fit(&dirty).unwrap();
    let imputed = fitted.impute(&dirty).unwrap();
    assert_eq!(imputed.n_missing(), 0);
    assert!(
        fitted.report().epochs_run > 0,
        "training must have happened"
    );
}
