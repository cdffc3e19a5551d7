//! Property-based tests of GRIMP's core machinery: training-vector batches,
//! K-matrix construction, and the imputation contract on random tables.

use grimp::{build_k_matrix, Grimp, GrimpConfig, KStrategy, Pipeline, SamplerConfig, VectorBatch};
use grimp_graph::{GraphConfig, TableGraph};
use grimp_table::{check_imputation_contract, ColumnKind, FdSet, Imputer, Schema, Table};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = Table> {
    let cat = prop_oneof![
        4 => (0u32..4).prop_map(Some),
        1 => Just(None),
    ];
    proptest::collection::vec((cat.clone(), cat), 3..25).prop_map(|rows| {
        let schema = Schema::from_pairs(&[
            ("a", ColumnKind::Categorical),
            ("b", ColumnKind::Categorical),
        ]);
        let mut t = Table::empty(schema);
        for (a, b) in rows {
            let a = a.map(|v| format!("a{v}"));
            let b = b.map(|v| format!("b{v}"));
            t.push_str_row(&[a.as_deref(), b.as_deref()]);
        }
        t
    })
}

/// A hostile mixed-kind table: categorical cells may be empty strings or
/// missing, numerical cells may be NaN/±inf or missing, and an entire
/// column may be blanked out. Single-row tables are in range.
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
        1 => Just(Some("-inf".to_string())),
        2 => Just(None),
    ];
    let rows = proptest::collection::vec((cat.clone(), cat, num), 1..20);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vector_batches_mask_consistently(t in arb_table(), dim in 2usize..16) {
        let g = TableGraph::build(&t, GraphConfig::default(), &[]);
        let samples: Vec<(usize, usize)> = (0..t.n_rows())
            .flat_map(|i| (0..t.n_columns()).map(move |j| (i, j)))
            .collect();
        let batch = VectorBatch::build(&g, &t, &samples, dim);
        prop_assert_eq!(batch.n, samples.len());
        for (s, &(row, target)) in samples.iter().enumerate() {
            for c in 0..t.n_columns() {
                let slot = s * t.n_columns() + c;
                let masked = batch.mask.row_slice(slot).iter().all(|&v| v == 0.0);
                let live = batch.mask.row_slice(slot).iter().all(|&v| v == 1.0);
                prop_assert!(masked || live, "mask rows must be all-0 or all-1");
                let expect_masked = c == target || t.is_missing(row, c);
                prop_assert_eq!(masked, expect_masked, "slot ({}, {})", s, c);
                // score bias mirrors the mask
                let biased = batch.score_bias.get(s, c) < -1e8;
                prop_assert_eq!(biased, expect_masked);
            }
        }
    }

    #[test]
    fn k_matrices_are_diagonal_and_bounded(n_cols in 1usize..12, target in 0usize..12) {
        let target = target % n_cols;
        for strategy in [
            KStrategy::Diagonal,
            KStrategy::TargetColumn,
            KStrategy::WeakDiagonal,
            KStrategy::WeakDiagonalFd,
        ] {
            let k = build_k_matrix(strategy, n_cols, target, &FdSet::empty());
            prop_assert_eq!(k.shape(), (n_cols, n_cols));
            for r in 0..n_cols {
                for c in 0..n_cols {
                    let v = k.get(r, c);
                    if r != c {
                        prop_assert_eq!(v, 0.0, "{:?} off-diagonal", strategy);
                    } else {
                        prop_assert!((0.0..=1.0).contains(&v), "{:?} weight {}", strategy, v);
                    }
                }
            }
            // the target's weight is maximal on the diagonal
            let target_w = k.get(target, target);
            for c in 0..n_cols {
                prop_assert!(k.get(c, c) <= target_w + 1e-9, "{:?}", strategy);
            }
        }
    }

    #[test]
    fn grimp_contract_on_random_tables(t in arb_table(), seed in 0u64..8) {
        // only when every column has at least one observed value
        prop_assume!((0..t.n_columns()).all(|j| t.column(j).n_missing() < t.n_rows()));
        let cfg = GrimpConfig {
            feature_dim: 8,
            gnn: grimp_gnn::GnnConfig { layers: 1, hidden: 8, ..Default::default() },
            merge_hidden: 16,
            embed_dim: 8,
            max_epochs: 4,
            patience: 2,
            ..GrimpConfig::fast()
        }
        .with_seed(seed);
        let mut model = Grimp::new(cfg);
        let imputed = model.impute(&t);
        prop_assert!(check_imputation_contract(&t, &imputed).is_ok());
        // categorical imputations come from the column's domain
        for (i, j) in t.missing_cells() {
            let v = imputed.display(i, j);
            let prefix = if j == 0 { "a" } else { "b" };
            prop_assert!(v.starts_with(prefix), "leaked {v} into column {j}");
        }
    }

    #[test]
    fn hostile_tables_never_panic_and_always_fill(t in arb_hostile_table(), seed in 0u64..8) {
        // The never-panic/always-impute contract with NO assumptions: any
        // column may be all-missing, rows may number exactly one, strings
        // may be empty, numerics may be NaN or ±inf. The degradation
        // ladder must still fill every missing cell.
        let cfg = GrimpConfig {
            feature_dim: 8,
            gnn: grimp_gnn::GnnConfig { layers: 1, hidden: 8, ..Default::default() },
            merge_hidden: 16,
            embed_dim: 8,
            max_epochs: 3,
            patience: 3,
            ..GrimpConfig::fast()
        }
        .with_seed(seed);
        let pipeline = Pipeline::new(cfg).expect("valid config");
        let fit = pipeline.fit(&t);
        prop_assert!(
            fit.is_ok(),
            "fit failed: {}",
            fit.as_ref().err().map_or(String::new(), |e| e.to_string())
        );
        let Ok(fitted) = fit else { unreachable!() };
        let imputation = fitted.impute(&t);
        prop_assert!(
            imputation.is_ok(),
            "impute failed: {}",
            imputation.as_ref().err().map_or(String::new(), |e| e.to_string())
        );
        let Ok(imputed) = imputation else { unreachable!() };
        prop_assert_eq!(imputed.n_missing(), 0, "missing cells survived");
        prop_assert_eq!(imputed.n_rows(), t.n_rows());
        prop_assert_eq!(
            fitted.report().column_tiers.len(),
            t.n_columns(),
            "one ladder tier per column"
        );
        // Imputed numerics are finite even when the observed ones are not.
        for (i, j) in t.missing_cells() {
            if j == 2 {
                let v = imputed.get(i, j).as_num().expect("numeric cell");
                prop_assert!(v.is_finite(), "imputed non-finite {v}");
            }
        }
    }

    #[test]
    fn sampled_training_on_hostile_tables_still_fills_every_cell(
        t in arb_hostile_table(),
        seed in 0u64..8,
    ) {
        // The same no-assumptions contract, but trained on neighbor-sampled
        // mini-batches with a batch smaller than most tables: degenerate
        // columns, single-row tables and non-finite numerics must not break
        // the sampler, and every missing cell is still filled.
        let cfg = GrimpConfig {
            feature_dim: 8,
            gnn: grimp_gnn::GnnConfig { layers: 1, hidden: 8, ..Default::default() },
            merge_hidden: 16,
            embed_dim: 8,
            max_epochs: 3,
            patience: 3,
            sampler: Some(SamplerConfig { batch_rows: 4, fanout: 2 }),
            ..GrimpConfig::fast()
        }
        .with_seed(seed);
        let pipeline = Pipeline::new(cfg).expect("valid config");
        let fit = pipeline.fit(&t);
        prop_assert!(
            fit.is_ok(),
            "fit failed: {}",
            fit.as_ref().err().map_or(String::new(), |e| e.to_string())
        );
        let Ok(fitted) = fit else { unreachable!() };
        let imputation = fitted.impute(&t);
        prop_assert!(
            imputation.is_ok(),
            "impute failed: {}",
            imputation.as_ref().err().map_or(String::new(), |e| e.to_string())
        );
        let Ok(imputed) = imputation else { unreachable!() };
        prop_assert_eq!(imputed.n_missing(), 0, "missing cells survived");
        prop_assert!(check_imputation_contract(&t, &imputed).is_ok());
        for (i, j) in t.missing_cells() {
            if j == 2 {
                let v = imputed.get(i, j).as_num().expect("numeric cell");
                prop_assert!(v.is_finite(), "imputed non-finite {v}");
            }
        }
    }
}
