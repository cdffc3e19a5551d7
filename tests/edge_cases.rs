//! Failure-injection and degenerate-input integration tests: every imputer
//! must behave sensibly on pathological tables.

use grimp::{GrimpConfig, Pipeline};
use grimp_baselines::{KnnImputer, MeanMode, Mice, MiceConfig, MissForest, MissForestConfig};
use grimp_table::{ColumnKind, Imputer, Schema, Table, Value};

fn tiny_grimp() -> Pipeline {
    Pipeline::new(GrimpConfig {
        feature_dim: 8,
        gnn: grimp_gnn::GnnConfig {
            layers: 1,
            hidden: 8,
            ..Default::default()
        },
        merge_hidden: 16,
        embed_dim: 8,
        max_epochs: 5,
        patience: 2,
        ..GrimpConfig::fast()
    })
    .expect("valid config")
}

fn roster() -> Vec<Box<dyn Imputer>> {
    vec![
        Box::new(tiny_grimp()),
        Box::new(MissForest::new(MissForestConfig {
            max_iterations: 2,
            ..Default::default()
        })),
        Box::new(Mice::new(MiceConfig {
            rounds: 1,
            epochs: 10,
            ..Default::default()
        })),
        Box::new(KnnImputer::new(3)),
        Box::new(MeanMode),
    ]
}

/// A table with no missing values passes through every imputer unchanged.
#[test]
fn clean_tables_pass_through_unchanged() {
    let schema =
        Schema::from_pairs(&[("c", ColumnKind::Categorical), ("x", ColumnKind::Numerical)]);
    let t = Table::from_rows(
        schema,
        &[vec![Some("a"), Some("1.0")], vec![Some("b"), Some("2.0")]],
    );
    for mut algo in roster() {
        let out = algo.impute(&t);
        assert_eq!(out.n_rows(), t.n_rows(), "{}", algo.name());
        for i in 0..t.n_rows() {
            for j in 0..t.n_columns() {
                assert_eq!(
                    out.get(i, j),
                    t.get(i, j),
                    "{} changed a clean cell",
                    algo.name()
                );
            }
        }
    }
}

/// A single-row table with a missing cell cannot crash anyone.
#[test]
fn single_row_tables_do_not_crash() {
    let schema = Schema::from_pairs(&[
        ("c", ColumnKind::Categorical),
        ("d", ColumnKind::Categorical),
    ]);
    let t = Table::from_rows(schema, &[vec![Some("only"), None]]);
    for mut algo in roster() {
        let out = algo.impute(&t);
        assert_eq!(out.n_rows(), 1, "{}", algo.name());
        // nothing to learn from: any output (or none for some baselines)
        // is acceptable as long as it does not panic and known cells stay
        assert_eq!(out.display(0, 0), "only", "{}", algo.name());
    }
}

/// Constant columns (single distinct value) are imputed with that value.
#[test]
fn constant_columns_are_trivially_imputed() {
    let schema = Schema::from_pairs(&[
        ("k", ColumnKind::Categorical),
        ("v", ColumnKind::Categorical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..20 {
        t.push_str_row(&[Some("const"), Some(if i % 2 == 0 { "p" } else { "q" })]);
    }
    t.set(3, 0, Value::Null);
    t.set(7, 0, Value::Null);
    for mut algo in roster() {
        let out = algo.impute(&t);
        assert_eq!(out.display(3, 0), "const", "{}", algo.name());
        assert_eq!(out.display(7, 0), "const", "{}", algo.name());
    }
}

/// Numerical columns with identical values must not produce NaNs anywhere.
#[test]
fn zero_variance_numericals_stay_finite() {
    let schema =
        Schema::from_pairs(&[("c", ColumnKind::Categorical), ("x", ColumnKind::Numerical)]);
    let mut t = Table::empty(schema);
    for i in 0..20 {
        t.push_str_row(&[Some(if i % 2 == 0 { "a" } else { "b" }), Some("5.0")]);
    }
    t.set(4, 1, Value::Null);
    for mut algo in roster() {
        let out = algo.impute(&t);
        if let Value::Num(v) = out.get(4, 1) {
            assert!(v.is_finite(), "{} produced {v}", algo.name());
            assert!(
                (v - 5.0).abs() < 1.0,
                "{} far from the constant: {v}",
                algo.name()
            );
        }
    }
}

/// Extreme missingness (90 %) still terminates and fills what it can.
#[test]
fn extreme_missingness_terminates() {
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
        ("c", ColumnKind::Categorical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..40 {
        let v = format!("v{}", i % 2);
        t.push_str_row(&[Some(&v), Some(&v), Some(&v)]);
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    grimp_table::inject_mcar(&mut t, 0.9, &mut rng);
    let mut model = tiny_grimp();
    let out = model.impute(&t);
    assert_eq!(out.n_missing(), 0);
}

/// Wide-domain categorical columns (every value unique) do not blow up.
#[test]
fn unique_valued_columns_are_handled() {
    let schema = Schema::from_pairs(&[
        ("id", ColumnKind::Categorical),
        ("g", ColumnKind::Categorical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..30 {
        t.push_str_row(&[
            Some(&format!("row-{i}")),
            Some(if i % 2 == 0 { "x" } else { "y" }),
        ]);
    }
    t.set(5, 0, Value::Null);
    t.set(11, 1, Value::Null);
    let mut model = tiny_grimp();
    let out = model.impute(&t);
    assert_eq!(out.n_missing(), 0);
    // the imputed id must be from the id domain
    assert!(out.display(5, 0).starts_with("row-"));
}

/// Numerical-only and categorical-only tables both work end to end.
#[test]
fn single_kind_tables_work() {
    // numerical-only
    let schema = Schema::from_pairs(&[("x", ColumnKind::Numerical), ("y", ColumnKind::Numerical)]);
    let mut t = Table::empty(schema);
    for i in 0..30 {
        let x = i as f64;
        t.push_str_row(&[Some(&format!("{x}")), Some(&format!("{}", 2.0 * x))]);
    }
    t.set(3, 1, Value::Null);
    let out = tiny_grimp().impute(&t);
    assert!(out.get(3, 1).as_num().unwrap().is_finite());

    // categorical-only
    let schema = Schema::from_pairs(&[
        ("a", ColumnKind::Categorical),
        ("b", ColumnKind::Categorical),
    ]);
    let mut t = Table::empty(schema);
    for i in 0..30 {
        let v = format!("v{}", i % 3);
        t.push_str_row(&[Some(&v), Some(&v)]);
    }
    t.set(2, 0, Value::Null);
    let out = tiny_grimp().impute(&t);
    assert_eq!(out.n_missing(), 0);
}
