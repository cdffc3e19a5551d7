//! **Figures 11–12**: distribution of wrong imputations per attribute value
//! on Thoracic (Fig. 11) and Contraceptive (Fig. 12), values sorted by
//! descending frequency, next to the expected wrong fraction
//! `E_v = 1 − f_v`.
//!
//! Expected shape (paper §5): every method imputes frequent values nearly
//! perfectly and fails on rare values — "all algorithms tend to have a very
//! high accuracy on frequent values, while failing frequently on rarer
//! values", tracking the expected curve.

use grimp_baselines::{
    AimNetConfig, AimNetLike, DataWigConfig, DataWigLike, MissForest, MissForestConfig,
};
use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_metrics::per_value_errors;
use grimp_table::{Imputer, Table};

fn main() {
    let profile = Profile::from_env();
    banner(
        "Figures 11–12 — per-value wrong-imputation distributions",
        profile,
    );

    let mut csv_rows = Vec::new();
    for (figure, id) in [(11, DatasetId::Thoracic), (12, DatasetId::Contraceptive)] {
        let prepared = prepare(id, profile, 0);
        // 50 % missingness maximises test coverage per value, as in §5
        let instance = corrupt(&prepared, 0.50, 6000);

        // run the method roster once
        let epochs = profile.baseline_epochs();
        let mut methods: Vec<(String, Table)> = Vec::new();
        let roster: Vec<Box<dyn Imputer>> = vec![
            Box::new(profile.grimp(0, |_| {})),
            Box::new(MissForest::new(MissForestConfig::default())),
            Box::new(AimNetLike::new(AimNetConfig {
                epochs,
                ..Default::default()
            })),
            Box::new(DataWigLike::new(DataWigConfig {
                epochs,
                ..Default::default()
            })),
        ];
        for mut algo in roster {
            let imputed = algo.impute(&instance.dirty);
            methods.push((algo.name().to_string(), imputed));
            eprintln!("  {} done on {}", algo.name(), prepared.abbr);
        }
        let method_refs: Vec<(&str, &Table)> =
            methods.iter().map(|(n, t)| (n.as_str(), t)).collect();

        println!("-- Figure {figure}: {} --", prepared.abbr);
        // first four categorical attributes with a small active domain,
        // as in the paper's subplots
        let small_cols: Vec<usize> = (0..prepared.clean.n_columns())
            .filter(|&j| {
                prepared.clean.schema().column(j).kind == grimp_table::ColumnKind::Categorical
                    && (2..=4).contains(&prepared.clean.dictionary(j).len())
            })
            .take(4)
            .collect();
        for col in small_cols {
            let rows = per_value_errors(&prepared.clean, &instance.log, &method_refs, col);
            let mut table = TablePrinter::new(
                &["value", "freq", "expected"]
                    .into_iter()
                    .chain(methods.iter().map(|(n, _)| n.as_str()))
                    .collect::<Vec<_>>(),
            );
            for r in &rows {
                let mut cells = vec![
                    r.value.clone(),
                    format!("{:.2}", r.frequency),
                    format!("{:.2}", r.expected_wrong),
                ];
                for w in &r.wrong_fraction {
                    cells.push(fmt_opt(*w, 2));
                }
                table.row(cells);
                let mut csv = vec![
                    prepared.abbr.to_string(),
                    col.to_string(),
                    r.value.clone(),
                    format!("{:.4}", r.frequency),
                    format!("{:.4}", r.expected_wrong),
                ];
                for w in &r.wrong_fraction {
                    csv.push(fmt_opt(*w, 4));
                }
                csv_rows.push(csv);
            }
            println!(
                "attribute {} ({}): wrong-imputation fraction per value (freq-desc)",
                prepared.clean.schema().column(col).name,
                prepared.abbr
            );
            println!("{}", table.render());
        }
    }
    println!("expected shape: bars near 0 on the left (frequent values), near 1 on the");
    println!("right (rare values), across ALL methods, tracking expected = 1 - f_v.");

    let header: Vec<&str> = vec![
        "dataset",
        "column",
        "value",
        "frequency",
        "expected_wrong",
        "grimp",
        "missforest",
        "aimnet",
        "datawig",
    ];
    let path = write_csv("fig11_12_error_analysis", &header, &csv_rows);
    println!("\ncsv: {}", path.display());
}
