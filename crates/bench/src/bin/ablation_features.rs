//! **Extension ablation**: pre-trained feature sources (§3.4) — random
//! initialization vs FastText-substitute hashed n-grams (GRIMP-FT) vs EMBDI
//! local embeddings (GRIMP-E).
//!
//! Paper: "executions based on EMBDI features perform best on average,
//! neither of the two pre-trained features clearly surpasses the other in
//! all settings. Both solutions slightly outperform the random
//! initialization."

use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_graph::FeatureSource;
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner(
        "Ablation — pre-trained feature sources (rand / FT / EMBDI)",
        profile,
    );

    let sources = [
        FeatureSource::Random,
        FeatureSource::FastText,
        FeatureSource::Embdi,
    ];
    let datasets = [
        DatasetId::Mammogram,
        DatasetId::Flare,
        DatasetId::Contraceptive,
        DatasetId::Adult,
        DatasetId::TicTacToe,
    ];
    let mut table = TablePrinter::new(&["ds", "rand", "ft", "embdi"]);
    let mut csv_rows = Vec::new();
    let mut sums = [0.0f64; 3];
    for id in datasets {
        let prepared = prepare(id, profile, 0);
        let instance = corrupt(&prepared, 0.20, 8100);
        let mut row = vec![prepared.abbr.to_string()];
        for (k, source) in sources.into_iter().enumerate() {
            let mut model = profile.grimp(0, |c| c.features = source);
            let cell = run_cell(&prepared, &instance, &mut model as &mut dyn Imputer, 0.20);
            let acc = cell.eval.accuracy().unwrap_or(0.0);
            sums[k] += acc;
            row.push(format!("{acc:.3}"));
            csv_rows.push(vec![
                prepared.abbr.to_string(),
                source.label().to_string(),
                format!("{acc:.4}"),
                fmt_opt(cell.eval.rmse(), 4),
            ]);
            eprintln!("  done {} {}", prepared.abbr, source.label());
        }
        table.row(row);
    }
    table.row(vec![
        "mean".into(),
        format!("{:.3}", sums[0] / datasets.len() as f64),
        format!("{:.3}", sums[1] / datasets.len() as f64),
        format!("{:.3}", sums[2] / datasets.len() as f64),
    ]);
    println!("{}", table.render());
    println!("expected shape: both pre-trained sources ≥ random on average.");
    let path = write_csv(
        "ablation_features",
        &["dataset", "source", "accuracy", "rmse"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
