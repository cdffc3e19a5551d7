//! Leaderboard: every imputer in the workspace on one generated dataset.
//!
//! ```bash
//! cargo run --release --example compare_baselines [dataset-abbr] [rate]
//! # e.g. cargo run --release --example compare_baselines MM 0.2
//! ```

use grimp::{GnnMc, GrimpConfig, Pipeline, TaskKind};
use grimp_baselines::{
    AimNetConfig, AimNetLike, DataWigConfig, DataWigLike, EmbdiMc, EmbdiMcConfig, KnnImputer,
    MeanMode, Mice, MiceConfig, MissForest, MissForestConfig, TurlConfig, TurlSub,
};
use grimp_datasets::{generate, DatasetId};
use grimp_graph::FeatureSource;
use grimp_metrics::evaluate;
use grimp_table::{inject_mcar, Imputer, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let abbr = args.get(1).map(String::as_str).unwrap_or("MM");
    let rate: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let id = DatasetId::ALL
        .into_iter()
        .find(|id| id.abbr() == abbr)
        .unwrap_or_else(|| {
            panic!("unknown dataset {abbr}; use one of AD AU CO CR FL IM MM TA TH TT")
        });

    let dataset = generate(id, 0);
    let clean = head(&dataset.table, 600);
    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, rate, &mut StdRng::seed_from_u64(1));
    println!(
        "{} ({} rows used, {:.0}% missing, {} test cells)\n",
        dataset.name,
        clean.n_rows(),
        rate * 100.0,
        log.len()
    );

    let cfg = GrimpConfig {
        seed: 0,
        ..GrimpConfig::fast()
    };
    let grimp = |config| Pipeline::new(config).expect("valid config");
    let roster: Vec<Box<dyn Imputer>> = vec![
        Box::new(grimp(GrimpConfig {
            features: FeatureSource::FastText,
            ..cfg.clone()
        })),
        Box::new(grimp(GrimpConfig {
            features: FeatureSource::Embdi,
            ..cfg.clone()
        })),
        Box::new(grimp(GrimpConfig {
            task_kind: TaskKind::Linear,
            ..cfg.clone()
        })),
        Box::new(GnnMc::new(cfg)),
        Box::new(MissForest::new(MissForestConfig::default())),
        Box::new(AimNetLike::new(AimNetConfig::default())),
        Box::new(TurlSub::new(TurlConfig::default())),
        Box::new(EmbdiMc::new(EmbdiMcConfig::default())),
        Box::new(DataWigLike::new(DataWigConfig::default())),
        Box::new(Mice::new(MiceConfig::default())),
        Box::new(KnnImputer::new(5)),
        Box::new(MeanMode),
    ];

    let mut scored: Vec<(String, Option<f64>, Option<f64>, f64)> = Vec::new();
    for mut algo in roster {
        let start = std::time::Instant::now();
        let imputed = algo.impute(&dirty);
        let secs = start.elapsed().as_secs_f64();
        let eval = evaluate(&clean, &imputed, &log);
        scored.push((algo.name().to_string(), eval.accuracy(), eval.rmse(), secs));
        eprintln!("  {} done ({secs:.1}s)", algo.name());
    }
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!(
        "\n{:<18} {:>9} {:>7} {:>8}",
        "algorithm", "accuracy", "rmse", "seconds"
    );
    println!("{}", "-".repeat(46));
    for (name, acc, rmse, secs) in scored {
        println!(
            "{name:<18} {:>9} {:>7} {secs:>7.1}s",
            acc.map(|a| format!("{a:.3}")).unwrap_or_else(|| "-".into()),
            rmse.map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

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
