//! Rare-value error analysis (paper §5, Figures 11–12).
//!
//! Builds a skewed table, imputes with three methods, and prints the
//! per-value wrong-imputation distribution next to the expected error
//! `E_v = 1 − f_v` — reproducing the paper's observation that *every*
//! method nails frequent values and fails on rare ones.
//!
//! ```bash
//! cargo run --release --example error_analysis
//! ```

use grimp::{GrimpConfig, Pipeline};
use grimp_baselines::{KnnImputer, MeanMode, MissForest, MissForestConfig};
use grimp_metrics::per_value_errors;
use grimp_table::{inject_mcar, ColumnKind, Imputer, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // One very skewed column ("f" 85 %, "t" 15 %) plus a weakly predictive
    // context column — the Thoracic PRE8 situation from Figure 11.
    let schema = Schema::from_pairs(&[
        ("pre8", ColumnKind::Categorical),
        ("pre9", ColumnKind::Categorical),
        ("context", ColumnKind::Categorical),
    ]);
    let mut rng = StdRng::seed_from_u64(0);
    let mut clean = Table::empty(schema);
    for _ in 0..600 {
        let rare = rng.gen::<f64>() < 0.15;
        let (a, b) = if rare { ("t", "t") } else { ("f", "f") };
        // context hints at rarity 70 % of the time
        let ctx = if rng.gen::<f64>() < 0.7 {
            if rare {
                "risky"
            } else {
                "normal"
            }
        } else if rng.gen::<bool>() {
            "risky"
        } else {
            "normal"
        };
        clean.push_str_row(&[Some(a), Some(b), Some(ctx)]);
    }

    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.30, &mut StdRng::seed_from_u64(1));
    println!(
        "{} rows, {} injected missing cells\n",
        clean.n_rows(),
        log.len()
    );

    let mut results: Vec<(String, Table)> = Vec::new();
    let roster: Vec<Box<dyn Imputer>> = vec![
        Box::new(MeanMode),
        Box::new(KnnImputer::new(5)),
        Box::new(MissForest::new(MissForestConfig::default())),
        Box::new(
            Pipeline::new(GrimpConfig {
                seed: 3,
                ..GrimpConfig::fast()
            })
            .expect("valid config"),
        ),
    ];
    for mut algo in roster {
        let imputed = algo.impute(&dirty);
        results.push((algo.name().to_string(), imputed));
    }
    let refs: Vec<(&str, &Table)> = results.iter().map(|(n, t)| (n.as_str(), t)).collect();

    for col in 0..2 {
        let name = &clean.schema().column(col).name;
        println!("attribute `{name}` — fraction of WRONG imputations per value");
        println!("(values sorted by descending frequency; 0.00 = perfect)\n");
        print!("{:<8} {:>6} {:>9}", "value", "freq", "expected");
        for (n, _) in &refs {
            print!(" {n:>12}");
        }
        println!();
        for row in per_value_errors(&clean, &log, &refs, col) {
            print!(
                "{:<8} {:>6.2} {:>9.2}",
                row.value, row.frequency, row.expected_wrong
            );
            for w in &row.wrong_fraction {
                match w {
                    Some(w) => print!(" {w:>12.2}"),
                    None => print!(" {:>12}", "-"),
                }
            }
            println!();
        }
        println!();
    }
    println!("the paper's finding in miniature: the frequent value is imputed almost");
    println!("perfectly by every method, the rare value mostly wrongly — near the");
    println!("frequency-based expectation E_v = 1 - f_v (mitigated only by methods");
    println!("that exploit the context column).");
}
