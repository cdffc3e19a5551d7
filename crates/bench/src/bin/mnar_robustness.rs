//! **Extension experiment** (paper §7: "GRIMP's data-driven solution can
//! handle systematic errors (MNAR) … we plan to evaluate this scenario in
//! follow-up work"): MCAR vs MNAR missingness at 20 % for GRIMP-FT,
//! MissForest and mode/mean.
//!
//! Under MNAR (rare values preferentially hidden) every method loses
//! accuracy — rare values are both harder (§5) and over-represented in the
//! test set — but learned models should degrade less than the mode floor.

use grimp_baselines::{MeanMode, MissForest, MissForestConfig};
use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_table::{inject_mnar, Imputer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let profile = Profile::from_env();
    banner(
        "MNAR robustness — systematic vs random missingness @20%",
        profile,
    );

    let mut table = TablePrinter::new(&["ds", "method", "acc MCAR", "acc MNAR", "delta"]);
    let mut csv_rows = Vec::new();
    for id in [DatasetId::Thoracic, DatasetId::Flare, DatasetId::Mammogram] {
        let prepared = prepare(id, profile, 0);
        let mcar = corrupt(&prepared, 0.20, 8300);
        let mnar = {
            let mut dirty = prepared.clean.clone();
            let log = inject_mnar(&mut dirty, 0.20, &mut StdRng::seed_from_u64(8300));
            Instance { dirty, log }
        };
        let methods: Vec<Box<dyn Imputer>> = vec![
            Box::new(profile.grimp(0, |_| {})),
            Box::new(MissForest::new(MissForestConfig::default())),
            Box::new(MeanMode),
        ];
        for mut algo in methods {
            let name = algo.name().to_string();
            let a_mcar = run_cell(&prepared, &mcar, algo.as_mut(), 0.20)
                .eval
                .accuracy()
                .unwrap_or(0.0);
            let a_mnar = run_cell(&prepared, &mnar, algo.as_mut(), 0.20)
                .eval
                .accuracy()
                .unwrap_or(0.0);
            table.row(vec![
                prepared.abbr.to_string(),
                name.clone(),
                format!("{a_mcar:.3}"),
                format!("{a_mnar:.3}"),
                format!("{:+.3}", a_mnar - a_mcar),
            ]);
            csv_rows.push(vec![
                prepared.abbr.to_string(),
                name,
                format!("{a_mcar:.4}"),
                format!("{a_mnar:.4}"),
            ]);
        }
        eprintln!("  done {}", prepared.abbr);
    }
    println!("{}", table.render());
    println!("expected shape: everyone drops under MNAR; the mode floor drops hardest");
    println!("(its frequent-value bet is exactly what MNAR removes from the test set).");
    let path = write_csv(
        "mnar_robustness",
        &["dataset", "method", "acc_mcar", "acc_mnar"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
