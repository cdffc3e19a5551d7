//! Functional dependencies as external information (paper §4.3).
//!
//! Generates a Tax-like table whose FDs (zip → city → state → region) hold
//! exactly, corrupts it, and compares four repair strategies:
//! FD-REPAIR (minimality), MissForest, FUNFOREST (FD-pointed forests) and
//! GRIMP-A (attention with the Weak-diagonal+FD `K` matrix).
//!
//! ```bash
//! cargo run --release --example fd_imputation
//! ```

use grimp::{GrimpConfig, KStrategy, Pipeline};
use grimp_baselines::{FdRepair, MissForest, MissForestConfig};
use grimp_datasets::{generate, DatasetId};
use grimp_metrics::evaluate;
use grimp_table::{inject_mcar, Imputer, Schema, Table, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A row-capped Tax dataset keeps the example snappy.
    let tax = generate(DatasetId::Tax, 0);
    let clean = head(&tax.table, 500);
    println!(
        "Tax-like dataset: {} rows, {} FDs declared",
        clean.n_rows(),
        tax.fds.len()
    );
    for fd in &tax.fds.fds {
        let lhs: Vec<&str> = fd
            .lhs
            .iter()
            .map(|&j| clean.schema().column(j).name.as_str())
            .collect();
        println!(
            "  {} -> {}   (holds: {})",
            lhs.join(", "),
            clean.schema().column(fd.rhs).name,
            fd.holds_on(&clean)
        );
    }

    let mut dirty = clean.clone();
    let log = inject_mcar(&mut dirty, 0.20, &mut StdRng::seed_from_u64(1));
    println!("\ninjected {} missing cells (20% MCAR)\n", log.len());

    let grimp_a = Pipeline::new(GrimpConfig {
        seed: 0,
        k_strategy: KStrategy::WeakDiagonalFd,
        ..GrimpConfig::fast()
    })
    .expect("valid config")
    .with_fds(tax.fds.clone());
    let algorithms: Vec<Box<dyn Imputer>> = vec![
        Box::new(FdRepair::new(tax.fds.clone())),
        Box::new(MissForest::new(MissForestConfig::default())),
        Box::new(MissForest::funforest(
            MissForestConfig::default(),
            tax.fds.clone(),
        )),
        Box::new(grimp_a),
    ];

    println!(
        "{:<18} {:>9} {:>7} {:>9}",
        "algorithm", "accuracy", "rmse", "seconds"
    );
    for mut algo in algorithms {
        let start = std::time::Instant::now();
        let imputed = algo.impute(&dirty);
        let secs = start.elapsed().as_secs_f64();
        let eval = evaluate(&clean, &imputed, &log);
        println!(
            "{:<18} {:>9} {:>7} {:>8.1}s",
            algo.name(),
            eval.accuracy()
                .map(|a| format!("{a:.3}"))
                .unwrap_or_default(),
            eval.rmse().map(|r| format!("{r:.3}")).unwrap_or_default(),
            secs
        );
    }
    println!("\nexpected shape: FD-REPAIR precise only where FDs reach (poor overall),");
    println!("FUNFOREST >= MissForest, GRIMP-A exploits both FDs and tuple similarity.");
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
