//! **Extension ablation**: the four `K`-matrix strategies of Fig. 7
//! (Diagonal, Target column, Weak diagonal, Weak diagonal + FD) compared on
//! the two FD datasets. The paper fixes Weak diagonal as default and uses
//! +FD for GRIMP-A; this bin measures all four side by side.

use grimp::KStrategy;
use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner(
        "Ablation — attention K-matrix strategies (Fig. 7 variants)",
        profile,
    );

    let strategies = [
        ("Diagonal", KStrategy::Diagonal),
        ("TargetColumn", KStrategy::TargetColumn),
        ("WeakDiagonal", KStrategy::WeakDiagonal),
        ("WeakDiagonal+FD", KStrategy::WeakDiagonalFd),
    ];
    let mut table = TablePrinter::new(&["ds", "rate", "strategy", "accuracy", "rmse"]);
    let mut csv_rows = Vec::new();
    for id in [DatasetId::Adult, DatasetId::Tax] {
        let prepared = prepare(id, profile, 0);
        for &rate in &[0.20] {
            let instance = corrupt(&prepared, rate, 8000);
            for (name, strategy) in strategies {
                let mut model = profile
                    .grimp(0, |c| c.k_strategy = strategy)
                    .with_fds(prepared.fds.clone());
                let cell = run_cell(&prepared, &instance, &mut model as &mut dyn Imputer, rate);
                table.row(vec![
                    prepared.abbr.to_string(),
                    format!("{:.0}%", rate * 100.0),
                    name.to_string(),
                    fmt_opt(cell.eval.accuracy(), 3),
                    fmt_opt(cell.eval.rmse(), 3),
                ]);
                csv_rows.push(vec![
                    prepared.abbr.to_string(),
                    format!("{rate:.2}"),
                    name.to_string(),
                    fmt_opt(cell.eval.accuracy(), 4),
                    fmt_opt(cell.eval.rmse(), 4),
                ]);
                eprintln!("  done {} {}", prepared.abbr, name);
            }
        }
    }
    println!("{}", table.render());
    println!("expected shape: WeakDiagonal ≥ Diagonal ≥ TargetColumn (context matters);");
    println!("+FD helps most on the FD-rich Tax dataset.");
    let path = write_csv(
        "ablation_kstrategy",
        &["dataset", "rate", "strategy", "accuracy", "rmse"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
