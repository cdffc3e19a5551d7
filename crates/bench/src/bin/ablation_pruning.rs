//! **Extension ablation** (paper §7 efficiency direction): GraphSAGE
//! neighbor-sampling caps. High-degree cell nodes (frequent values touch
//! thousands of rows) dominate aggregation cost; capping the sampled
//! neighborhood trades a little accuracy for time.

use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner(
        "Ablation — GraphSAGE neighbor-sampling cap (graph pruning)",
        profile,
    );

    let caps: [(&str, Option<usize>); 4] = [
        ("full", None),
        ("cap 16", Some(16)),
        ("cap 8", Some(8)),
        ("cap 3", Some(3)),
    ];
    let mut table = TablePrinter::new(&["ds", "cap", "accuracy", "rmse", "seconds"]);
    let mut csv_rows = Vec::new();
    for id in [DatasetId::Adult, DatasetId::TicTacToe] {
        let prepared = prepare(id, profile, 0);
        let instance = corrupt(&prepared, 0.20, 8200);
        for (name, cap) in caps {
            let mut model = profile.grimp(0, |c| c.gnn.neighbor_cap = cap);
            let cell = run_cell(&prepared, &instance, &mut model as &mut dyn Imputer, 0.20);
            table.row(vec![
                prepared.abbr.to_string(),
                name.to_string(),
                fmt_opt(cell.eval.accuracy(), 3),
                fmt_opt(cell.eval.rmse(), 3),
                format!("{:.2}", cell.seconds),
            ]);
            csv_rows.push(vec![
                prepared.abbr.to_string(),
                name.to_string(),
                fmt_opt(cell.eval.accuracy(), 4),
                fmt_opt(cell.eval.rmse(), 4),
                format!("{:.3}", cell.seconds),
            ]);
            eprintln!("  done {} {}", prepared.abbr, name);
        }
    }
    println!("{}", table.render());
    println!("expected shape: small caps reduce time with bounded accuracy cost;");
    println!("Tic-Tac-Toe (tiny domains → huge cell-node degrees) benefits most.");
    let path = write_csv(
        "ablation_pruning",
        &["dataset", "cap", "accuracy", "rmse", "seconds"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
