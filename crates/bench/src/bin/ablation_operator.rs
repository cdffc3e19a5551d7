//! **Extension ablation**: GNN operator choice per sub-module — the paper's
//! §3.5 notes "each sub-module can use a different GNN architecture (e.g.,
//! l11 using GCN, l12 uses GraphSAGE…)" but evaluates only GraphSAGE.
//! This bin measures all-SAGE vs all-GCN vs the alternating mix.

use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_gnn::OperatorAssignment;
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner(
        "Ablation — GNN operator per sub-module (SAGE / GCN / mixed)",
        profile,
    );

    let operators = [
        ("all-SAGE", OperatorAssignment::AllSage),
        ("all-GCN", OperatorAssignment::AllGcn),
        ("alternating", OperatorAssignment::Alternating),
    ];
    let mut table = TablePrinter::new(&["ds", "operator", "accuracy", "rmse", "seconds"]);
    let mut csv_rows = Vec::new();
    for id in [
        DatasetId::Mammogram,
        DatasetId::Contraceptive,
        DatasetId::Flare,
    ] {
        let prepared = prepare(id, profile, 0);
        let instance = corrupt(&prepared, 0.20, 8400);
        for (name, op) in operators {
            let mut model = profile.grimp(0, |c| c.gnn.operator = op);
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
    println!("expected shape: operators within a few points of each other — the paper's");
    println!("claim that GRIMP is agnostic to the specific GNN model.");
    let path = write_csv(
        "ablation_operator",
        &["dataset", "operator", "accuracy", "rmse", "seconds"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
