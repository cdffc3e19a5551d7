//! **Table 2**: attention vs linear task heads — average accuracy and total
//! training time over all datasets at 5/20/50 % missingness.
//!
//! Expected shape (paper): attention slightly more accurate at every level
//! (0.707/0.679/0.637 vs 0.700/0.671/0.618), linear roughly an order of
//! magnitude faster.

use grimp::TaskKind;
use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner("Table 2 — attention vs linear task heads", profile);

    /// Paper values: (error %, strategy, accuracy, seconds).
    const PAPER: [(u32, &str, f64, u32); 6] = [
        (5, "Attention", 0.707, 307),
        (5, "Linear", 0.700, 26),
        (20, "Attention", 0.679, 294),
        (20, "Linear", 0.671, 28),
        (50, "Attention", 0.637, 258),
        (50, "Linear", 0.618, 27),
    ];

    let mut table = TablePrinter::new(&[
        "error %",
        "strategy",
        "accuracy",
        "time (s)",
        "paper acc",
        "paper t",
    ]);
    let mut csv_rows = Vec::new();
    for &rate in &ERROR_RATES {
        for kind in [TaskKind::Attention, TaskKind::Linear] {
            let mut acc_sum = 0.0;
            let mut acc_n = 0usize;
            let mut time_sum = 0.0;
            for id in DatasetId::ALL {
                let prepared = prepare(id, profile, 0);
                let instance = corrupt(&prepared, rate, 3000 + (rate * 100.0) as u64);
                let mut model = profile.grimp(0, |c| c.task_kind = kind);
                let cell = run_cell(&prepared, &instance, &mut model as &mut dyn Imputer, rate);
                if let Some(a) = cell.eval.accuracy() {
                    acc_sum += a;
                    acc_n += 1;
                }
                time_sum += cell.seconds;
            }
            let strategy = match kind {
                TaskKind::Attention => "Attention",
                TaskKind::Linear => "Linear",
            };
            let acc = acc_sum / acc_n.max(1) as f64;
            let paper = PAPER
                .iter()
                .find(|(e, s, _, _)| *e == (rate * 100.0) as u32 && *s == strategy)
                .expect("paper row");
            table.row(vec![
                format!("{:.0}", rate * 100.0),
                strategy.to_string(),
                format!("{acc:.3}"),
                format!("{time_sum:.0}"),
                format!("{:.3}", paper.2),
                paper.3.to_string(),
            ]);
            csv_rows.push(vec![
                format!("{:.2}", rate),
                strategy.to_string(),
                format!("{acc:.4}"),
                format!("{time_sum:.1}"),
            ]);
            eprintln!("  done {strategy} @ {:.0}%", rate * 100.0);
        }
    }
    println!("{}", table.render());
    println!("expected shape: attention > linear accuracy at every level, linear much faster.");
    let path = write_csv(
        "tab2_attention_linear",
        &["rate", "strategy", "accuracy", "seconds"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
