//! **Table 4**: Pearson correlation between the §5 difficulty metrics
//! (S_avg, K_avg, F+_avg, N+_avg) and GRIMP's imputation accuracy at 50 %
//! missingness, over all ten datasets.
//!
//! Expected shape (paper): negative correlations for S_avg, K_avg and
//! N+_avg (strongest for K_avg ≈ −0.655 and N+_avg ≈ −0.660), positive for
//! F+_avg (≈ 0.536) — "better results when the distribution is skewed
//! towards few, very frequent values".

use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_metrics::{dataset_stats, pearson};
use grimp_table::Imputer;

fn main() {
    let profile = Profile::from_env();
    banner(
        "Table 4 — difficulty metrics vs GRIMP accuracy @50%",
        profile,
    );

    let mut s = Vec::new();
    let mut k = Vec::new();
    let mut f_plus = Vec::new();
    let mut n_plus = Vec::new();
    let mut acc = Vec::new();
    let mut detail = TablePrinter::new(&["ds", "S_avg", "K_avg", "F+_avg", "N+_avg", "accuracy"]);

    for id in DatasetId::ALL {
        let prepared = prepare(id, profile, 0);
        let stats = dataset_stats(&prepared.clean);
        let instance = corrupt(&prepared, 0.50, 5000);
        let mut model = profile.grimp(0, |_| {});
        let cell = run_cell(&prepared, &instance, &mut model as &mut dyn Imputer, 0.50);
        let a = cell.eval.accuracy().unwrap_or(0.0);
        s.push(stats.s_avg);
        k.push(stats.k_avg);
        f_plus.push(stats.f_plus_avg);
        n_plus.push(stats.n_plus_avg);
        acc.push(a);
        detail.row(vec![
            prepared.abbr.to_string(),
            format!("{:.2}", stats.s_avg),
            format!("{:.2}", stats.k_avg),
            format!("{:.2}", stats.f_plus_avg),
            format!("{:.2}", stats.n_plus_avg),
            format!("{a:.3}"),
        ]);
        eprintln!("  done {}", prepared.abbr);
    }
    println!("{}", detail.render());

    let rho = [
        ("S_avg", pearson(&s, &acc)),
        ("K_avg", pearson(&k, &acc)),
        ("F+_avg", pearson(&f_plus, &acc)),
        ("N+_avg", pearson(&n_plus, &acc)),
    ];
    let paper = [
        ("S_avg", -0.467),
        ("K_avg", -0.655),
        ("F+_avg", 0.536),
        ("N+_avg", -0.660),
    ];
    let mut table = TablePrinter::new(&["metric", "ρ (measured)", "ρ (paper)"]);
    let mut csv_rows = Vec::new();
    for ((name, measured), (_, published)) in rho.iter().zip(paper.iter()) {
        table.row(vec![
            name.to_string(),
            format!("{measured:+.3}"),
            format!("{published:+.3}"),
        ]);
        csv_rows.push(vec![
            name.to_string(),
            format!("{measured:.4}"),
            format!("{published:.4}"),
        ]);
    }
    println!("{}", table.render());
    println!("expected shape: negative for S/K/N+, positive for F+.");
    let path = write_csv(
        "tab4_correlation",
        &["metric", "rho_measured", "rho_paper"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
