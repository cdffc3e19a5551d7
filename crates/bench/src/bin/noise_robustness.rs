//! **§4.2 "Impact of Noise in the Dataset"**: 10 % of categorical cells get
//! a random character inserted (typos), then 5 % MCAR is injected; GRIMP-FT
//! is compared against the clean-table run.
//!
//! Expected shape (paper): thanks to the inductive subword features, the
//! accuracy drop is small (paper reports an absolute decrease of ~0.06 %
//! with 10 % typos; we report the measured delta).

use grimp_bench::*;
use grimp_datasets::DatasetId;
use grimp_table::{inject_typos, Imputer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let profile = Profile::from_env();
    banner("Noise robustness — 10% typos + 5% MCAR (GRIMP-FT)", profile);

    let mut table = TablePrinter::new(&["ds", "acc clean", "acc typos", "delta"]);
    let mut csv_rows = Vec::new();
    let mut deltas = Vec::new();
    for id in DatasetId::ALL {
        let prepared = prepare(id, profile, 0);

        // clean arm: 5 % MCAR on the original table
        let clean_instance = corrupt(&prepared, 0.05, 7000);
        let mut model = profile.grimp(0, |_| {});
        let clean_cell = run_cell(
            &prepared,
            &clean_instance,
            &mut model as &mut dyn Imputer,
            0.05,
        );
        let acc_clean = clean_cell.eval.accuracy().unwrap_or(0.0);

        // noisy arm: typos first (ground truth for injected cells is still
        // drawn from the typo'd table: exactly the paper's protocol — the
        // 5 % blanks are removed from, and evaluated against, the noisy
        // table)
        let mut noisy = prepared.clean.clone();
        inject_typos(&mut noisy, 0.10, &mut StdRng::seed_from_u64(7100));
        let noisy_prepared = Prepared {
            id: prepared.id,
            abbr: prepared.abbr,
            clean: noisy,
            fds: prepared.fds.clone(),
        };
        let noisy_instance = corrupt(&noisy_prepared, 0.05, 7000);
        let mut model = profile.grimp(0, |_| {});
        let noisy_cell = run_cell(
            &noisy_prepared,
            &noisy_instance,
            &mut model as &mut dyn Imputer,
            0.05,
        );
        let acc_noisy = noisy_cell.eval.accuracy().unwrap_or(0.0);

        let delta = acc_clean - acc_noisy;
        deltas.push(delta);
        table.row(vec![
            prepared.abbr.to_string(),
            format!("{acc_clean:.3}"),
            format!("{acc_noisy:.3}"),
            format!("{delta:+.3}"),
        ]);
        csv_rows.push(vec![
            prepared.abbr.to_string(),
            format!("{acc_clean:.4}"),
            format!("{acc_noisy:.4}"),
            format!("{delta:.4}"),
        ]);
        eprintln!("  done {}", prepared.abbr);
    }
    println!("{}", table.render());
    let mean_delta = deltas.iter().sum::<f64>() / deltas.len() as f64;
    println!("mean absolute accuracy drop with 10% typos: {mean_delta:+.3}");
    println!("paper: limited impact (≈0.06 % absolute decrease) thanks to inductive features.");
    let path = write_csv(
        "noise_robustness",
        &["dataset", "acc_clean", "acc_typos", "delta"],
        &csv_rows,
    );
    println!("\ncsv: {}", path.display());
}
