//! Quickstart: impute missing values in a small mixed-type CSV with GRIMP.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use grimp::{GrimpConfig, Pipeline};
use grimp_obs::{EventKind, MemorySink};
use grimp_table::csv::{read_csv_str, to_csv_string};

fn main() {
    // A dirty table: empty fields are missing values. Column `city`
    // functionally determines `country`, and `salary` clusters by seniority
    // — exactly the tuple- and attribute-level structure GRIMP exploits.
    let mut csv = String::from("city,country,seniority,salary\n");
    let rows = [
        ("Paris", "France", "senior", "95000"),
        ("Paris", "France", "junior", "55000"),
        ("Rome", "Italy", "senior", "90000"),
        ("Rome", "Italy", "junior", "52000"),
        ("Berlin", "Germany", "senior", "98000"),
        ("Berlin", "Germany", "junior", "56000"),
    ];
    // replicate with some blanks to give the model something to do
    for rep in 0..10 {
        for (i, (city, country, seniority, salary)) in rows.iter().enumerate() {
            let blank = (rep + i) % 7;
            let country = if blank == 0 { "" } else { country };
            let salary = if blank == 1 { "" } else { salary };
            let city = if blank == 2 { "" } else { city };
            csv.push_str(&format!("{city},{country},{seniority},{salary}\n"));
        }
    }

    let dirty = read_csv_str(&csv).expect("valid CSV");
    println!(
        "dirty table: {} rows x {} columns, {} missing cells ({:.0}%)",
        dirty.n_rows(),
        dirty.n_columns(),
        dirty.n_missing(),
        100.0 * dirty.missing_fraction()
    );

    // GRIMP is self-supervised: it trains on the dirty table itself. The
    // builder validates the configuration; the Pipeline separates the fit
    // from (possibly many) imputations; the sink records a structured
    // trace of everything the run did.
    let config = grimp::GrimpConfigBuilder::from_config(GrimpConfig::fast())
        .seed(42)
        .build()
        .expect("valid config");
    let pipeline = Pipeline::new(config).expect("validated config");
    let mut sink = MemorySink::new();
    let model = pipeline
        .fit_traced(&dirty, &mut sink)
        .expect("table has columns");
    let imputed = model.impute(&dirty).expect("training table");

    let report = model.report();
    println!(
        "trained {} epochs ({} weights), early stop: {}",
        report.epochs_run, report.n_weights, report.early_stopped
    );
    println!(
        "trace: {} events; graph build {:.1}ms, forward {:.1}ms, backward {:.1}ms",
        sink.len(),
        1e3 * sink.span_seconds("graph_build"),
        1e3 * sink.span_seconds("forward"),
        1e3 * sink.span_seconds("backward"),
    );
    println!(
        "epoch durations: p50 {:.2}ms, p95 {:.2}ms (over {} epochs)",
        sink.span_histogram("epoch").quantile(0.5) as f64 / 1e6,
        sink.span_histogram("epoch").quantile(0.95) as f64 / 1e6,
        sink.count_of(EventKind::SpanExit, "epoch"),
    );
    assert_eq!(imputed.n_missing(), 0, "every cell imputed");

    println!("\nfirst 12 imputed rows:");
    for line in to_csv_string(&imputed).lines().take(13) {
        println!("  {line}");
    }

    // Show a few specific repairs.
    println!("\nsample repairs (row: column -> imputed value):");
    let mut shown = 0;
    for (i, j) in dirty.missing_cells() {
        println!(
            "  row {i:>2}: {:<10} -> {}",
            dirty.schema().column(j).name,
            imputed.display(i, j)
        );
        shown += 1;
        if shown == 8 {
            break;
        }
    }
}
